"""CHSH symmetries, the canonical decomposition, replacement tables,
four-term rewrites, and the estimator."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

import bellpoly as bp
from bellpoly import NotApplicableError, PreconditionError
from conftest import random_local_222, random_nonlocal_222, random_nonsignaling_222
import oracles

F = Fraction


# ---------------------------------------------------------------------------
# Outcome flips
# ---------------------------------------------------------------------------


def _flip(entries, flips):
    """Entry (r, c) moved to (r, c ^ flips[r])."""
    return tuple(tuple(row[c ^ f] for c in range(4)) for row, f in zip(entries, flips))


def test_flips_carry_pr1_onto_each_pr_box_and_back():
    pr1 = bp.as_matrix(bp.pr_box(1)).entries
    for k in range(1, 9):
        flips = bp.chsh_symmetry(k).flips
        assert len(flips) == 4 and set(flips) <= {0, 1, 2, 3}
        prk = bp.as_matrix(bp.pr_box(k)).entries
        assert _flip(prk, flips) == pr1
        assert _flip(pr1, flips) == prk
    assert bp.chsh_symmetry(1).flips == (0, 0, 0, 0)


# ---------------------------------------------------------------------------
# Symmetry values
# ---------------------------------------------------------------------------


def test_chsh_reference_values():
    pr1 = bp.as_matrix(bp.pr_box(1))
    sym1 = bp.chsh_symmetry(1)
    assert bp.chsh_value(pr1, sym1) == 4
    assert bp.chsh_value(bp.as_matrix(bp.ld_box(1)), sym1) == 2
    table1 = bp.mix([(bp.pr_box(1), F(1, 2)), (bp.pr_box(6), F(1, 2))])
    assert bp.chsh_value(table1, sym1) == 2
    assert bp.all_chsh_values(pr1) == (4, -4, 0, 0, 0, 0, 0, 0)


def test_chsh_agrees_with_correlator_arithmetic(rng):
    tables = [random_nonsignaling_222(rng) for _ in range(30)]
    # Arbitrary rational tables too: non-members with negative cells and
    # unnormalised rows, as rounded input can be.
    tables += [
        bp.DistributionMatrix(
            bp.Scenario(2),
            [[F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(4)]
             for _ in range(4)],
        )
        for _ in range(200)
    ]
    for dm in tables:
        assert bp.all_chsh_values(dm) == oracles.all_chsh_direct(dm)


def test_each_pr_box_maximizes_its_own_symmetry():
    for k in range(1, 9):
        values = bp.all_chsh_values(bp.as_matrix(bp.pr_box(k)))
        assert values[k - 1] == 4
        assert all(v <= 2 for i, v in enumerate(values) if i != k - 1)


def test_at_most_one_symmetry_exceeds_two(rng):
    for _ in range(100):
        dm = random_nonsignaling_222(rng)
        values = bp.all_chsh_values(dm)
        assert sum(1 for v in values if v > 2) <= 1


def test_violated_symmetry_identifies_the_source(rng):
    for _ in range(30):
        dm, index, _, _ = random_nonlocal_222(rng)
        sym = bp.violated_symmetry(dm)
        assert sym is not None and sym.index == index
    for _ in range(10):
        assert bp.violated_symmetry(random_local_222(rng)) is None


def test_symmetry_value_exactly_two_counts_as_local():
    table1 = bp.mix([(bp.pr_box(1), F(1, 2)), (bp.pr_box(6), F(1, 2))])
    assert bp.violated_symmetry(table1) is None
    assert bp.is_local_222(table1)


# ---------------------------------------------------------------------------
# Canonical decomposition (one nonlocal box + eight locals)
# ---------------------------------------------------------------------------


def test_decompose_recovers_exact_construction(rng):
    for _ in range(50):
        dm, index, pr_weight, ld_weights = random_nonlocal_222(rng)
        dec = bp.decompose_222(dm)
        box, weight = dec.pr_term
        assert bp.pr_index_of(bp.as_matrix(box)) == index
        assert weight == pr_weight
        recovered = {
            bp.ld_index_of(bp.as_matrix(ld)): w for ld, w in dec.ld_terms
        }
        assert recovered == ld_weights
        assert dec.mixture().entries == dm.entries


def test_decompose_of_the_nonlocal_vertex_is_itself():
    dec = bp.decompose_222(bp.as_matrix(bp.pr_box(1)))
    assert dec.pr_weight == 1
    assert dec.ld_terms == ()


def test_decompose_reads_weights_off_single_cells():
    dm = bp.mix([(bp.pr_box(1), F(1, 2)), (bp.ld_box(1), F(1, 2))])
    dec = bp.decompose_222(dm)
    assert dec.pr_weight == F(1, 2)
    assert {
        bp.ld_index_of(bp.as_matrix(ld)): w for ld, w in dec.ld_terms
    } == {1: F(1, 2)}


def test_decompose_rejects_local_input():
    with pytest.raises(NotApplicableError):
        bp.decompose_222(bp.as_matrix(bp.ld_box(3)))


def test_chsh_equals_two_plus_twice_the_nonlocal_weight(rng):
    for _ in range(50):
        dm, index, _, _ = random_nonlocal_222(rng)
        sym = bp.chsh_symmetry(index)
        dec = bp.decompose_222(dm)
        assert bp.chsh_value(dm, sym) == 2 + 2 * dec.pr_weight


def test_local_decomposition_caratheodory_bound(rng):
    for _ in range(30):
        dm = random_local_222(rng)
        dec = bp.decompose_local_222(dm)
        assert dec.pr_term is None
        assert len(dec.ld_terms) <= 9
        assert dec.mixture().entries == dm.entries


def test_local_decomposition_of_balanced_pr_pair_uses_its_ld_face(table1):
    dm = bp.mix([(bp.pr_box(1), F(1, 2)), (bp.pr_box(6), F(1, 2))])
    dec = bp.decompose_local_222(dm)
    support = sorted(bp.ld_index_of(bp.as_matrix(ld)) for ld, _ in dec.ld_terms)
    assert support == [9, 12, 14, 15]
    assert all(w == F(1, 4) for _, w in dec.ld_terms)


def test_local_decomposition_rejects_larger_n(rng):
    boxes = bp.enumerate_lds(bp.Scenario(3))
    for _ in range(3):
        chosen = rng.sample(boxes, 4)
        dm = bp.mix([(box, F(1, 4)) for box in chosen])
        assert bp.validate(dm) == []
        with pytest.raises(PreconditionError, match="defined for n=2 only"):
            bp.decompose_local_222(dm)


# The deterministic terms that decompose_local_222 returns are the vertex
# that the simplex's pivot order reaches, not the only decomposition, so
# these literals (catalog index, weight) pin that order.
PINNED_LOCAL_DECOMPOSITIONS = {
    "two-box": [(1, "1/3"), (16, "2/3")],
    "uniform": [(1, "1/4"), (2, "1/4"), (3, "1/4"), (4, "1/4")],
    "seed0": [(1, "20/79"), (2, "14/79"), (3, "15/79"), (4, "11/79"),
              (7, "7/79"), (11, "2/79"), (12, "7/79"), (14, "3/79")],
    "seed1": [(2, "4/29"), (3, "8/29"), (5, "7/29"), (8, "2/29"), (13, "8/29")],
    "seed2": [(1, "21/95"), (2, "5/19"), (3, "1/5"), (4, "26/95"), (5, "2/95"),
              (7, "1/95"), (9, "1/95")],
    "seed3": [(1, "1/29"), (2, "1/29"), (5, "1/29"), (8, "5/29"), (10, "8/29"),
              (11, "9/29"), (14, "4/29")],
}


def _pinned_local_matrix(name):
    if name == "two-box":  # test_core's _LOCAL_TERMS
        return bp.mix([(bp.ld_box(1), F(1, 3)), (bp.ld_box(16), F(2, 3))])
    if name == "uniform":
        return bp.mix([(bp.ld_box(i), F(1, 16)) for i in range(1, 17)])
    rng = random.Random(int(name[len("seed"):]))
    chosen = rng.sample(range(1, 17), rng.randint(3, 16))
    raw = [rng.randint(1, 9) for _ in chosen]
    return bp.mix([(bp.ld_box(i), F(r, sum(raw))) for i, r in zip(chosen, raw)])


@pytest.mark.parametrize("name", PINNED_LOCAL_DECOMPOSITIONS)
def test_local_decomposition_reaches_the_pinned_vertex(name):
    dec = bp.decompose_local_222(_pinned_local_matrix(name))
    terms = [(bp.ld_index_of(bp.as_matrix(b)), str(w)) for b, w in dec.ld_terms]
    assert terms == PINNED_LOCAL_DECOMPOSITIONS[name]


# Exact estimator weights on fixed violators: PR box k at weight r over
# its saturating boxes, weighted by a seeded draw.
PINNED_ESTIMATOR_WEIGHTS = {
    (4, "uniform"): [
        "21728473702323866369091/216020027272826234049680",
        "28886927346631692629491/216020027272826234049680",
        "14545178403419507549059/216020027272826234049680",
        "12263248938552164048619/216020027272826234049680",
        "3081298585267443867247/43204005454565246809936",
        "54622880268200833984987/216020027272826234049680",
        "24553709133117694454579/216020027272826234049680",
        "44013116554243255677619/216020027272826234049680",
    ],
    (7, "skewed"): [
        "557071657303503131087/5857608672382655705000",
        "43795634340726735367/532509879307514155000",
        "189901357268655822237/1464402168095663926250",
        "12107843038391409821/66563734913439269375",
        "80630982528716090129/532509879307514155000",
        "358668018288904443309/5857608672382655705000",
        "63958969547848856293/266254939653757077500",
        "170491632360317429253/2928804336191327852500",
    ],
}


@pytest.mark.parametrize("k, settings_name", PINNED_ESTIMATOR_WEIGHTS)
def test_estimator_weights_are_pinned(k, settings_name):
    rng = random.Random(k)
    sat = [i for i in range(1, 17)
           if bp.chained_value(bp.as_matrix(bp.ld_box(i)), bp.pr_box(k)) == 1]
    raw = [rng.randint(1, 9) for _ in sat]
    r = F(rng.randint(1, 60), 100)
    dm = bp.mix([(bp.pr_box(k), r)] + [
        (bp.ld_box(i), (1 - r) * F(x, sum(raw))) for i, x in zip(sat, raw)
    ])
    probs = {"uniform": (F(1, 4),) * 4, "skewed": (F(1, 10), F(2, 10), F(3, 10), F(4, 10))}
    settings = bp.SettingsDistribution(bp.SCENARIO_222, probs[settings_name])
    weights = bp.estimator_weights(dm, settings)
    assert [str(w) for w in weights] == PINNED_ESTIMATOR_WEIGHTS[k, settings_name]


def test_readoff_reproduces_rounded_empirical_table(empirical_path):
    dm, _ = bp.load_distribution(str(empirical_path))
    dec, residual = bp.readoff_222(dm)
    weights = {bp.ld_index_of(bp.as_matrix(ld)): w for ld, w in dec.ld_terms}
    assert dec.pr_weight == F(237, 10_000_000)
    assert weights == {
        1: F(24, 10_000_000),
        4: F(9_986_974, 10_000_000),
        5: F(635, 10_000_000),
        8: F(5249, 10_000_000),
        9: F(644, 10_000_000),
        12: F(4795, 10_000_000),
        14: F(743, 10_000_000),
        15: F(699, 10_000_000),
    }
    assert residual == F(1, 5_000_000)
    assert oracles.tv_direct(dec.mixture(), dm) == residual


def test_readoff_on_exact_member_has_zero_residual(rng):
    dm, _, pr_weight, _ = random_nonlocal_222(rng)
    dec, residual = bp.readoff_222(dm)
    assert residual == 0
    assert dec.pr_weight == pr_weight


# ---------------------------------------------------------------------------
# Replacement tables
# ---------------------------------------------------------------------------

PRINTED_PAIR_ROWS = {
    (1, 2): (1, 2, 3, 4),
    (1, 3): (1, 4, 9, 12),
    (1, 4): (5, 8, 14, 15),
    (1, 5): (1, 4, 5, 8),
    (1, 6): (9, 12, 14, 15),
    (1, 7): (1, 4, 14, 15),
    (1, 8): (5, 8, 9, 12),
}

PRINTED_CASTOUT_ROWS = {
    2: (5, 12, 14),
    3: (8, 9, 15),
    6: (1, 12, 14),
    7: (4, 9, 15),
    10: (4, 5, 14),
    11: (1, 8, 15),
    13: (4, 5, 9),
    16: (1, 8, 12),
}


def test_pair_replacement_matches_printed_rows():
    for (i, j), expected in PRINTED_PAIR_ROWS.items():
        assert bp.pair_replacement(i, j) == expected


# Every unordered pair, as the conjugated PR-1 rows give it.  For the
# complementary pairs (3, 4), (5, 6) and (7, 8) the box merge of the pair
# itself would give (1, 2, 3, 4); the identities are equally valid, so
# these rows pin which one pair_replacement returns.
ALL_PAIR_ROWS = {
    **PRINTED_PAIR_ROWS,
    (2, 3): (6, 7, 13, 16),
    (2, 4): (2, 3, 10, 11),
    (2, 5): (10, 11, 13, 16),
    (2, 6): (2, 3, 6, 7),
    (2, 7): (6, 7, 10, 11),
    (2, 8): (2, 3, 13, 16),
    (3, 4): (9, 10, 11, 12),
    (3, 5): (1, 4, 13, 16),
    (3, 6): (6, 7, 9, 12),
    (3, 7): (1, 4, 6, 7),
    (3, 8): (9, 12, 13, 16),
    (4, 5): (5, 8, 10, 11),
    (4, 6): (2, 3, 14, 15),
    (4, 7): (10, 11, 14, 15),
    (4, 8): (2, 3, 5, 8),
    (5, 6): (5, 6, 7, 8),
    (5, 7): (1, 4, 10, 11),
    (5, 8): (5, 8, 13, 16),
    (6, 7): (6, 7, 14, 15),
    (6, 8): (2, 3, 9, 12),
    (7, 8): (13, 14, 15, 16),
}


def test_pair_replacement_pins_every_unordered_pair():
    assert len(ALL_PAIR_ROWS) == 28
    for (i, j), expected in ALL_PAIR_ROWS.items():
        assert bp.pair_replacement(i, j) == expected, (i, j)


def test_pair_replacement_mixture_identity_all_pairs():
    for i in range(1, 9):
        for j in range(i + 1, 9):
            outputs = bp.pair_replacement(i, j)
            left = bp.uniform_pair_mixture(i, j)
            right = bp.mix([(bp.ld_box(d), F(1, 4)) for d in outputs])
            assert left.entries == right.entries, (i, j)


def test_pair_replacement_is_symmetric_in_its_arguments():
    assert sorted(bp.pair_replacement(2, 1)) == sorted(bp.pair_replacement(1, 2))
    assert sorted(bp.pair_replacement(5, 3)) == sorted(bp.pair_replacement(3, 5))


def test_castout_replacement_matches_printed_rows():
    for d, expected in PRINTED_CASTOUT_ROWS.items():
        assert bp.castout_replacement(d) == expected


def test_castout_mixture_identity_cellwise():
    for d in PRINTED_CASTOUT_ROWS:
        outputs = bp.castout_replacement(d)
        left = bp.castout_mixture(d)
        right = bp.mix([(bp.ld_box(o), F(1, 3)) for o in outputs])
        assert left.entries == right.entries, d


def test_castout_rejects_saturating_indices():
    for d in sorted(bp.SATURATING_SET_1):
        with pytest.raises(PreconditionError):
            bp.castout_replacement(d)


# ---------------------------------------------------------------------------
# The eight four-term rewrites
# ---------------------------------------------------------------------------


def test_variant_values_match_direct_cell_arithmetic(rng):
    sym1 = bp.chsh_symmetry(1)
    for _ in range(30):
        dm = random_nonsignaling_222(rng)
        assert bp.variant_eberhard_values(dm, sym1) == oracles.variant_values_direct(dm)


def test_variant_values_all_equal_half_nonlocal_weight(rng):
    for _ in range(50):
        dm, index, pr_weight, _ = random_nonlocal_222(rng)
        sym = bp.chsh_symmetry(index)
        values = bp.variant_eberhard_values(dm, sym)
        assert set(values) == {pr_weight / 2}
        assert sum(values) == 4 * pr_weight


def test_variant_values_equal_even_without_violation(rng):
    for _ in range(30):
        dm = random_local_222(rng)
        for sym in bp.chsh_symmetries():
            values = bp.variant_eberhard_values(dm, sym)
            assert len(set(values)) == 1
            assert values[0] == (bp.chsh_value(dm, sym) - 2) / 4


def test_variant_value_from_rounded_empirical_cells(empirical_path):
    dm, _ = bp.load_distribution(str(empirical_path))
    # first rewrite from the printed digits:
    # 0.0001422 - 0.0000635 - 0.0000644 - 0.0000024
    first = bp.variant_eberhard_values(dm, bp.chsh_symmetry(1))[0]
    assert first == F(119, 10_000_000)


#: Each symmetry's 8 positive cells (row, column) in rewrite order.  The
#: estimator's weights come in this order, so it is fixed here.
POSITIVE_CELLS = {
    1: ((0, 0), (0, 3), (3, 0), (3, 3), (1, 0), (1, 3), (2, 1), (2, 2)),
    2: ((0, 1), (0, 2), (3, 1), (3, 2), (1, 1), (1, 2), (2, 0), (2, 3)),
    3: ((0, 0), (0, 3), (3, 0), (3, 3), (1, 2), (1, 1), (2, 3), (2, 0)),
    4: ((0, 1), (0, 2), (3, 1), (3, 2), (1, 3), (1, 0), (2, 2), (2, 1)),
    5: ((0, 0), (0, 3), (3, 1), (3, 2), (1, 0), (1, 3), (2, 0), (2, 3)),
    6: ((0, 1), (0, 2), (3, 0), (3, 3), (1, 1), (1, 2), (2, 1), (2, 2)),
    7: ((0, 1), (0, 2), (3, 0), (3, 3), (1, 3), (1, 0), (2, 3), (2, 0)),
    8: ((0, 0), (0, 3), (3, 1), (3, 2), (1, 2), (1, 1), (2, 2), (2, 1)),
}


def test_rewrite_order_is_pinned_for_every_symmetry():
    # A unit mass on a positive cell reads 1 in its own rewrite and 0 in
    # the others, whose cells are the other support cells and zero cells.
    for k, cells in POSITIVE_CELLS.items():
        sym = bp.chsh_symmetry(k)
        for v, (r, c) in enumerate(cells):
            rows = tuple(bp.UNIT_ROWS[c] if i == r else (0,) * 4 for i in range(4))
            unit = bp.DistributionMatrix(bp.SCENARIO_222, rows)
            expected = tuple(int(u == v) for u in range(8))
            assert bp.variant_eberhard_values(unit, sym) == expected


def test_variant_values_transport_along_each_symmetry():
    for k in range(1, 9):
        values = bp.variant_eberhard_values(
            bp.as_matrix(bp.pr_box(k)), bp.chsh_symmetry(k)
        )
        assert set(values) == {F(1, 2)}


# ---------------------------------------------------------------------------
# Estimator
# ---------------------------------------------------------------------------


def _random_first_symmetry_violation(rng):
    """A violating instance whose rewrites are the first symmetry's,
    matching the cell table the oracle module carries."""
    while True:
        dm, index, pr_weight, ld_weights = random_nonlocal_222(rng)
        if index == 1:
            return dm, pr_weight


def test_estimator_uniform_optimum_for_the_symmetric_box(uniform_settings):
    pr1 = bp.as_matrix(bp.pr_box(1))
    weights = bp.estimator_weights(pr1, uniform_settings)
    assert sum(weights) == pytest.approx(1, abs=1e-12)
    assert all(w == pytest.approx(0.125, abs=1e-8) for w in weights)
    objective = bp.estimator_objective(pr1, uniform_settings, weights)
    assert objective == pytest.approx(0.25, abs=1e-12)
    grid_obj, _ = oracles.estimator_grid_oracle(pr1, uniform_settings.probs)
    assert objective <= grid_obj + 1e-12
    assert grid_obj - objective <= 1e-3


def test_estimator_is_unbiased_for_any_weights(rng, uniform_settings):
    for _ in range(20):
        dm, pr_weight = _random_first_symmetry_violation(rng)
        weights = [rng.random() for _ in range(8)]
        total = sum(weights)
        weights = [w / total for w in weights]
        mean = oracles.estimator_mean_direct(dm, uniform_settings.probs, weights)
        assert mean == pytest.approx(float(pr_weight) / 2, abs=1e-12)


def test_estimator_beats_every_pure_variant(rng, uniform_settings):
    for _ in range(10):
        dm, _, _, _ = random_nonlocal_222(rng)
        best = bp.estimator_weights(dm, uniform_settings)
        best_obj = bp.estimator_objective(dm, uniform_settings, best)
        uniform = [0.125] * 8
        assert best_obj <= bp.estimator_objective(dm, uniform_settings, uniform) + 1e-9
        for v in range(8):
            pure = [0.0] * 8
            pure[v] = 1.0
            assert best_obj <= bp.estimator_objective(dm, uniform_settings, pure) + 1e-9


def test_estimator_objective_matches_direct_second_moment(rng, uniform_settings):
    for _ in range(10):
        dm, _ = _random_first_symmetry_violation(rng)
        weights = [rng.random() for _ in range(8)]
        total = sum(weights)
        weights = [w / total for w in weights]
        impl = bp.estimator_objective(dm, uniform_settings, weights)
        direct = oracles.estimator_second_moment_direct(
            dm, uniform_settings.probs, weights
        )
        assert impl == pytest.approx(direct, rel=1e-12)


def test_estimator_agrees_with_grid_search(rng, uniform_settings):
    for _ in range(5):
        dm, _ = _random_first_symmetry_violation(rng)
        weights = bp.estimator_weights(dm, uniform_settings)
        impl = bp.estimator_objective(dm, uniform_settings, weights)
        grid_obj, _ = oracles.estimator_grid_oracle(dm, uniform_settings.probs)
        assert impl <= grid_obj + 1e-9
        assert grid_obj - impl <= 1e-2


def test_estimator_rejects_local_input(uniform_settings):
    with pytest.raises(NotApplicableError):
        bp.estimator_weights(bp.as_matrix(bp.ld_box(1)), uniform_settings)


def test_estimator_needs_every_setting_sampled():
    settings = bp.SettingsDistribution(
        bp.SCENARIO_222, (F(1, 2), F(1, 2), F(0), F(0))
    )
    with pytest.raises(PreconditionError):
        bp.estimator_weights(bp.as_matrix(bp.pr_box(1)), settings)


def test_estimator_favors_cheap_rewrites_under_skewed_settings():
    # sampling a1b1 heavily makes rewrites that read its cells cheaper,
    # so the optimum moves away from the uniform point
    pr1 = bp.as_matrix(bp.pr_box(1))
    skewed = bp.SettingsDistribution(
        bp.SCENARIO_222, (F(7, 10), F(1, 10), F(1, 10), F(1, 10))
    )
    weights = bp.estimator_weights(pr1, skewed)
    impl = bp.estimator_objective(pr1, skewed, weights)
    uniform_obj = bp.estimator_objective(pr1, skewed, [0.125] * 8)
    assert impl < uniform_obj - 1e-6
    grid_obj, _ = oracles.estimator_grid_oracle(pr1, skewed.probs)
    assert impl <= grid_obj + 1e-9


def test_estimator_weights_are_exact_and_on_the_simplex(rng, uniform_settings):
    for _ in range(10):
        dm, _, _, _ = random_nonlocal_222(rng)
        weights = bp.estimator_weights(dm, uniform_settings)
        assert all(type(w) is F and w >= 0 for w in weights)
        assert sum(weights) == 1


def _dense_solve(rows, rhs):
    """Gauss-Jordan elimination on Fractions; None for a singular matrix."""
    n = len(rows)
    a = [[F(v) for v in row] + [F(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [v - f * w for v, w in zip(a[i], a[col])]
    return [row[-1] for row in a]


def _brute_force_minimum(matrix):
    """Least c^T M c over the simplex.  On each of the 255 supports S,
    solve the KKT system  M_SS c_S = mu 1, sum(c_S) = 1,  and keep the
    nonnegative solutions; the minimizer's own support is among them."""
    best = None
    for size in range(1, 9):
        for support in itertools.combinations(range(8), size):
            rows = [[matrix[i][j] for j in support] + [-1] for i in support]
            rows.append([1] * size + [0])
            solution = _dense_solve(rows, [0] * size + [1])
            if solution is None or any(v < 0 for v in solution[:size]):
                continue
            c = dict(zip(support, solution))
            value = sum(c[i] * matrix[i][j] * c[j] for i in support for j in support)
            best = value if best is None else min(best, value)
    return best


@hyp_settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(st.integers(min_value=1, max_value=10), min_size=4, max_size=4),
)
@example(987, [3, 6, 2, 1])  # one weight is 0 at the optimum
@example(874, [9, 1, 8, 2])  # two are
def test_estimator_weights_reach_the_brute_force_minimum(seed, raw):
    dm, _, _, _ = random_nonlocal_222(random.Random(seed))
    probs = tuple(F(r, sum(raw)) for r in raw)
    settings = bp.SettingsDistribution(bp.SCENARIO_222, probs)
    weights = bp.estimator_weights(dm, settings)
    quadratic = bp.estimator_quadratic(dm, settings)
    minimum = _brute_force_minimum(quadratic.matrix) / quadratic.scale
    assert quadratic.objective(weights) == minimum
    assert bp.estimator_objective(dm, settings, weights) == minimum
    assert all(w >= 0 for w in weights) and sum(weights) == 1


def _gram_plus_diagonal(rows, diagonal):
    return tuple(
        tuple(sum(r[i] * r[j] for r in rows) + (d if i == j else 0) for j in range(8))
        for i, d in enumerate(diagonal)
    )


_SCALED_ENTRIES = st.tuples(
    st.integers(min_value=-10, max_value=10), st.sampled_from((1, 1, 10))
).map(lambda t: t[0] * t[1])


@hyp_settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.lists(_SCALED_ENTRIES, min_size=8, max_size=8), min_size=1, max_size=8
    ),
    st.lists(st.sampled_from((1, 5, 50, 500)), min_size=8, max_size=8),
)
@example(  # a weight fixed at 0 on the way must be released again
    [[30, -50, -5, -3, -5, -5, 60, 10], [7, 4, 6, 8, 1, -5, 40, 6],
     [5, 50, 6, 4, 10, 70, 4, -3], [-50, -2, -1, 60, 60, 100, 8, -10],
     [-4, 6, 9, 0, -10, -7, 80, -9], [8, -70, -6, -3, -9, -9, 1, -5],
     [-10, -7, -10, -10, -2, -50, -50, -10]],
    [1, 5, 5, 1, 1, 50, 1, 50],
)
@example(  # the ratio test must take the first weight to reach 0
    [[6, 60, -4, 90, -60, 10, -1, -3], [7, 6, -9, -70, 2, -4, 1, 0],
     [1, 5, -1, -60, 40, -4, 0, -7], [5, 1, 1, -6, -20, 10, 20, 0],
     [90, 80, 0, 20, 100, -10, 90, -8], [-1, 5, -2, 4, -8, 0, -6, -7],
     [-5, -80, 10, -100, 0, 9, 7, 50]],
    [5, 50, 50, 5, 500, 1, 5, 5],
)
def test_active_set_method_reaches_the_brute_force_minimum(rows, diagonal):
    # Any positive definite integer matrix, beyond those the estimator
    # builds, whose optima rarely leave the first face or two.
    matrix = _gram_plus_diagonal(rows, diagonal)
    quadratic = bp.EstimatorQuadratic(bp.chsh_symmetry(1), matrix, 1)
    weights = quadratic.minimize()
    assert all(w >= 0 for w in weights) and sum(weights) == 1
    assert quadratic.objective(weights) == _brute_force_minimum(matrix)


def test_estimator_weights_meet_the_kkt_conditions_on_the_published_table(
    empirical_path,
):
    # The three weights near 2e-5 are the exact optimum, not zeros that
    # an iterative method stopped short of.
    from bellpoly import cli

    dm, _, _ = cli._load_member(str(empirical_path))
    settings = bp.SettingsDistribution.uniform(bp.SCENARIO_222)
    quadratic = bp.estimator_quadratic(dm, settings)
    weights = quadratic.minimize()
    gradient = [
        sum(m * w for m, w in zip(row, weights)) for row in quadratic.matrix
    ]
    assert all(w > 0 for w in weights)
    assert sum(weights) == 1
    assert len(set(gradient)) == 1
    small = sorted(weights)[:3]
    assert all(F(1, 10**5) < w < F(3, 10**5) for w in small)
