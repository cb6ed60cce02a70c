"""Chained-scenario boxes: catalogs, mismatch counting and replacement,
domino merging, the chained functional, and the tightness witness."""

import random
from fractions import Fraction

import pytest

import bellpoly as bp
import oracles
from bellpoly import NotApplicableError, PreconditionError
from conftest import (
    random_chained_mixture,
    random_gpr,
    random_nonlocal_222,
    rational_weights,
)

F = Fraction

SCENARIO_3 = bp.Scenario(3)

# The canonical box at n=2 anticorrelates only the a1b2 row, and its eight
# one-support-mismatch boxes are exactly the deterministic boxes saturating
# that symmetry's inequality.
CANONICAL_222_ROW_TYPES = ("C", "C", "C", "A")
CANONICAL_222_INDEX = 5

# One-support mismatches of the first nonlocal box, keyed by the storage row
# and the replacement outcome written into it.
PR1_MISMATCH_CELLS = {
    (0, "+0"): 14,
    (0, "0+"): 15,
    (1, "+0"): 12,
    (1, "0+"): 9,
    (2, "++"): 1,
    (2, "00"): 4,
    (3, "+0"): 5,
    (3, "0+"): 8,
}


def uniform_matrix(scenario):
    quarter = (F(1, 4),) * 4
    return bp.DistributionMatrix(scenario, (quarter,) * scenario.num_rows)


# ---------------------------------------------------------------------------
# Catalogs
# ---------------------------------------------------------------------------


def test_gpr_catalog_sizes():
    assert len(bp.enumerate_gprs(bp.SCENARIO_222)) == 8
    assert len(bp.enumerate_gprs(SCENARIO_3)) == 32
    assert len(bp.enumerate_gprs(bp.Scenario(4))) == 128


def test_ld_catalog_sizes():
    assert len(bp.enumerate_lds(bp.SCENARIO_222)) == 16
    assert len(bp.enumerate_lds(SCENARIO_3)) == 64
    assert len(bp.enumerate_lds(bp.Scenario(4))) == 256


def test_gpr_catalog_entries_are_valid_members():
    for g in bp.enumerate_gprs(SCENARIO_3):
        assert g.scenario == SCENARIO_3
        assert bp.validate(bp.as_matrix(g)) == []
        # every row is all-correlated or all-anticorrelated
        assert set(g.row_types) <= {"C", "A"}


def test_gpr_catalog_has_odd_anticorrelated_rows():
    for g in bp.enumerate_gprs(SCENARIO_3):
        assert g.row_types.count("A") % 2 == 1


def test_gpr_catalog_matches_222_boxes():
    chained = {bp.as_matrix(g).entries for g in bp.enumerate_gprs(bp.SCENARIO_222)}
    referenced = {bp.as_matrix(bp.pr_box(k)).entries for k in range(1, 9)}
    assert chained == referenced


def test_canonical_gpr():
    g2 = bp.canonical_gpr(bp.SCENARIO_222)
    assert g2.row_types == CANONICAL_222_ROW_TYPES
    assert bp.pr_index_of(bp.as_matrix(g2)) == CANONICAL_222_INDEX
    for n in (3, 4, 5):
        gn = bp.canonical_gpr(bp.Scenario(n))
        assert gn.row_types == ("C",) * (2 * n - 1) + ("A",)


# ---------------------------------------------------------------------------
# Support mismatches
# ---------------------------------------------------------------------------


def test_mismatch_counts_are_odd_at_n2():
    for g in bp.enumerate_gprs(bp.SCENARIO_222):
        for d in bp.enumerate_lds(bp.SCENARIO_222):
            assert bp.support_mismatch_count(g, d) % 2 == 1


def test_mismatch_counts_are_odd_for_canonical_n3():
    g = bp.canonical_gpr(SCENARIO_3)
    counts = [bp.support_mismatch_count(g, d) for d in bp.enumerate_lds(SCENARIO_3)]
    assert all(c % 2 == 1 for c in counts)
    assert min(counts) == 1


def test_one_support_mismatches_of_pr1():
    mapping = bp.one_support_mismatches(bp.pr_box(1))
    assert {
        (cell.row, cell.outcome): bp.ld_index_of(bp.as_matrix(d))
        for cell, d in mapping.items()
    } == PR1_MISMATCH_CELLS


def test_one_support_mismatches_of_canonical_saturate_its_symmetry():
    mapping = bp.one_support_mismatches(bp.canonical_gpr(bp.SCENARIO_222))
    indices = {bp.ld_index_of(bp.as_matrix(d)) for d in mapping.values()}
    assert indices == bp.chsh_symmetry(CANONICAL_222_INDEX).saturating_set


def test_one_support_mismatches_is_the_count_one_set():
    for scenario in (bp.SCENARIO_222, SCENARIO_3):
        g = bp.canonical_gpr(scenario)
        mapping = bp.one_support_mismatches(g)
        listed = {bp.as_matrix(d).entries for d in mapping.values()}
        brute = {
            bp.as_matrix(d).entries
            for d in bp.enumerate_lds(scenario)
            if bp.support_mismatch_count(g, d) == 1
        }
        assert listed == brute
        for cell, d in mapping.items():
            column = bp.COLUMNS.index(cell.outcome)
            assert bp.as_matrix(d).cell(cell.row, column) == 1


# ---------------------------------------------------------------------------
# Mismatch replacement
# ---------------------------------------------------------------------------


def test_mismatch_replacement_matches_cast_out_table_at_n2():
    for d in range(1, 17):
        if d in bp.chsh_symmetry(1).saturating_set:
            continue
        outputs = bp.mismatch_replacement(bp.pr_box(1), bp.ld_box(d))
        produced = sorted(bp.ld_index_of(bp.as_matrix(o)) for o in outputs)
        assert tuple(produced) == tuple(sorted(bp.castout_replacement(d)))


def test_mismatch_replacement_identity_at_n2():
    g = bp.pr_box(1)
    for d in (2, 3, 6, 7, 10, 11, 13, 16):
        outputs = bp.mismatch_replacement(g, bp.ld_box(d))
        assert len(outputs) == 3
        lhs = bp.mix([(g, F(2, 3)), (bp.ld_box(d), F(1, 3))])
        rhs = bp.mix([(o, F(1, 3)) for o in outputs])
        assert lhs.entries == rhs.entries


def test_mismatch_replacement_rejects_single_mismatch_boxes():
    with pytest.raises(PreconditionError, match="single mismatch"):
        bp.mismatch_replacement(bp.pr_box(1), bp.ld_box(1))


def test_mismatch_replacement_count_five():
    scenario = bp.Scenario(4)
    g = bp.canonical_gpr(scenario)
    d = next(
        box
        for box in bp.enumerate_lds(scenario)
        if bp.support_mismatch_count(g, box) == 5
    )
    outputs = bp.mismatch_replacement(g, d)
    assert len(outputs) == 5
    assert all(bp.support_mismatch_count(g, o) == 1 for o in outputs)
    lhs = bp.mix([(g, F(4, 5)), (d, F(1, 5))])
    rhs = bp.mix([(o, F(1, 5)) for o in outputs])
    assert lhs.entries == rhs.entries


def test_mismatch_replacement_general_weight_form():
    scenario = SCENARIO_3
    g = bp.canonical_gpr(scenario)
    for d in bp.enumerate_lds(scenario):
        count = bp.support_mismatch_count(g, d)
        if count == 1:
            continue
        outputs = bp.mismatch_replacement(g, d)
        assert len(outputs) == count
        lhs = bp.mix([(g, F(count - 1, count)), (d, F(1, count))])
        rhs = bp.mix([(o, F(1, count)) for o in outputs])
        assert lhs.entries == rhs.entries


def _mismatch_cells(g, box):
    """The cells where ``box`` weights ``g``'s zero region, row-major,
    from the oracle's cell tables."""
    box_cells, g_cells = oracles.box_cells(box), oracles.box_cells(g)
    return [
        (r, c)
        for r, row in enumerate(box_cells)
        for c, v in enumerate(row)
        if v and not g_cells[r][c]
    ]


def _check_companions_at_mismatch_cells(g, d):
    cells = _mismatch_cells(g, d)
    outputs = bp.mismatch_replacement(g, d)
    # Output k is the one-mismatch box whose mismatch is d's k-th cell.
    assert [_mismatch_cells(g, o) for o in outputs] == [[cell] for cell in cells]
    companions = bp.one_support_mismatches(g)
    assert outputs == tuple(
        companions[bp.MismatchCell(r, bp.COLUMNS[c])] for r, c in cells
    )


@pytest.mark.parametrize("n", [2, 3])
def test_mismatch_replacement_is_the_companions_in_row_order(n):
    scenario = bp.Scenario(n)
    gprs, lds = bp.enumerate_gprs(scenario), bp.enumerate_lds(scenario)
    checked = 0
    for g in gprs:
        for d in lds:
            if bp.support_mismatch_count(g, d) >= 3:
                _check_companions_at_mismatch_cells(g, d)
                checked += 1
    # Every box but g's 4n companions has at least 3 mismatches.
    assert checked == len(gprs) * (len(lds) - 4 * n)


def test_mismatch_replacement_is_the_companions_on_n4_samples():
    scenario = bp.Scenario(4)
    gprs, lds = bp.enumerate_gprs(scenario), bp.enumerate_lds(scenario)
    rng = random.Random(4)
    checked = 0
    while checked < 200:
        g, d = rng.choice(gprs), rng.choice(lds)
        if bp.support_mismatch_count(g, d) >= 3:
            _check_companions_at_mismatch_cells(g, d)
            checked += 1


@pytest.mark.parametrize("count", [3, 5, 7, 9])
def test_mismatch_replacement_identity_at_n5(count):
    scenario = bp.Scenario(5)
    g = bp.canonical_gpr(scenario)
    d = next(
        box
        for box in bp.enumerate_lds(scenario)
        if bp.support_mismatch_count(g, box) == count
    )
    outputs = bp.mismatch_replacement(g, d)
    assert len(outputs) == count
    lhs = oracles.mix_direct([(d, 1), (g, count - 1)])
    assert oracles.mix_direct([(o, 1) for o in outputs]) == lhs


# ---------------------------------------------------------------------------
# Domino merging
# ---------------------------------------------------------------------------


def test_domino_merge_worked_example():
    ga = bp.GeneralizedPRBox(SCENARIO_3, ("C", "C", "C", "C", "C", "A"))
    gb = bp.GeneralizedPRBox(SCENARIO_3, ("C", "A", "A", "C", "A", "C"))
    outputs = bp.domino_merge(ga, gb)
    assert [("".join(d.a_assign), "".join(d.b_assign)) for d in outputs] == [
        ("+++", "+++"),
        ("0+0", "00+"),
        ("+0+", "++0"),
        ("000", "000"),
    ]


def test_domino_merge_identity_for_all_pairs_at_n2():
    gprs = bp.enumerate_gprs(bp.SCENARIO_222)
    for i in range(len(gprs)):
        for j in range(i + 1, len(gprs)):
            outputs = bp.domino_merge(gprs[i], gprs[j])
            assert len(outputs) == 4
            lhs = bp.mix([(gprs[i], F(1, 2)), (gprs[j], F(1, 2))])
            rhs = bp.mix([(o, F(1, 4)) for o in outputs])
            assert lhs.entries == rhs.entries


def test_domino_merge_agrees_with_pair_replacement_at_n2():
    gprs = {
        bp.pr_index_of(bp.as_matrix(g)): g for g in bp.enumerate_gprs(bp.SCENARIO_222)
    }
    for k in range(2, 9):
        outputs = bp.domino_merge(gprs[1], gprs[k])
        produced = sorted(bp.ld_index_of(bp.as_matrix(o)) for o in outputs)
        expected = sorted(bp.pair_replacement(1, k))
        assert produced == expected


def test_domino_merge_sampled_pairs_at_n3(rng):
    gprs = bp.enumerate_gprs(SCENARIO_3)
    for _ in range(40):
        i, j = rng.sample(range(len(gprs)), 2)
        outputs = bp.domino_merge(gprs[i], gprs[j])
        assert len(outputs) == 4
        lhs = bp.mix([(gprs[i], F(1, 2)), (gprs[j], F(1, 2))])
        rhs = bp.mix([(o, F(1, 4)) for o in outputs])
        assert lhs.entries == rhs.entries


def test_domino_merge_rejects_identical_boxes():
    g = bp.canonical_gpr(SCENARIO_3)
    with pytest.raises(PreconditionError, match="distinct"):
        bp.domino_merge(g, g)


def test_domino_merge_rejects_mixed_scenarios():
    with pytest.raises(PreconditionError):
        bp.domino_merge(bp.canonical_gpr(SCENARIO_3), bp.canonical_gpr(bp.SCENARIO_222))


# ---------------------------------------------------------------------------
# The chained functional
# ---------------------------------------------------------------------------


def test_chained_value_reference_points():
    g3 = bp.canonical_gpr(SCENARIO_3)
    assert bp.chained_value(bp.as_matrix(g3), g3) == 0
    all_plus = next(
        d
        for d in bp.enumerate_lds(SCENARIO_3)
        if set(d.a_assign) == {"+"} and set(d.b_assign) == {"+"}
    )
    assert bp.chained_value(bp.as_matrix(all_plus), g3) == 1


def test_chained_value_of_deterministic_boxes_counts_mismatches():
    for g in bp.enumerate_gprs(bp.SCENARIO_222):
        for d in bp.enumerate_lds(bp.SCENARIO_222):
            value = bp.chained_value(bp.as_matrix(d), g)
            assert value == bp.support_mismatch_count(g, d)


def test_chained_value_is_affine_in_mixtures(rng):
    for _ in range(25):
        dm, g, g_weight, cell_weights = random_chained_mixture(rng, SCENARIO_3)
        assert bp.chained_value(dm, g) == 1 - g_weight
        assert sum(cell_weights.values()) == 1 - g_weight


def test_chained_value_rejects_mismatched_scenarios():
    with pytest.raises(PreconditionError):
        bp.chained_value(
            bp.as_matrix(bp.pr_box(1)), bp.canonical_gpr(SCENARIO_3)
        )


def test_uniform_matrix_value_and_locality():
    u = uniform_matrix(SCENARIO_3)
    assert bp.is_local_chained(u)
    assert bp.identify_gpr(u) is None


# ---------------------------------------------------------------------------
# Identification and decomposition
# ---------------------------------------------------------------------------


def test_identify_gpr_on_known_mixtures(rng):
    for scenario in (bp.SCENARIO_222, SCENARIO_3, bp.Scenario(4)):
        for _ in range(10):
            dm, g, _, _ = random_chained_mixture(rng, scenario)
            found = bp.identify_gpr(dm)
            assert found is not None
            assert found.row_types == g.row_types


def test_identify_gpr_on_catalog_boxes():
    for g in bp.enumerate_gprs(SCENARIO_3):
        found = bp.identify_gpr(bp.as_matrix(g))
        assert found is not None and found.row_types == g.row_types
    for d in bp.enumerate_lds(SCENARIO_3)[:8]:
        assert bp.identify_gpr(bp.as_matrix(d)) is None


def _identification_cases(rng, scenario):
    """Seeded nonlocal and local mixtures, then facet points whose least
    chained value is exactly 1: the uniform mixture of a box's 4n
    one-mismatch companions, and 2/3 of a box with 1/3 of a deterministic
    box that has three mismatches against it."""
    lds = bp.enumerate_lds(scenario)
    for _ in range(4):
        yield random_chained_mixture(rng, scenario)[0]
    for _ in range(3):
        chosen = rng.sample(lds, rng.randint(2, 6))
        weights = rational_weights(rng, len(chosen))
        yield bp.mix([(d, w) for d, w in zip(chosen, weights) if w])
    for _ in range(2):
        g = random_gpr(rng, scenario)
        companions = bp.one_support_mismatches(g).values()
        yield bp.mix([(d, F(1, len(companions))) for d in companions])
        three = [d for d in lds if bp.support_mismatch_count(g, d) == 3]
        yield bp.mix([(g, F(2, 3)), (rng.choice(three), F(1, 3))])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_identify_gpr_agrees_with_the_brute_force_minimum(rng, n):
    ties = 0
    for dm in _identification_cases(rng, bp.Scenario(n)):
        least, reaching = oracles.chained_minimum(dm)
        found = bp.identify_gpr(dm)
        if least < 1:
            assert reaching == ["".join(found.row_types)]
        else:
            assert found is None
            ties += least == 1
    assert ties >= 4  # the facet points; a local mixture may tie too


def test_decompose_chained_recovers_exact_construction(rng):
    for scenario in (bp.SCENARIO_222, SCENARIO_3, bp.Scenario(4)):
        for _ in range(15):
            dm, g, g_weight, cell_weights = random_chained_mixture(rng, scenario)
            dec = bp.decompose_chained(dm)
            box, weight = dec.pr_term
            assert box.row_types == g.row_types
            assert weight == g_weight
            cell_of = {
                bp.as_matrix(d).entries: cell
                for cell, d in bp.one_support_mismatches(g).items()
            }
            recovered = {
                cell_of[bp.as_matrix(d).entries]: w for d, w in dec.ld_terms
            }
            assert recovered == cell_weights
            assert dec.mixture().entries == dm.entries


def test_decompose_chained_matches_222_decomposition(rng):
    for _ in range(20):
        dm, _, _, _ = random_nonlocal_222(rng)
        chained = bp.decompose_chained(dm)
        square = bp.decompose_222(dm)
        assert (
            bp.as_matrix(chained.pr_term[0]).entries
            == bp.as_matrix(square.pr_term[0]).entries
        )
        assert chained.pr_weight == square.pr_weight
        as_indexed = lambda terms: sorted(
            (bp.ld_index_of(bp.as_matrix(d)), w) for d, w in terms
        )
        assert as_indexed(chained.ld_terms) == as_indexed(square.ld_terms)


def test_decompose_chained_rejects_local_matrices():
    with pytest.raises(NotApplicableError, match="local"):
        bp.decompose_chained(bp.as_matrix(bp.ld_box(1)))


def test_equal_gpr_pair_mixtures_are_local():
    gprs = bp.enumerate_gprs(SCENARIO_3)
    half = bp.mix([(gprs[0], F(1, 2)), (gprs[5], F(1, 2))])
    assert bp.is_local_chained(half)
    with pytest.raises(NotApplicableError):
        bp.decompose_chained(half)


def test_is_local_chained_classifies_catalogs():
    for d in bp.enumerate_lds(SCENARIO_3)[:8]:
        assert bp.is_local_chained(bp.as_matrix(d))
    for g in bp.enumerate_gprs(SCENARIO_3)[:8]:
        assert not bp.is_local_chained(bp.as_matrix(g))


# ---------------------------------------------------------------------------
# Tightness witness
# ---------------------------------------------------------------------------


def test_tightness_witness_on_known_mixtures(rng):
    for scenario in (bp.SCENARIO_222, SCENARIO_3):
        for _ in range(15):
            dm, g, g_weight, _ = random_chained_mixture(rng, scenario)
            local_weight, witness = bp.tightness_witness(dm)
            assert local_weight == 1 - g_weight
            assert local_weight == witness.local_weight
            assert local_weight == bp.chained_value(dm, bp.identify_gpr(dm))
            assert witness.mixture().entries == dm.entries


def test_tightness_witness_on_catalog_boxes():
    g = bp.canonical_gpr(SCENARIO_3)
    local_weight, witness = bp.tightness_witness(bp.as_matrix(g))
    assert local_weight == 0
    assert witness.ld_terms == ()


def test_tightness_witness_rejects_local_matrices():
    with pytest.raises(NotApplicableError, match="local"):
        bp.tightness_witness(bp.as_matrix(bp.ld_box(4)))
