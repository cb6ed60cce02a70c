"""Scenarios, boxes, catalogs, mixing, validation, outcome flips, saturating sets."""

from fractions import Fraction

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

import bellpoly as bp
from bellpoly import (
    NormalizationError,
    PreconditionError,
    ShapeError,
    chained,
    core,
)
from conftest import DENOMINATORS, rational_tables, scenario_vertices
import oracles

F = Fraction

# The 24 extremal boxes, frozen as data independent of the enumeration
# code: nonlocal boxes by their correlated/anticorrelated row pattern in
# storage row order (a1b1, a2b1, a2b2, a1b2), local deterministic boxes
# by their outcome assignments (a, a', b, b').
FROZEN_PR_ROW_TYPES = {
    1: "CCAC",
    2: "AACA",
    3: "CACC",
    4: "ACAA",
    5: "CCCA",
    6: "AAAC",
    7: "ACCC",
    8: "CAAA",
}

FROZEN_LD_ASSIGNMENTS = {
    1: "++++",
    2: "++00",
    3: "00++",
    4: "0000",
    5: "+++0",
    6: "++0+",
    7: "00+0",
    8: "000+",
    9: "+0++",
    10: "+000",
    11: "0+++",
    12: "0+00",
    13: "+0+0",
    14: "+00+",
    15: "0++0",
    16: "0+0+",
}

CORRELATED = (F(1, 2), F(0), F(0), F(1, 2))
ANTICORRELATED = (F(0), F(1, 2), F(1, 2), F(0))


# ---------------------------------------------------------------------------
# Scenario geometry
# ---------------------------------------------------------------------------


def test_scenario_222_row_geometry():
    s = bp.SCENARIO_222
    assert s.n == 2
    assert s.num_rows == 4
    assert s.num_cells == 16
    assert s.row_labels() == ("a1b1", "a2b1", "a2b2", "a1b2")


def test_scenario_chained_row_order_walks_settings_cyclically():
    s = bp.Scenario(3)
    assert s.num_rows == 6
    assert s.row_labels() == ("a1b1", "a2b1", "a2b2", "a3b2", "a3b3", "a1b3")
    for i, (x, y) in enumerate(s.setting_pairs()):
        assert s.row_index(x, y) == i


def test_scenario_rejects_degenerate_size():
    with pytest.raises(ShapeError):
        bp.Scenario(1)


def test_setting_pairs_match_labels():
    s = bp.Scenario(3)
    pairs = s.setting_pairs()
    assert pairs[0] == (1, 1)
    assert pairs[-1] == (1, 3)
    assert len(pairs) == 6


# ---------------------------------------------------------------------------
# Rational parsing
# ---------------------------------------------------------------------------


def test_as_fraction_reads_decimal_strings_exactly():
    assert bp.as_fraction("0.1") == F(1, 10)
    assert bp.as_fraction("7.43e-05") == F(743, 10_000_000)
    assert bp.as_fraction("1/3") == F(1, 3)
    assert bp.as_fraction(3) == 3
    assert bp.as_fraction(F(2, 7)) == F(2, 7)


def test_as_fraction_rejects_garbage():
    with pytest.raises(ShapeError):
        bp.as_fraction("one half")


# ---------------------------------------------------------------------------
# Matrix construction and validation
# ---------------------------------------------------------------------------


def test_matrix_constructor_checks_shape_only():
    rows = [[F(1, 4)] * 4] * 4
    dm = bp.matrix_222(rows)
    assert dm.cell(0, 0) == F(1, 4)
    # negative entries pass construction and are caught by validate
    bad = bp.matrix_222(
        [[F(1, 2), F(1, 2), F(1, 2), F(-1, 2)]] + [[F(1, 4)] * 4] * 3
    )
    kinds = {v.constraint for v in bp.validate(bad)}
    assert "nonnegativity" in kinds


def test_matrix_constructor_rejects_wrong_shape():
    with pytest.raises(ShapeError):
        bp.matrix_222([[F(1, 4)] * 4] * 3)
    with pytest.raises(ShapeError):
        bp.matrix_222([[F(1, 4)] * 3] * 4)


def test_matrix_constructor_freezes_rows_to_fraction_tuples():
    dm = bp.DistributionMatrix(
        bp.SCENARIO_222, [["1/2", 0, 0, "0.5"], [1, 0, 0, 0], (0, 1, 0, 0), [F(1, 4)] * 4]
    )
    assert type(dm.entries) is tuple
    assert all(type(row) is tuple for row in dm.entries)
    assert all(type(v) is F for row in dm.entries for v in row)
    assert dm.entries[0] == (F(1, 2), F(0), F(0), F(1, 2))
    frozen = (F(1, 3), F(1, 6), F(1, 6), F(1, 3))
    again = bp.DistributionMatrix(bp.SCENARIO_222, [frozen, frozen, list(frozen), frozen])
    assert again.entries[0] is frozen and again.entries[2] is not frozen
    assert again.entries[2] == frozen


def test_deterministic_boxes_share_their_unit_rows():
    assert [row.index(1) for row in bp.UNIT_ROWS] == [0, 1, 2, 3]
    assert all(sorted(row) == [0, 0, 0, 1] for row in bp.UNIT_ROWS)
    for scenario in (bp.SCENARIO_222, bp.Scenario(3)):
        for box in bp.enumerate_lds(scenario):
            for (i, j), row in zip(scenario.setting_pairs(), box.matrix().entries):
                assert row is bp.UNIT_ROWS[box.outcome_column(i, j)]


def test_validate_passes_every_catalog_box():
    for k in range(1, 9):
        assert bp.validate(bp.as_matrix(bp.pr_box(k))) == []
    for i in range(1, 17):
        assert bp.validate(bp.as_matrix(bp.ld_box(i))) == []


def test_validate_reports_normalization_residual():
    rows = [[F(1, 4)] * 4] * 3 + [[F(1, 4), F(1, 4), F(1, 4), F(1, 2)]]
    violations = bp.validate(bp.matrix_222(rows))
    assert any(
        v.constraint == "normalization" and v.residual == F(1, 4)
        for v in violations
    )


def test_validate_reports_signaling_between_rows():
    # Alice answers "+" on a1 when Bob measures b1 but "0" when he
    # measures b2: her marginal depends on his setting
    rows = [
        [F(1), F(0), F(0), F(0)],
        [F(1), F(0), F(0), F(0)],
        [F(1), F(0), F(0), F(0)],
        [F(0), F(0), F(0), F(1)],
    ]
    violations = bp.validate(bp.matrix_222(rows))
    assert violations, "marginal mismatch must be reported"
    assert all(v.constraint == "no-signaling" for v in violations)
    locations = {v.location for v in violations}
    assert any("a1" in loc or "b1" in loc or "b2" in loc for loc in locations)


def test_validate_empirical_table_reports_two_tiny_violations(empirical_document):
    dm, _ = bp.loads_distribution(empirical_document)
    violations = bp.validate(dm)
    assert [(v.constraint, v.location, v.residual) for v in violations] == [
        ("normalization", "row a2b1", F(-1, 10_000_000)),
        (
            "no-signaling",
            "bob setting b1 between rows a1b1 and a2b1",
            F(1, 10_000_000),
        ),
    ]


def test_validate_reports_every_kind_of_violation_in_table_order():
    scenario = bp.Scenario(3)
    rows = [list(row) for row in bp.as_matrix(bp.canonical_gpr(scenario)).entries]
    rows[0][1] = F(-1, 10)
    rows[2][0] = F(9, 14)
    violations = bp.validate(bp.DistributionMatrix(scenario, rows))
    assert [(v.constraint, v.location, v.residual) for v in violations] == [
        ("nonnegativity", "cell (a1b1, +0)", F(-1, 10)),
        ("normalization", "row a1b1", F(-1, 10)),
        ("normalization", "row a2b2", F(1, 7)),
        ("no-signaling", "alice setting a1 between rows a1b1 and a1b3", F(-1, 10)),
        ("no-signaling", "alice setting a2 between rows a2b1 and a2b2", F(-1, 7)),
        ("no-signaling", "bob setting b2 between rows a2b2 and a3b2", F(1, 7)),
    ]


@hyp_settings(deadline=None)
@given(st.data())
def test_validate_matches_the_fraction_reference(data):
    n = data.draw(st.integers(2, 5), label="n")
    kind = data.draw(st.sampled_from(["member", "perturbed", "arbitrary"]), label="kind")
    if kind == "arbitrary":
        cell = st.builds(F, st.integers(-(10**6), 10**6), DENOMINATORS)
        rows = data.draw(st.lists(st.lists(cell, min_size=4, max_size=4),
                                  min_size=2 * n, max_size=2 * n))
    else:
        weights = data.draw(st.lists(st.builds(F, st.integers(1, 10**6), DENOMINATORS),
                                     min_size=1, max_size=4))
        boxes = data.draw(st.lists(st.sampled_from(scenario_vertices(n)),
                                   min_size=len(weights), max_size=len(weights)))
        member = bp.mix(zip(boxes, [w / sum(weights) for w in weights]))
        assert bp.validate(member) == []
        rows = [list(row) for row in member.entries]
    if kind == "perturbed":
        # residuals of both signs, and negative cells where a zero moves down
        for _ in range(data.draw(st.integers(1, 4))):
            r, c = data.draw(st.integers(0, 2 * n - 1)), data.draw(st.integers(0, 3))
            rows[r][c] += data.draw(st.builds(F, st.integers(-(10**6), 10**6), DENOMINATORS))
    dm = bp.DistributionMatrix(bp.Scenario(n), rows)
    expected = oracles.validate_direct(dm)
    assert [(v.constraint, v.residual) for v in bp.validate(dm)] == expected
    if kind == "member":
        assert expected == []


def test_require_member_names_the_failing_constraint():
    bad = bp.matrix_222([[F(1, 2)] * 4] * 4)
    with pytest.raises(PreconditionError, match="normalization"):
        bp.require_member(bad)


_PR1 = bp.as_matrix(bp.pr_box(1))
_LOCAL_TERMS = [(bp.ld_box(1), F(1, 3)), (bp.ld_box(16), F(2, 3))]
_UNIFORM = bp.SettingsDistribution.uniform(bp.SCENARIO_222)
# Each public call that needs a polytope member, as a function of the
# matrix under test.
_MEMBER_CALLS = {
    "violated_symmetry": bp.violated_symmetry,
    "decompose_222": bp.decompose_222,
    "decompose_local_222": bp.decompose_local_222,
    "tv_closest_local": bp.tv_closest_local,
    "kl_closest_local": lambda dm: bp.kl_closest_local(dm, _UNIFORM),
    # A fresh local matrix per call: identify_gpr keeps its answer on the
    # matrix, so a shared one would be checked by the first test only.
    "face_projection(q)": lambda dm: bp.face_projection(dm, bp.mix(_LOCAL_TERMS)),
    "face_projection(s_local)": lambda dm: bp.face_projection(_PR1, dm),
    "critical_efficiency": bp.critical_efficiency,
    "critical_efficiency_exact": bp.critical_efficiency_exact,
    "estimator_weights": lambda dm: bp.estimator_weights(dm, _UNIFORM),
    "identify_gpr": bp.identify_gpr,
    "decompose_chained": bp.decompose_chained,
    "tightness_witness": bp.tightness_witness,
    "is_extremal": bp.is_extremal,
}
_NON_MEMBERS = {
    "unnormalized": bp.matrix_222([[F(1, 2)] * 4] * 4),
    # Alice's a1 marginal depends on Bob's setting.
    "signaling": bp.matrix_222(
        [[F(1), F(0), F(0), F(0)]] * 3 + [[F(0), F(0), F(0), F(1)]]
    ),
    "negative": bp.matrix_222(
        [[F(1, 2), F(1, 2), F(1, 2), F(-1, 2)]] + [[F(1, 4)] * 4] * 3
    ),
}


@pytest.mark.parametrize("bad", _NON_MEMBERS.values(), ids=_NON_MEMBERS.keys())
@pytest.mark.parametrize("call", _MEMBER_CALLS.values(), ids=_MEMBER_CALLS.keys())
def test_member_operations_reject_non_members(call, bad):
    with pytest.raises(PreconditionError, match="no-signaling distribution matrix"):
        call(bad)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "name, validations",
    [
        ("violated_symmetry", 1),
        ("decompose_222", 1),
        ("tv_closest_local", 1),
        ("kl_closest_local", 1),
        ("critical_efficiency_exact", 1),
        ("estimator_weights", 1),
        ("face_projection(q)", 2),
    ],
)
def test_each_public_call_checks_membership_once_per_matrix(
    monkeypatch, name, validations
):
    calls = _count_calls(monkeypatch, core, "validate")
    saturating = bp.ld_box(min(bp.SATURATING_SET_1))
    _MEMBER_CALLS[name](bp.mix([(_PR1, F(3, 5)), (saturating, F(2, 5))]))
    assert len(calls) == validations


def _chained_member(n=3):
    g = bp.canonical_gpr(bp.Scenario(n))
    companions = list(bp.one_support_mismatches(g).values())
    return bp.mix([(g, F(1, 3))] + [(d, F(2, 3 * len(companions))) for d in companions])


def test_one_identification_serves_every_call_on_a_matrix(monkeypatch):
    validations = _count_calls(monkeypatch, core, "validate")
    values = _count_calls(monkeypatch, chained, "chained_value")
    dm = _chained_member()
    g = bp.identify_gpr(dm)
    assert bp.decompose_chained(dm).pr_term[0] is g
    assert bp.tightness_witness(dm)[0] == F(2, 3)
    assert bp.critical_efficiency_exact(dm) is not None
    assert bp.identify_gpr(dm) is g
    assert len(validations) == 1
    # One scan, plus tightness_witness's own check of the box's value.
    assert len(values) == len(bp.enumerate_gprs(dm.scenario)) + 1


def test_identification_keeps_local_answers(monkeypatch):
    validations = _count_calls(monkeypatch, core, "validate")
    dm = bp.mix([(bp.ld_box(1), F(1, 2)), (bp.ld_box(4), F(1, 2))])
    assert bp.identify_gpr(dm) is None
    assert bp.critical_efficiency_exact(dm) is None
    with pytest.raises(bp.NotApplicableError):
        bp.decompose_chained(dm)
    assert len(validations) == 1


def test_identification_of_a_non_member_fails_on_every_call(monkeypatch):
    validations = _count_calls(monkeypatch, core, "validate")
    bad = _NON_MEMBERS["signaling"]
    for call in (bp.identify_gpr, bp.identify_gpr, bp.decompose_chained):
        with pytest.raises(PreconditionError, match="no-signaling distribution matrix"):
            call(bad)
    assert len(validations) == 3


def test_identification_never_keeps_an_invariant_failure(monkeypatch):
    dm = _chained_member()
    monkeypatch.setattr(chained, "chained_value", lambda dm, g: F(0))
    for _ in range(2):
        with pytest.raises(bp.InvariantViolationError, match="nonlocal toward"):
            bp.identify_gpr(dm)
    monkeypatch.undo()
    assert bp.identify_gpr(dm) == bp.canonical_gpr(dm.scenario)


def test_equal_matrices_are_identified_separately(monkeypatch):
    validations = _count_calls(monkeypatch, core, "validate")
    first, second = _chained_member(), _chained_member()
    assert first == second and first is not second
    bp.identify_gpr(first)
    assert first == second
    assert hash(first) == hash(second)
    assert repr(first) == repr(second)
    bp.identify_gpr(second)
    assert len(validations) == 2


@pytest.mark.parametrize("make", [
    lambda: bp.LocalDeterministic(bp.Scenario(3), "+0+", "00+"),
    lambda: bp.canonical_gpr(bp.Scenario(3)),
], ids=["deterministic", "pr"])
def test_a_box_builds_its_matrix_once(make):
    box, twin = make(), make()
    matrix = bp.as_matrix(box)
    assert bp.as_matrix(box) is matrix
    assert box.matrix() is matrix
    assert bp.as_matrix(twin) == matrix and bp.as_matrix(twin) is not matrix
    fresh = make()
    assert box == fresh and hash(box) == hash(fresh) and repr(box) == repr(fresh)
    assert {box: 1}[fresh] == 1


# ---------------------------------------------------------------------------
# Catalogs
# ---------------------------------------------------------------------------


def test_pr_catalog_matches_frozen_row_patterns():
    for k, pattern in FROZEN_PR_ROW_TYPES.items():
        box = bp.pr_box(k)
        assert "".join(box.row_types) == pattern
        matrix = bp.as_matrix(box)
        for row, kind in zip(matrix.entries, pattern):
            assert row == (CORRELATED if kind == "C" else ANTICORRELATED)


def test_each_pr_box_has_exactly_one_odd_row():
    for k in range(1, 9):
        types = bp.pr_box(k).row_types
        assert min(types.count("C"), types.count("A")) == 1


def test_ld_catalog_matches_frozen_assignments():
    for i, pattern in FROZEN_LD_ASSIGNMENTS.items():
        box = bp.ld_box(i)
        assert "".join(box.a_assign) + "".join(box.b_assign) == pattern
        matrix = bp.as_matrix(box)
        # the 1 in each settings row sits where the assignments point
        for label, row in zip(("a1b1", "a2b1", "a2b2", "a1b2"), matrix.entries):
            x = int(label[1]) - 1
            y = int(label[3]) - 1
            outcome = box.a_assign[x] + box.b_assign[y]
            column = ("++", "+0", "0+", "00").index(outcome)
            assert row[column] == 1
            assert sum(row) == 1


def test_catalog_222_is_complete_and_indexable():
    gprs, lds = bp.catalog_222()
    assert len(gprs) == 8
    assert len(lds) == 16
    for k, g in enumerate(gprs, start=1):
        assert bp.pr_index_of(bp.as_matrix(g)) == k
    for i, d in enumerate(lds, start=1):
        assert bp.ld_index_of(bp.as_matrix(d)) == i
    assert bp.pr_index_of(bp.as_matrix(bp.ld_box(1))) is None
    assert bp.ld_index_of(bp.as_matrix(bp.pr_box(1))) is None


def test_ld_equal_outcome_rows_come_in_even_numbers():
    for scenario in (bp.SCENARIO_222, bp.Scenario(3)):
        for d in bp.enumerate_lds(scenario):
            rows = bp.as_matrix(d).entries
            equal_rows = sum(1 for row in rows if row[0] + row[3] == 1)
            assert equal_rows % 2 == 0


def test_gpr_anticorrelated_rows_come_in_odd_numbers():
    for scenario in (bp.SCENARIO_222, bp.Scenario(3)):
        for g in bp.enumerate_gprs(scenario):
            assert g.row_types.count("A") % 2 == 1


# ---------------------------------------------------------------------------
# Mixing
# ---------------------------------------------------------------------------


def test_mix_is_exact_and_order_independent(rng):
    dense = bp.matrix_222([[F(1, 10), F(2, 10), F(3, 10), F(4, 10)]] * 4)
    terms = [
        (bp.pr_box(1), F(1, 3)),
        (bp.ld_box(4), F(1, 6)),
        (bp.ld_box(9), F(1, 4)),
        (bp.ld_box(2), F(0)),
        (bp.pr_box(6), F(1, 7)),
        (dense, F(1, 4) - F(1, 7)),
        (bp.pr_box(3), 0),
    ]
    expected = [
        [sum(w * bp.as_matrix(box).entries[r][c] for box, w in terms) for c in range(4)]
        for r in range(4)
    ]
    forward = bp.mix(terms)
    assert [list(row) for row in forward.entries] == expected
    for _ in range(10):
        shuffled = list(terms)
        rng.shuffle(shuffled)
        assert bp.mix(shuffled).entries == forward.entries
    assert all(type(v) is F for row in forward.entries for v in row)
    assert forward.cell(0, 0) == F(1, 3) / 2 + F(1, 4) + (F(1, 4) - F(1, 7)) / 10


def test_mix_of_mixes_equals_flat_mix():
    inner = bp.mix([(bp.pr_box(1), F(1, 2)), (bp.ld_box(1), F(1, 2))])
    outer = bp.mix([(inner, F(1, 2)), (bp.ld_box(4), F(1, 2))])
    flat = bp.mix(
        [
            (bp.pr_box(1), F(1, 4)),
            (bp.ld_box(1), F(1, 4)),
            (bp.ld_box(4), F(1, 2)),
        ]
    )
    assert outer.entries == flat.entries


def test_mix_rejects_bad_weights():
    with pytest.raises(NormalizationError, match="must sum to 1, got 1/2$"):
        bp.mix([(bp.pr_box(1), F(1, 2))])
    with pytest.raises(NormalizationError, match="must sum to 1, got 5/6$"):
        bp.mix([(bp.pr_box(1), F(1, 2)), (bp.ld_box(1), F(1, 3)), (bp.ld_box(2), 0)])
    with pytest.raises(NormalizationError, match="must be nonnegative"):
        bp.mix([(bp.pr_box(1), F(3, 2)), (bp.ld_box(1), F(-1, 2))])
    with pytest.raises(PreconditionError, match="at least one term"):
        bp.mix([])
    with pytest.raises(ShapeError, match="share one scenario"):
        bp.mix([(bp.pr_box(1), F(1, 2)), (bp.canonical_gpr(bp.Scenario(3)), F(1, 2))])


@given(
    weights=st.lists(
        st.integers(min_value=0, max_value=9), min_size=4, max_size=4
    ).filter(lambda w: sum(w) > 0)
)
@hyp_settings(max_examples=40, deadline=None)
def test_mixtures_of_members_stay_members(weights):
    total = sum(weights)
    boxes = [bp.pr_box(1), bp.ld_box(2), bp.ld_box(7), bp.ld_box(13)]
    dm = bp.mix(
        [(box, F(w, total)) for box, w in zip(boxes, weights) if w > 0]
    )
    assert bp.validate(dm) == []


@st.composite
def _mixtures(draw):
    """Mixture terms at n=2..5: boxes and arbitrary matrices, weights with
    unrelated denominators or normalised from floats (as the KL search
    does), and zero weights as int 0 and as Fraction 0 among them."""
    n = draw(st.integers(2, 5), label="n")
    box = st.sampled_from(scenario_vertices(n))
    terms = draw(st.lists(st.one_of(box, box, rational_tables(n)), min_size=1, max_size=5))
    if draw(st.booleans(), label="float weights"):
        floats = draw(st.lists(st.floats(1e-9, 1.0), min_size=len(terms), max_size=len(terms)))
        raw = [F(v) for v in floats]
    else:
        raw = draw(st.lists(st.builds(F, st.integers(1, 10**6), DENOMINATORS),
                            min_size=len(terms), max_size=len(terms)))
    total = sum(raw)
    pairs = [(t, w / total) for t, w in zip(terms, raw)]
    for _ in range(draw(st.integers(0, 2), label="zero weights")):
        zero = draw(st.sampled_from([0, F(0)]))
        pairs.insert(draw(st.integers(0, len(pairs))), (draw(box), zero))
    return pairs


@hyp_settings(deadline=None)
@given(_mixtures())
def test_mix_matches_the_cell_by_cell_reference(terms):
    mixed = bp.mix(terms)
    assert mixed.entries == oracles.mix_direct(terms)
    assert all(type(v) is F for row in mixed.entries for v in row)


def test_mix_shares_one_zero_among_untouched_cells():
    scenario = bp.Scenario(3)
    boxes = bp.enumerate_lds(scenario)[:3]
    mixed = bp.mix([(boxes[0], F(1, 2)), (boxes[1], F(1, 3)), (boxes[2], F(1, 6))])
    zeros = {id(v) for row in mixed.entries for v in row if v == 0}
    assert len(zeros) == 1


def test_equal_mixture_of_two_prs_matches_four_ld_average(table1):
    left = bp.mix([(bp.pr_box(1), F(1, 2)), (bp.pr_box(6), F(1, 2))])
    right = bp.mix([(bp.ld_box(i), F(1, 4)) for i in (9, 12, 14, 15)])
    assert left.entries == right.entries
    labels = left.scenario.row_labels()
    for label, expected_row in table1.items():
        assert left.entries[labels.index(label)] == expected_row


# ---------------------------------------------------------------------------
# Outcome flips
# ---------------------------------------------------------------------------


def _flip(entries, flips):
    """Entry (r, c) moved to (r, c ^ flips[r])."""
    return tuple(tuple(row[c ^ f] for c in range(4)) for row, f in zip(entries, flips))


def test_relabelings_permute_the_ld_catalog():
    originals = {bp.as_matrix(bp.ld_box(i)).entries for i in range(1, 17)}
    for sym in bp.chsh_symmetries():
        assert {_flip(m, sym.flips) for m in originals} == originals


def test_relabelings_permute_the_pr_catalog():
    originals = {bp.as_matrix(bp.pr_box(k)).entries for k in range(1, 9)}
    for sym in bp.chsh_symmetries():
        assert {_flip(m, sym.flips) for m in originals} == originals


# ---------------------------------------------------------------------------
# Saturating sets
# ---------------------------------------------------------------------------


def test_saturating_sets_follow_the_pullback():
    assert bp.SATURATING_SET_1 == frozenset({1, 4, 5, 8, 9, 12, 14, 15})
    for k in range(1, 9):
        sym = bp.chsh_symmetry(k)
        assert len(sym.saturating_set) == 8
        for i in sym.saturating_set:
            assert bp.chsh_value(bp.as_matrix(bp.ld_box(i)), sym) == 2


# ---------------------------------------------------------------------------
# Row views
# ---------------------------------------------------------------------------


def test_rows_as_222_reorders_storage_to_listing_order():
    pr1 = bp.as_matrix(bp.pr_box(1))
    listing = bp.rows_as_222(pr1)
    # listing order: ab, ab', a'b, a'b' -- the anticorrelated row is last
    assert listing[0] == CORRELATED
    assert listing[1] == CORRELATED
    assert listing[2] == CORRELATED
    assert listing[3] == ANTICORRELATED


def test_row_correlators_on_reference_boxes():
    assert bp.row_correlators(bp.as_matrix(bp.pr_box(1))) == (1, 1, -1, 1)
    assert bp.row_correlators(bp.as_matrix(bp.ld_box(1))) == (1, 1, 1, 1)
    assert bp.row_correlators(bp.as_matrix(bp.ld_box(16))) == (1, -1, 1, -1)
