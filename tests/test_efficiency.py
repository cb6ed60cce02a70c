"""Detection-efficiency maps: undetected outcomes fold into the zero
outcome, and every CHSH violation dies at a computable threshold."""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

import bellpoly as bp
from bellpoly import EfficiencyThreshold, PreconditionError
from conftest import (
    DENOMINATORS,
    random_chained_mixture,
    random_local_222,
    random_nonlocal_222,
    random_nonsignaling_222,
    rational_tables,
    vertex_mixtures,
)
import oracles

F = Fraction

ETA_GRID = [F(k, 12) for k in range(13)]


def symmetric(eta):
    return bp.EfficiencyParams.symmetric(eta)


# ---------------------------------------------------------------------------
# The map itself
# ---------------------------------------------------------------------------


def test_full_efficiency_is_the_identity(rng):
    for _ in range(10):
        dm = random_nonsignaling_222(rng)
        assert bp.apply_efficiency(dm, symmetric(F(1))).entries == dm.entries


def test_zero_efficiency_collapses_to_the_all_zero_box(rng):
    d4 = bp.as_matrix(bp.ld_box(4))
    for _ in range(10):
        dm = random_nonsignaling_222(rng)
        assert bp.apply_efficiency(dm, symmetric(F(0))).entries == d4.entries


def test_efficiency_on_pr1_has_the_four_term_form():
    pr1 = bp.as_matrix(bp.pr_box(1))
    for eta in ETA_GRID:
        expected = bp.mix(
            [
                (bp.pr_box(1), eta * eta),
                (bp.ld_box(2), eta * (1 - eta) / 2),
                (bp.ld_box(3), eta * (1 - eta) / 2),
                (bp.ld_box(4), 1 - eta * eta - eta * (1 - eta)),
            ]
        )
        assert bp.apply_efficiency(pr1, symmetric(eta)).entries == expected.entries


def test_efficiency_on_deterministic_boxes_stays_deterministic():
    catalog = bp.enumerate_lds(bp.SCENARIO_222)

    def with_assignments(a_assign, b_assign):
        return next(
            d for d in catalog if d.a_assign == a_assign and d.b_assign == b_assign
        )

    zeros = ("0", "0")
    for d in (1, 6, 11, 16):
        box = bp.ld_box(d)
        for eta in (F(1, 3), F(3, 4)):
            image = bp.apply_efficiency(bp.as_matrix(box), symmetric(eta))
            expected = bp.mix(
                [
                    (box, eta * eta),
                    (with_assignments(box.a_assign, zeros), eta * (1 - eta)),
                    (with_assignments(zeros, box.b_assign), (1 - eta) * eta),
                    (bp.ld_box(4), (1 - eta) * (1 - eta)),
                ]
            )
            assert image.entries == expected.entries
            assert bp.is_local_222(image)


def test_efficiency_preserves_membership(rng):
    for _ in range(15):
        dm = random_nonsignaling_222(rng)
        eta_a = F(rng.randint(0, 10), 10)
        eta_b = F(rng.randint(0, 10), 10)
        image = bp.apply_efficiency(dm, bp.EfficiencyParams(eta_a, eta_b))
        assert bp.validate(image) == []


def test_efficiency_composes_multiplicatively(rng):
    for _ in range(10):
        dm = random_nonsignaling_222(rng)
        first = bp.EfficiencyParams(F(3, 4), F(2, 3))
        second = bp.EfficiencyParams(F(1, 2), F(5, 6))
        combined = bp.EfficiencyParams(F(3, 8), F(5, 9))
        twice = bp.apply_efficiency(bp.apply_efficiency(dm, first), second)
        once = bp.apply_efficiency(dm, combined)
        assert twice.entries == once.entries


def test_efficiency_is_affine_in_the_input(rng):
    params = bp.EfficiencyParams(F(2, 3), F(4, 5))
    for _ in range(10):
        a = random_nonsignaling_222(rng)
        b = random_nonsignaling_222(rng)
        lam = F(rng.randint(0, 12), 12)
        mixed = bp.mix([(a, lam), (b, 1 - lam)])
        lhs = bp.apply_efficiency(mixed, params)
        rhs = bp.mix(
            [(bp.apply_efficiency(a, params), lam), (bp.apply_efficiency(b, params), 1 - lam)]
        )
        assert lhs.entries == rhs.entries


@st.composite
def _efficiency(draw):
    """0, 1, or a fraction in [0, 1] with a denominator up to 10^40."""
    kind = draw(st.sampled_from(["zero", "one", "fraction"]))
    if kind != "fraction":
        return F(int(kind == "one"))
    denominator = draw(DENOMINATORS)
    return F(draw(st.integers(0, denominator)), denominator)


def _matrices():
    """A member or an arbitrary table at n=2..5."""
    return st.integers(2, 5).flatmap(lambda n: vertex_mixtures(n) | rational_tables(n))


@hyp_settings(deadline=None)
@given(_matrices(), _efficiency(), _efficiency())
def test_efficiency_matches_the_detection_channel_reference(dm, eta_a, eta_b):
    image = bp.apply_efficiency(dm, bp.EfficiencyParams(eta_a, eta_b))
    assert image.entries == oracles.efficiency_direct(dm.entries, eta_a, eta_b)
    assert all(type(v) is F for row in image.entries for v in row)


def test_efficiency_params_validate_their_range():
    with pytest.raises(PreconditionError, match=r"\[0, 1\]"):
        bp.EfficiencyParams(F(1, 2), F(5, 4))
    with pytest.raises(PreconditionError):
        bp.EfficiencyParams(F(-1, 2), F(1, 4))
    with pytest.raises(PreconditionError):
        symmetric(F(7, 5))


def test_asymmetric_efficiencies_act_per_side():
    pr1 = bp.as_matrix(bp.pr_box(1))
    only_a = bp.apply_efficiency(pr1, bp.EfficiencyParams(F(1, 2), F(1)))
    expected = bp.mix(
        [
            (bp.pr_box(1), F(1, 2)),
            (bp.ld_box(3), F(1, 4)),
            (bp.ld_box(4), F(1, 4)),
        ]
    )
    assert only_a.entries == expected.entries
    only_b = bp.apply_efficiency(pr1, bp.EfficiencyParams(F(1), F(1, 2)))
    expected_b = bp.mix(
        [
            (bp.pr_box(1), F(1, 2)),
            (bp.ld_box(2), F(1, 4)),
            (bp.ld_box(4), F(1, 4)),
        ]
    )
    assert only_b.entries == expected_b.entries


# ---------------------------------------------------------------------------
# The violation as a function of efficiency
# ---------------------------------------------------------------------------


def test_pr1_violation_is_quadratic_in_eta():
    pr1 = bp.as_matrix(bp.pr_box(1))
    assert oracles.efficiency_quadratic(pr1, 1) == (6, -4, 2)
    for eta in ETA_GRID:
        image = bp.apply_efficiency(pr1, symmetric(eta))
        assert bp.chsh_value(image, bp.chsh_symmetry(1)) == 6 * eta * eta - 4 * eta + 2


def test_pr_weight_decays_quadratically():
    for eta in (F(3, 4), F(4, 5), F(9, 10), F(1)):
        image = bp.apply_efficiency(bp.as_matrix(bp.pr_box(1)), symmetric(eta))
        dec = bp.decompose_222(image)
        assert dec.pr_weight == eta * eta - 2 * eta * (1 - eta)


# ---------------------------------------------------------------------------
# Critical efficiency
# ---------------------------------------------------------------------------


def test_critical_efficiency_of_pr1():
    pr1 = bp.as_matrix(bp.pr_box(1))
    eta = bp.critical_efficiency(pr1)
    assert eta == pytest.approx(2 / 3, abs=1e-9)
    certificate = bp.apply_efficiency(pr1, symmetric(F(2, 3)))
    assert bp.chsh_value(certificate, bp.chsh_symmetry(1)) == 2


def test_critical_efficiency_of_a_damped_mixture():
    dm = bp.mix([(bp.pr_box(1), F(9, 10)), (bp.ld_box(4), F(1, 10))])
    assert oracles.efficiency_quadratic(bp.as_matrix(dm), 1) == (F(27, 5), F(-18, 5), 2)
    assert oracles.quadratic_threshold(F(27, 5), F(-18, 5), 2) == F(2, 3)
    assert bp.critical_efficiency(dm) == pytest.approx(2 / 3, abs=1e-9)


def test_critical_efficiency_matches_the_quadratic_root(rng):
    for _ in range(20):
        dm, index, _, _ = random_nonlocal_222(rng)
        eta = bp.critical_efficiency(dm)
        assert eta is not None
        a, b, c = oracles.efficiency_quadratic(dm, index)
        root = oracles.quadratic_threshold(a, b, c)
        assert eta == pytest.approx(float(root), abs=1e-9)
        exact = bp.critical_efficiency_exact(dm)
        if isinstance(root, Fraction):
            assert exact == root
        else:
            assert exact.q != 0
            assert abs(float(exact) - root) <= 1e-15


def test_threshold_restores_locality(rng):
    for _ in range(20):
        dm, _, _, _ = random_nonlocal_222(rng)
        eta = bp.critical_efficiency(dm)
        grid = F(round(eta * 10**9), 10**9)
        image = bp.apply_efficiency(dm, symmetric(grid))
        values = bp.all_chsh_values(image)
        assert all(v <= 2 + F(1, 10**6) for v in values)


def test_critical_efficiency_of_local_matrices_is_none(rng):
    for _ in range(10):
        assert bp.critical_efficiency(random_local_222(rng)) is None
    assert bp.critical_efficiency(bp.as_matrix(bp.ld_box(7))) is None


def test_two_thirds_kills_every_violation(rng):
    # No nonsignaling box survives symmetric efficiency 2/3, so every
    # threshold sits at or above the one the maximally violating box attains.
    for _ in range(30):
        dm, _, _, _ = random_nonlocal_222(rng)
        image = bp.apply_efficiency(dm, symmetric(F(2, 3)))
        assert bp.is_local_222(image)
        eta = bp.critical_efficiency(dm)
        assert eta >= 2 / 3 - 1e-9


def test_critical_efficiency_exact_of_pr1_is_two_thirds():
    threshold = bp.critical_efficiency_exact(bp.as_matrix(bp.pr_box(1)))
    assert threshold == F(2, 3)
    assert threshold.q == 0 and str(threshold) == "2/3"
    assert bp.critical_efficiency(bp.as_matrix(bp.pr_box(1))) == 2 / 3


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_canonical_box_threshold_is_exact(n):
    box = bp.canonical_gpr(bp.Scenario(n))
    assert bp.critical_efficiency_exact(bp.as_matrix(box)) == F(2 * n - 2, 2 * n - 1)
    assert bp.critical_efficiency_exact(bp.as_matrix(bp.enumerate_lds(bp.Scenario(n))[0])) is None


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exact_threshold_separates_local_from_nonlocal(n):
    # 2^-40 is far below a float's resolution at the root, so only an
    # exact threshold lands between the two probes.
    rng = random.Random(7000 + n)
    gap = F(1, 2**40)
    surds = 0
    for _ in range(12 if n == 2 else 4):
        dm = random_chained_mixture(rng, bp.Scenario(n))[0]
        box = bp.identify_gpr(dm)
        threshold = bp.critical_efficiency_exact(dm)
        surds += threshold.q != 0
        below, above = threshold.p - gap, threshold.p + gap
        if threshold.q != 0:
            guess = F(float(threshold))
            below, above = guess - gap, guess + gap
        assert below < threshold < above and not below >= threshold
        assert bp.identify_gpr(bp.apply_efficiency(dm, symmetric(below))) is None
        assert bp.identify_gpr(bp.apply_efficiency(dm, symmetric(min(above, F(1))))) == box
    assert surds > 0


def test_efficiency_threshold_arithmetic():
    root2 = EfficiencyThreshold(0, 1, 2)
    assert F(141421356237, 10**11) < root2 < F(141421356238, 10**11)
    assert root2 > 1 and root2 >= 1 and root2 <= 2 and not root2 < 1
    assert root2 != F(1414213562373095, 10**15)
    assert float(root2) == math.sqrt(2)
    assert EfficiencyThreshold(1, 1, 8) == EfficiencyThreshold(1, 2, 2)
    assert hash(EfficiencyThreshold(1, 1, 8)) == hash(EfficiencyThreshold(1, 2, 2))
    assert EfficiencyThreshold(1, 1, 2) != EfficiencyThreshold(1, -1, 2)
    assert str(EfficiencyThreshold(F(1, 2), F(-1, 3), 20)) == "1/2 - 2/3*sqrt(5)"
    # A perfect-square radicand folds into the rational part.
    folded = EfficiencyThreshold(F(1, 2), F(1, 3), 9)
    assert folded == F(3, 2) and folded.q == 0 and folded.r == 0
    assert hash(folded) == hash(F(3, 2)) and str(folded) == "3/2"
    with pytest.raises(PreconditionError):
        EfficiencyThreshold(0, 1, -2)


def test_efficiency_threshold_rounds_correctly():
    rng = random.Random(11)
    for _ in range(200):
        p = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        q = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        r = rng.randint(2, 10**12)
        threshold = EfficiencyThreshold(p, q, r)
        with localcontext() as ctx:
            ctx.prec = 120
            value = Decimal(p.numerator) / p.denominator
            value += Decimal(q.numerator) / q.denominator * Decimal(r).sqrt()
        assert float(threshold) == float(value)
