"""Total-variation and Kullback-Leibler distances, closest-local searches,
and projection onto the facet a violating matrix crosses."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

import bellpoly as bp
from bellpoly import (
    InvariantViolationError,
    NotApplicableError,
    PreconditionError,
    exactlin,
    metrics,
)
from conftest import (
    random_local_222,
    random_nonlocal_222,
    random_nonsignaling_222,
    rational_tables,
    rational_weights,
    vertex_mixtures,
)
import oracles

F = Fraction

SATURATING = tuple(sorted(bp.SATURATING_SET_1))
UNIFORM_SETTINGS = bp.SettingsDistribution.uniform(bp.SCENARIO_222)


def first_symmetry_violation(rng):
    while True:
        dm, index, pr_weight, ld_weights = random_nonlocal_222(rng)
        if index == 1:
            return dm, pr_weight, ld_weights


# ---------------------------------------------------------------------------
# Total variation
# ---------------------------------------------------------------------------


def test_tv_identity_and_reference_value():
    pr1 = bp.as_matrix(bp.pr_box(1))
    assert bp.tv_distance(pr1, pr1) == 0
    assert bp.tv_distance(pr1, bp.as_matrix(bp.ld_box(1))) == F(5, 2)


def test_tv_agrees_with_cellwise_arithmetic(rng):
    for _ in range(30):
        a = random_nonsignaling_222(rng)
        b = random_nonsignaling_222(rng)
        assert bp.tv_distance(a, b) == oracles.tv_direct(a, b)


def test_tv_is_a_metric(rng):
    for _ in range(20):
        a = random_nonsignaling_222(rng)
        b = random_nonsignaling_222(rng)
        c = random_nonsignaling_222(rng)
        assert bp.tv_distance(a, b) >= 0
        assert bp.tv_distance(a, b) == bp.tv_distance(b, a)
        assert bp.tv_distance(a, c) <= bp.tv_distance(a, b) + bp.tv_distance(b, c)
        assert (bp.tv_distance(a, b) == 0) == (a.entries == b.entries)


def test_tv_is_affine_along_segments(rng):
    for _ in range(10):
        a = random_nonsignaling_222(rng)
        b = random_nonsignaling_222(rng)
        lam = F(rng.randint(0, 12), 12)
        point = bp.mix([(a, lam), (b, 1 - lam)])
        assert bp.tv_distance(point, b) == lam * bp.tv_distance(a, b)


@hyp_settings(deadline=None)
@given(st.data())
def test_tv_matches_the_cell_by_cell_reference(data):
    n = data.draw(st.integers(2, 5), label="n")
    q, s = (data.draw(vertex_mixtures(n) | rational_tables(n)) for _ in range(2))
    distance = bp.tv_distance(q, s)
    assert type(distance) is F
    assert distance == oracles.tv_direct(q, s)


def test_tv_rejects_mismatched_scenarios():
    with pytest.raises(PreconditionError):
        bp.tv_distance(
            bp.as_matrix(bp.pr_box(1)),
            bp.as_matrix(bp.canonical_gpr(bp.Scenario(3))),
        )


# ---------------------------------------------------------------------------
# Closest local matrix in total variation
# ---------------------------------------------------------------------------


def test_tv_closest_local_reference_example():
    dm = bp.mix([(bp.pr_box(1), F(4, 5)), (bp.ld_box(1), F(1, 5))])
    res = bp.tv_closest_local(dm)
    assert res.distance == F(4, 5)
    assert dict(res.weights) == {
        1: F(3, 10),
        4: F(1, 10),
        5: F(1, 10),
        8: F(1, 10),
        9: F(1, 10),
        12: F(1, 10),
        14: F(1, 10),
        15: F(1, 10),
    }
    assert bp.is_local_222(res.closest)
    assert bp.tv_distance(dm, res.closest) == res.distance


def test_tv_closest_local_distance_is_the_nonlocal_weight(rng):
    for _ in range(25):
        dm, _, pr_weight, _ = random_nonlocal_222(rng)
        res = bp.tv_closest_local(dm)
        assert res.distance == pr_weight
        assert bp.is_local_222(res.closest)
        assert bp.tv_distance(dm, res.closest) == res.distance


def test_tv_closest_local_weights_mix_to_the_closest_point(rng):
    for _ in range(10):
        dm, _, _, _ = random_nonlocal_222(rng)
        res = bp.tv_closest_local(dm)
        remixed = bp.mix([(bp.ld_box(i), w) for i, w in res.weights.items()])
        assert remixed.entries == res.closest.entries


def test_tv_closest_local_spreads_weight_over_the_saturating_set(rng):
    for _ in range(10):
        dm, pr_weight, ld_weights = first_symmetry_violation(rng)
        res = bp.tv_closest_local(dm)
        for i in SATURATING:
            assert res.weights[i] == ld_weights.get(i, F(0)) + pr_weight / 8


def test_tv_closest_local_minimum_is_not_unique(rng):
    # Concentrating the redistributed weight on a complementary pair of
    # saturating boxes reaches the same distance.
    for _ in range(10):
        dm, pr_weight, ld_weights = first_symmetry_violation(rng)
        terms = [(bp.ld_box(i), w) for i, w in ld_weights.items()]
        terms.append((bp.ld_box(1), pr_weight / 2))
        terms.append((bp.ld_box(4), pr_weight / 2))
        alternative = bp.mix(terms)
        assert bp.is_local_222(alternative)
        assert bp.tv_distance(dm, alternative) == pr_weight


def test_tv_closest_local_agrees_with_linear_program(rng):
    for _ in range(10):
        dm, _, _, _ = random_nonlocal_222(rng)
        assert bp.tv_closest_local(dm).distance == oracles.tv_lp_oracle(dm)


def test_tv_closest_local_on_local_input(rng):
    dm = random_local_222(rng)
    res = bp.tv_closest_local(dm)
    assert res.distance == 0
    assert res.closest.entries == dm.entries


# ---------------------------------------------------------------------------
# Kullback-Leibler divergence
# ---------------------------------------------------------------------------


def test_kl_identity_and_reference_value():
    pr1 = bp.as_matrix(bp.pr_box(1))
    assert bp.kl_divergence(pr1, pr1, UNIFORM_SETTINGS) == 0.0
    uniform_cells = bp.DistributionMatrix(
        bp.SCENARIO_222, ((F(1, 4),) * 4,) * 4
    )
    assert bp.kl_divergence(pr1, uniform_cells, UNIFORM_SETTINGS) == pytest.approx(
        1.0, abs=1e-12
    )


def test_kl_is_infinite_off_support():
    pr1 = bp.as_matrix(bp.pr_box(1))
    assert bp.kl_divergence(pr1, bp.as_matrix(bp.ld_box(1)), UNIFORM_SETTINGS) == math.inf


def test_kl_agrees_with_direct_arithmetic(rng):
    probs = UNIFORM_SETTINGS.probs
    for _ in range(20):
        q = random_nonsignaling_222(rng)
        s = random_nonsignaling_222(rng)
        expected = oracles.kl_direct(q, s, probs)
        got = bp.kl_divergence(q, s, UNIFORM_SETTINGS)
        if math.isinf(expected):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(expected, rel=1e-12)


def test_kl_weights_rows_by_the_settings_distribution(rng):
    skew = bp.SettingsDistribution(
        bp.SCENARIO_222, (F(7, 10), F(1, 10), F(1, 10), F(1, 10))
    )
    for _ in range(10):
        q = random_nonsignaling_222(rng)
        s = random_nonsignaling_222(rng)
        expected = oracles.kl_direct(q, s, skew.probs)
        got = bp.kl_divergence(q, s, skew)
        if math.isinf(expected):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(expected, rel=1e-12)


def test_kl_rejects_mismatched_scenarios():
    with pytest.raises(PreconditionError):
        bp.kl_divergence(
            bp.as_matrix(bp.pr_box(1)),
            bp.as_matrix(bp.canonical_gpr(bp.Scenario(3))),
            UNIFORM_SETTINGS,
        )


# ---------------------------------------------------------------------------
# The parametrized objective and its gradient
# ---------------------------------------------------------------------------


def test_kl_objective_matches_divergence_of_the_mixture():
    pr1 = bp.as_matrix(bp.pr_box(1))
    weights = [0.5, 0.125, 0.125, 0.125, 0.125, 0.0, 0.0, 0.0]
    obj = bp.kl_objective(pr1, UNIFORM_SETTINGS, SATURATING, weights)
    mixture = bp.mix(
        [
            (bp.ld_box(i), F(w).limit_denominator(1 << 40))
            for i, w in zip(SATURATING, weights)
            if w > 0
        ]
    )
    assert obj == pytest.approx(
        bp.kl_divergence(pr1, mixture, UNIFORM_SETTINGS), rel=1e-12
    )


def test_kl_gradient_matches_finite_differences(rng):
    pr1 = bp.as_matrix(bp.pr_box(1))
    step = 1e-7
    for _ in range(20):
        raw = [rng.randint(1, 20) for _ in SATURATING]
        weights = [r / sum(raw) for r in raw]
        grad = bp.kl_gradient(pr1, UNIFORM_SETTINGS, SATURATING, weights)
        for i in range(len(SATURATING)):
            bumped = list(weights)
            bumped[i] += step
            lowered = list(weights)
            lowered[i] -= step
            fd = (
                bp.kl_objective(pr1, UNIFORM_SETTINGS, SATURATING, bumped)
                - bp.kl_objective(pr1, UNIFORM_SETTINGS, SATURATING, lowered)
            ) / (2 * step)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_kl_objective_ignores_rows_that_are_never_measured():
    # Boxes 1 and 4 agree with PR box 1 on the two measured rows and
    # leave cells of the unmeasured rows empty.
    pr1 = bp.as_matrix(bp.pr_box(1))
    half = bp.SettingsDistribution(bp.SCENARIO_222, [F(1, 2), F(1, 2), 0, 0])
    mixture = bp.mix([(bp.ld_box(1), F(1, 2)), (bp.ld_box(4), F(1, 2))])
    assert bp.kl_divergence(pr1, mixture, half) == 0.0
    assert bp.kl_objective(pr1, half, (1, 4), [0.5, 0.5]) == 0.0


def test_kl_objective_is_convex_in_the_weights(rng):
    pr1 = bp.as_matrix(bp.pr_box(1))
    for _ in range(20):
        a = [rng.random() + 0.05 for _ in SATURATING]
        b = [rng.random() + 0.05 for _ in SATURATING]
        a = [v / sum(a) for v in a]
        b = [v / sum(b) for v in b]
        mid = [(u + v) / 2 for u, v in zip(a, b)]
        left = bp.kl_objective(pr1, UNIFORM_SETTINGS, SATURATING, a)
        right = bp.kl_objective(pr1, UNIFORM_SETTINGS, SATURATING, b)
        middle = bp.kl_objective(pr1, UNIFORM_SETTINGS, SATURATING, mid)
        assert middle <= (left + right) / 2 + 1e-10


# ---------------------------------------------------------------------------
# Minimization
# ---------------------------------------------------------------------------


def test_kl_minimize_solves_the_reference_problem():
    pr1 = bp.as_matrix(bp.pr_box(1))
    weights, value, iterations = bp.kl_minimize(pr1, UNIFORM_SETTINGS, SATURATING)
    assert value == pytest.approx(math.log2(4 / 3), abs=1e-9)
    assert weights == pytest.approx([0.125] * 8, abs=1e-9)
    assert iterations <= 100000
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)


def test_kl_minimize_attaches_its_best_iterate_at_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(metrics, "KL_MAX_ITERATIONS", 1)
    pr1 = bp.as_matrix(bp.pr_box(1))
    skewed = [0.65, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05]
    with pytest.raises(bp.NonConvergenceError, match="iteration cap") as info:
        bp.kl_minimize(pr1, UNIFORM_SETTINGS, SATURATING, start=skewed)
    weights, value, iterations = info.value.best
    assert iterations == 1
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    assert value == bp.kl_objective(pr1, UNIFORM_SETTINGS, SATURATING, weights)
    assert value > math.log2(4 / 3)


def test_kl_minimize_is_start_independent():
    pr1 = bp.as_matrix(bp.pr_box(1))
    skewed = [0.65, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05]
    _, from_uniform, _ = bp.kl_minimize(pr1, UNIFORM_SETTINGS, SATURATING)
    _, from_skewed, _ = bp.kl_minimize(
        pr1, UNIFORM_SETTINGS, SATURATING, start=skewed
    )
    assert from_skewed == pytest.approx(from_uniform, abs=1e-9)


def test_kl_minimize_never_beats_itself_with_more_boxes(rng):
    # Boxes saturating the violated inequality already span the optimum.
    full = tuple(range(1, 17))
    for _ in range(5):
        dm, index, _, _ = random_nonlocal_222(rng)
        facet = tuple(sorted(bp.chsh_symmetry(index).saturating_set))
        _, reduced, _ = bp.kl_minimize(dm, UNIFORM_SETTINGS, facet)
        _, complete, _ = bp.kl_minimize(dm, UNIFORM_SETTINGS, full)
        assert complete <= reduced + 1e-9
        assert reduced == pytest.approx(complete, abs=1e-8)


def test_kl_minimize_improves_on_arbitrary_starts(rng):
    for _ in range(10):
        dm, _, _ = first_symmetry_violation(rng)
        raw = [rng.randint(1, 9) for _ in SATURATING]
        start = [r / sum(raw) for r in raw]
        before = bp.kl_objective(dm, UNIFORM_SETTINGS, SATURATING, start)
        _, value, _ = bp.kl_minimize(dm, UNIFORM_SETTINGS, SATURATING, start=start)
        assert value <= before + 1e-12


def test_kl_closest_local_matches_the_minimizer(rng):
    for _ in range(5):
        dm, _, _, _ = random_nonlocal_222(rng)
        res = bp.kl_closest_local(dm, UNIFORM_SETTINGS)
        _, value, _ = bp.kl_minimize(dm, UNIFORM_SETTINGS, tuple(range(1, 17)))
        assert res.distance == pytest.approx(value, abs=1e-9)
        assert bp.validate(res.closest) == []
        assert bp.kl_divergence(dm, res.closest, UNIFORM_SETTINGS) == pytest.approx(
            res.distance, abs=1e-9
        )


def _seeded_violators(rng):
    """Violators (some with zero cells, where the search ends on the
    simplex boundary) under random positive settings probabilities."""
    for _ in range(8):
        dm, _, _, _ = random_nonlocal_222(rng)
        raw = [rng.randint(1, 9) for _ in range(4)]
        yield dm, bp.SettingsDistribution(bp.SCENARIO_222, [F(r, sum(raw)) for r in raw])


def test_kl_closest_local_builds_no_tv_closest_point(monkeypatch, rng):
    calls = []
    original = metrics.tv_closest_local

    def counted(q):
        calls.append(q)
        return original(q)

    monkeypatch.setattr(metrics, "tv_closest_local", counted)
    for dm, settings in _seeded_violators(rng):
        bp.kl_closest_local(dm, settings)
    bp.kl_closest_local(random_local_222(rng), UNIFORM_SETTINGS)
    assert calls == []


def test_kl_closest_local_starts_from_the_tv_weights(monkeypatch, rng):
    starts = []
    original = metrics.kl_minimize

    def recorded(q, settings, indices, start):
        starts.append(dict(zip(indices, start)))
        return original(q, settings, indices, start)

    monkeypatch.setattr(metrics, "kl_minimize", recorded)
    for dm, settings in _seeded_violators(rng):
        res = bp.kl_closest_local(dm, settings)
        tv_weights = bp.tv_closest_local(dm).weights
        assert starts.pop() == tv_weights
        # the same search from the TV-closest point, run directly
        indices = sorted(tv_weights)
        x, _, iterations = original(dm, settings, indices, [tv_weights[i] for i in indices])
        assert res.weights == dict(zip(indices, x))
        assert res.iterations == iterations
        assert res.gap == bp.kl_gap(dm, settings, indices, x)


def _oracle_cases(rng):
    """Seeded violators of four kinds, each with its settings and the
    violated symmetry's 8 saturating boxes: all 8 facet boxes mixed in
    (an interior optimum), one left out (cells at 0, a boundary
    optimum), 1 to 8 of them (sparse), and settings that never measure
    one or two of the rows."""
    for case in range(16):
        kind = case % 4
        index = rng.randint(1, 8)
        facet = sorted(bp.chsh_symmetry(index).saturating_set)
        pr_weight = F(rng.randint(1, 60), 100)
        if kind == 1:
            facet_used = [i for i in facet if i != rng.choice(facet)]
        elif kind == 2:
            facet_used = rng.sample(facet, rng.randint(1, 8))
        else:
            facet_used = facet
        weights = rational_weights(rng, len(facet_used), 1 - pr_weight)
        dm = bp.mix(
            [(bp.pr_box(index), pr_weight)]
            + [(bp.ld_box(i), w) for i, w in zip(facet_used, weights) if w > 0]
        )
        raw = [rng.randint(1, 9) for _ in range(4)]
        if kind == 3:
            for row in rng.sample(range(4), rng.randint(1, 2)):
                raw[row] = 0
        probs = [F(r, sum(raw)) for r in raw]
        yield dm, bp.SettingsDistribution(bp.SCENARIO_222, probs), facet


def test_kl_closest_local_matches_a_mirror_descent_oracle(rng):
    # The oracle's iterates stay inside the simplex, so it never goes
    # below the minimum: the Newton answer may not lie above it.
    for dm, settings, facet in _oracle_cases(rng):
        res = bp.kl_closest_local(dm, settings)
        assert sorted(res.weights) == facet
        oracle_value, _, _ = oracles.kl_mirror_descent(
            dm, settings.probs, facet, max_iterations=2_000
        )
        assert res.distance <= oracle_value + 1e-10
        assert 0 <= res.gap <= metrics.KL_GAP_TOLERANCE
        assert 1 <= res.iterations <= 25
        # the whole 16-box catalog reaches the same optimum
        _, complete, _ = bp.kl_minimize(dm, settings, tuple(range(1, 17)))
        assert abs(complete - res.distance) <= 1e-9


def test_kl_closest_local_builds_its_problem_once(monkeypatch, rng):
    built = []
    original = metrics._KLProblem

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(metrics, "_KLProblem", counted)
    for dm, settings in _seeded_violators(rng):
        bp.kl_closest_local(dm, settings)
        assert len(built) == 1
        built.clear()


def test_kl_closest_local_agrees_with_a_grid_search():
    pr1 = bp.as_matrix(bp.pr_box(1))
    res = bp.kl_closest_local(pr1, UNIFORM_SETTINGS)
    grid_value = oracles.kl_grid_oracle(
        pr1, UNIFORM_SETTINGS.probs, SATURATING, denom=100
    )
    assert res.distance <= grid_value + 1e-9
    assert grid_value - res.distance <= 1e-3


def test_kl_closest_local_reports_its_frank_wolfe_gap(rng):
    # The gap bounds the excess over the minimum, so no other mixture,
    # the optimum over all 16 boxes included, may go below distance - gap.
    full = tuple(range(1, 17))
    for _ in range(10):
        dm, _, _, _ = random_nonlocal_222(rng)
        res = bp.kl_closest_local(dm, UNIFORM_SETTINGS)
        assert res.iterations >= 1
        assert 0 <= res.gap <= 1e-4
        indices = sorted(res.weights)
        weights = [res.weights[i] for i in indices]
        assert res.gap == bp.kl_gap(dm, UNIFORM_SETTINGS, indices, weights)
        _, complete, _ = bp.kl_minimize(dm, UNIFORM_SETTINGS, full)
        assert complete >= res.distance - res.gap - 1e-12


def test_kl_gap_vanishes_at_the_symmetric_optimum():
    pr1 = bp.as_matrix(bp.pr_box(1))
    res = bp.kl_closest_local(pr1, UNIFORM_SETTINGS)
    assert res.gap == pytest.approx(0, abs=1e-12)
    # away from the optimum the gap is at least the excess over it
    skewed = [0.65] + [0.05] * 7
    excess = bp.kl_objective(pr1, UNIFORM_SETTINGS, SATURATING, skewed) - res.distance
    assert bp.kl_gap(pr1, UNIFORM_SETTINGS, SATURATING, skewed) >= excess > 0.1


def test_kl_closest_local_certificate_is_absent_for_exact_answers(rng):
    local = bp.kl_closest_local(random_local_222(rng), UNIFORM_SETTINGS)
    assert local.iterations is None and local.gap is None
    dm, _, _, _ = random_nonlocal_222(rng)
    tv = bp.tv_closest_local(dm)
    assert tv.iterations is None and tv.gap is None


def test_kl_closest_is_at_most_the_tv_closest(rng):
    for _ in range(10):
        dm, _, _, _ = random_nonlocal_222(rng)
        kl_res = bp.kl_closest_local(dm, UNIFORM_SETTINGS)
        tv_res = bp.tv_closest_local(dm)
        at_tv_point = bp.kl_divergence(dm, tv_res.closest, UNIFORM_SETTINGS)
        assert kl_res.distance <= at_tv_point + 1e-9


# ---------------------------------------------------------------------------
# Facet projection
# ---------------------------------------------------------------------------


def test_face_projection_reference_example():
    pr1 = bp.as_matrix(bp.pr_box(1))
    d16 = bp.as_matrix(bp.ld_box(16))
    lam, point = bp.face_projection(pr1, d16)
    assert lam == F(2, 3)
    assert bp.is_local_222(point)
    assert bp.chsh_value(point, bp.chsh_symmetry(1)) == 2
    assert point.entries == bp.mix([(pr1, lam), (d16, 1 - lam)]).entries


def test_face_projection_with_target_on_the_facet():
    pr1 = bp.as_matrix(bp.pr_box(1))
    facet_point = bp.mix([(bp.ld_box(i), F(1, 8)) for i in SATURATING])
    lam, point = bp.face_projection(pr1, facet_point)
    assert lam == 0
    assert point.entries == facet_point.entries


def test_face_projection_lands_on_the_violated_facet(rng):
    for _ in range(20):
        dm, index, _, _ = random_nonlocal_222(rng)
        target = random_local_222(rng)
        lam, point = bp.face_projection(dm, target)
        assert 0 <= lam < 1
        assert bp.is_local_222(point)
        assert bp.chsh_value(point, bp.chsh_symmetry(index)) == 2
        assert point.entries == bp.mix([(dm, lam), (target, 1 - lam)]).entries


@pytest.mark.parametrize("index", range(1, 9))
def test_face_projection_coefficient_from_built_weights(rng, index):
    # lam = 2o / (2o + r), with r the built PR weight of q and o the
    # built weight s_local puts off the violated symmetry's facet.
    saturating = sorted(bp.chsh_symmetry(index).saturating_set)
    for _ in range(5):
        r = F(rng.randint(1, 99), 100)
        on_facet = zip(saturating, rational_weights(rng, 8, 1 - r))
        q = bp.mix([(bp.pr_box(index), r)] + [(bp.ld_box(i), w) for i, w in on_facet])
        weights = dict(enumerate(rational_weights(rng, 16), start=1))
        s_local = bp.mix([(bp.ld_box(i), w) for i, w in weights.items() if w])
        o = sum((w for i, w in weights.items() if i not in saturating), F(0))
        lam, point = bp.face_projection(q, s_local)
        assert lam == 2 * o / (2 * o + r)
        assert bp.chsh_value(point, bp.chsh_symmetry(index)) == 2


def test_face_projection_rejects_local_first_argument(rng):
    with pytest.raises(NotApplicableError, match="violating"):
        bp.face_projection(
            random_local_222(rng), bp.as_matrix(bp.ld_box(16))
        )


def test_face_projection_rejects_nonlocal_target():
    with pytest.raises(PreconditionError, match="local"):
        bp.face_projection(
            bp.as_matrix(bp.pr_box(1)), bp.as_matrix(bp.pr_box(2))
        )


def _larger_n_case(rng, n):
    """A violating n-setting matrix g r + (one-mismatch companions), a
    local partner over deterministic boxes, and the built data: g, r and
    the partner's (box, weight) terms."""
    scenario = bp.Scenario(n)
    g = rng.choice(bp.enumerate_gprs(scenario))
    r = F(rng.randint(1, 99), 100)
    companions = list(bp.one_support_mismatches(g).values())
    on_face = zip(companions, rational_weights(rng, len(companions), 1 - r))
    q = bp.mix([(g, r)] + [(d, w) for d, w in on_face if w])
    partners = rng.sample(bp.enumerate_lds(scenario), 5)
    built = [(d, w) for d, w in zip(partners, rational_weights(rng, 5)) if w]
    return q, bp.mix(built), g, r, built


@pytest.mark.parametrize("n", (3, 4))
def test_face_projection_at_larger_n(rng, n):
    # A partner box with k mismatches against g cancels k - 1 of g's mass.
    for _ in range(15):
        q, s_local, g, r, built = _larger_n_case(rng, n)
        cancelled = sum(
            (w * (bp.support_mismatch_count(g, d) - 1) for d, w in built), F(0)
        )
        lam, point = bp.face_projection(q, s_local)
        assert lam == cancelled / (cancelled + r)
        assert point == bp.mix([(q, lam), (s_local, 1 - lam)])
        value, reaching = oracles.chained_minimum(point)
        assert value == 1 and "".join(g.row_types) in reaching


def test_face_projection_rejections_at_n3(rng):
    q, s_local, g, _, _ = _larger_n_case(rng, 3)
    with pytest.raises(NotApplicableError, match="violating"):
        bp.face_projection(s_local, q)
    with pytest.raises(PreconditionError, match="local"):
        bp.face_projection(q, g.matrix())
    pr1 = bp.as_matrix(bp.pr_box(1))
    d16 = bp.as_matrix(bp.ld_box(16))
    with pytest.raises(PreconditionError, match="scenarios differ"):
        bp.face_projection(q, d16)
    with pytest.raises(PreconditionError, match="scenarios differ"):
        bp.face_projection(pr1, s_local)


def test_closest_local_searches_reject_larger_n(rng):
    q, s_local, _, _, _ = _larger_n_case(rng, 3)
    uniform = bp.SettingsDistribution.uniform(q.scenario)
    for dm in (q, s_local):
        with pytest.raises(PreconditionError, match="n=2 only"):
            bp.tv_closest_local(dm)
        with pytest.raises(PreconditionError, match="n=2 only"):
            bp.kl_closest_local(dm, uniform)


def test_face_projection_solves_no_linear_program(monkeypatch, rng):
    calls = []
    original = exactlin.simplex_feasible

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(exactlin, "simplex_feasible", counted)
    for _ in range(5):
        dm, _, _, _ = random_nonlocal_222(rng)
        bp.face_projection(dm, random_local_222(rng))
    assert calls == []


def _rotated(terms, weight):
    weights = [w for _, w in terms]
    return tuple(zip([box for box, _ in terms], weights[1:] + weights[:1])), weight


def _negated(terms, weight):
    (box, w), *rest = terms
    return ((box, -w - 1), *rest), weight


@pytest.mark.parametrize(
    "break_readoff",
    [
        _rotated,
        _negated,
        lambda terms, weight: (terms, weight + F(1, 100)),
    ],
    ids=["reconstruction", "negative weight", "box weight"],
)
def test_face_projection_certificate_catches_a_broken_readoff(
    monkeypatch, break_readoff
):
    original = metrics.readoff_weights
    monkeypatch.setattr(
        metrics, "readoff_weights", lambda dm, g: break_readoff(*original(dm, g))
    )
    q = bp.mix([(bp.pr_box(1), F(1, 2))] + [
        (bp.ld_box(i), w) for i, w in zip(SATURATING, (F(1, 8), F(3, 8)))
    ])
    with pytest.raises(InvariantViolationError, match="saturating face"):
        bp.face_projection(q, bp.as_matrix(bp.ld_box(16)))


def test_metrics_imports_only_core_and_chained():
    tree = ast.parse(Path(metrics.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                imported.update(alias.name for alias in node.names)
            else:
                imported.add(node.module)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.partition(".")[0] == "bellpoly":
                imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(
                alias.name for alias in node.names
                if alias.name.partition(".")[0] == "bellpoly"
            )
    assert imported == {"chained", "core"}
