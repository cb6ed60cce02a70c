"""Distances from a nonlocal matrix to the local polytope.

Total-variation distance over the conditional cells has a closed-form
minimizer for n=2: spread the PR weight of the read-off decomposition
uniformly over the 8 saturating deterministic boxes.  The distance then
equals the PR weight itself.  Kullback-Leibler divergence (computed on
joint distributions including the settings probabilities), the
statistical strength of a Bell test, has no closed form and is minimized
numerically over deterministic-box weights by active-set Newton steps on
the simplex, in plain floats on the query's cells of positive joint
weight gathered once per search; the search stops once the Frank-Wolfe
gap, which bounds how far the result lies above the minimum, is at most
:data:`KL_GAP_TOLERANCE` bits.
Restricting to the 8 saturating boxes loses nothing, which is checked in
the test suite against the full 16-box optimization.

Also here: :func:`face_projection`, at every n: the exact mixing
coefficient that lands a violating matrix mixed with a local one on the
face below the violated box, certified by the result's cell read-off.

The module builds on :mod:`bellpoly.chained` and :mod:`bellpoly.core`
only.  Each function finds the violated box with
:func:`~bellpoly.chained.identify_gpr`, which keeps its answer on the
matrix, so the membership check and the box scan run once per input
matrix, whichever function asks first, and that check is the only one;
the decompositions, thresholds and estimator reuse the answer on the
same matrix.  The PR weight is 1 minus that box's chained value.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .chained import chained_value, identify_gpr, readoff_weights
from .core import (
    DistributionMatrix,
    InvariantViolationError,
    NonConvergenceError,
    NotApplicableError,
    PreconditionError,
    SettingsDistribution,
    _LD_INDEX,
    common_denominator,
    ld_box,
    mix,
)


@dataclass(frozen=True)
class ClosestLocalResult:
    """A local matrix nearest to the query, the distance achieved, and
    the deterministic-box weights realizing it (``None`` for a local
    query, which is its own closest point at distance 0).

    The KL search also reports its Newton ``iterations`` and its
    Frank-Wolfe ``gap``: an upper bound on how far ``distance`` lies
    above the minimum over the same boxes.  Both stay ``None`` for the
    exact total-variation answer and for local queries.
    """

    closest: DistributionMatrix
    distance: Fraction | float
    weights: Optional[Mapping[int, Fraction | float]]
    iterations: Optional[int] = None
    gap: Optional[float] = None


# ---------------------------------------------------------------------------
# Total variation
# ---------------------------------------------------------------------------


def tv_distance(q: DistributionMatrix, s: DistributionMatrix) -> Fraction:
    """Half the sum of absolute cell differences, over all 8n cells.

    Summed on integers: both matrices' cells as numerators over the lcm
    of all their denominators, one ``Fraction`` for the result.
    """
    if q.scenario != s.scenario:
        raise PreconditionError("matrix scenarios differ")
    cells = [v for m in (q, s) for row in m.entries for v in row]
    nums, d = common_denominator(cells)
    half = len(nums) // 2
    return Fraction(sum(abs(a - b) for a, b in zip(nums[:half], nums[half:])), 2 * d)


def _spread_readoff(
    q: DistributionMatrix,
) -> tuple[dict[int, Fraction], Fraction] | None:
    """An n=2 query's read-off weights plus r/8 on each of the 8
    saturating boxes, keyed by catalog number, and its PR weight r;
    ``None`` when the query is local."""
    if q.scenario.n != 2:
        raise PreconditionError("closest-local searches are defined for n=2 only")
    g = identify_gpr(q)
    if g is None:
        return None
    # The read-off boxes are exactly the symmetry's 8 saturating boxes.
    ld_terms, pr_weight = readoff_weights(q, g)
    weights = dict(sorted((_LD_INDEX[box], w + pr_weight / 8) for box, w in ld_terms))
    return weights, pr_weight


def tv_closest_local(q: DistributionMatrix) -> ClosestLocalResult:
    """A total-variation-closest local matrix for an n=2 query.

    For a violating matrix with read-off weights p_i and PR weight r,
    the mixture with weights p_i + r/8 on the 8 saturating boxes is
    closest, at distance exactly r.  Local queries return themselves at
    distance 0.
    """
    spread = _spread_readoff(q)
    if spread is None:
        return ClosestLocalResult(q, Fraction(0), None)
    weights, pr_weight = spread
    closest = mix([(ld_box(i), w) for i, w in weights.items()])
    distance = tv_distance(q, closest)
    if distance != pr_weight:
        raise InvariantViolationError(
            "uniform PR spreading must land at distance exactly the PR weight"
        )
    return ClosestLocalResult(closest, distance, weights)


# ---------------------------------------------------------------------------
# Kullback-Leibler divergence
# ---------------------------------------------------------------------------


def kl_divergence(
    q: DistributionMatrix,
    s: DistributionMatrix,
    settings: SettingsDistribution,
) -> float:
    """D(Q' || S') in bits between the *joint* distributions obtained by
    weighting each row with its settings probability.

    Cells with Q' = 0 contribute 0; any cell with Q' > 0 but S' = 0
    makes the divergence infinite.
    """
    if q.scenario != s.scenario or settings.scenario != q.scenario:
        raise PreconditionError("matrix and settings scenarios must agree")
    total = 0.0
    for prob, qrow, srow in zip(settings.probs, q.entries, s.entries):
        if prob == 0:
            continue
        for qv, sv in zip(qrow, srow):
            if qv == 0:
                continue
            if sv == 0:
                return math.inf
            joint_q = float(prob * qv)
            total += joint_q * math.log2(float(qv / sv))
    return total


@dataclass(frozen=True)
class _KLProblem:
    """KL divergence to mixtures of some boxes, reduced to the query's
    cells of positive joint weight: ``joint`` and ``q`` hold each such
    cell's joint weight (settings probability times cell value) and cell
    value as floats; ``supports`` holds, per box, the positions (in that
    cell list) of the cells the box puts its mass on, and ``overlaps``
    holds ``(i, j, cells)`` for each pair of boxes i <= j sharing cells,
    which is where the Hessian has its nonzero entries."""

    joint: tuple[float, ...]
    q: tuple[float, ...]
    supports: tuple[tuple[int, ...], ...]
    overlaps: tuple[tuple[int, int, tuple[int, ...]], ...]

    def mixture(self, weights: Sequence[float]) -> list[float]:
        """The mixture's value on each cell."""
        s = [0.0] * len(self.q)
        for w, cells in zip(weights, self.supports):
            for j in cells:
                s[j] += w
        return s

    def objective(self, s: Sequence[float]) -> float:
        if any(v <= 0 for v in s):
            return math.inf
        return math.fsum(
            w * math.log2(qv / sv) for w, qv, sv in zip(self.joint, self.q, s)
        )

    def gradient(self, s: Sequence[float]) -> list[float]:
        ratio = [w / sv for w, sv in zip(self.joint, s)]
        return [
            -sum(ratio[j] for j in cells) / _LN2 for cells in self.supports
        ]

    def hessian(self, s: Sequence[float]) -> list[list[float]]:
        """H_ij = sum of joint / s^2 over the cells boxes i and j share."""
        curvature = [w / (sv * sv * _LN2) for w, sv in zip(self.joint, s)]
        k = len(self.supports)
        h = [[0.0] * k for _ in range(k)]
        for i, j, cells in self.overlaps:
            h[i][j] = h[j][i] = sum(curvature[c] for c in cells)
        return h


_LN2 = math.log(2.0)
#: The problem :func:`_kl_problem` built last, with the objects it was
#: built from, so the calls of one search share it.
_last_problem: tuple = (None, None, (), None)


@functools.cache
def _box_support(i: int) -> tuple[int, ...]:
    """Positions 4 r + c of the cells deterministic box i puts mass on."""
    cells = [v for row in ld_box(i).matrix().entries for v in row]
    return tuple(k for k, v in enumerate(cells) if v)


def _kl_problem(
    q: DistributionMatrix,
    settings: SettingsDistribution,
    ld_indices: Sequence[int],
) -> _KLProblem:
    """The search's cells and supports, built once for a run of calls on
    the same matrix, settings and boxes (both are immutable, so the same
    objects give the same problem)."""
    global _last_problem
    last_q, last_settings, last_indices, problem = _last_problem
    indices = tuple(ld_indices)
    if q is last_q and settings is last_settings and indices == last_indices:
        return problem
    # A cell in a row measured with probability 0 carries no weight, and
    # the mixture may leave it empty.
    positive = [
        (4 * r + c, prob * v)
        for r, (prob, row) in enumerate(zip(settings.probs, q.entries))
        if prob > 0
        for c, v in enumerate(row)
        if v > 0
    ]
    position = {cell: j for j, (cell, _) in enumerate(positive)}
    cells = [v for row in q.entries for v in row]
    supports = [
        tuple(position[k] for k in _box_support(i) if k in position) for i in indices
    ]
    overlaps = []
    for i, cells_i in enumerate(supports):
        for j in range(i, len(supports)):
            shared = tuple(c for c in cells_i if c in supports[j])
            if shared:
                overlaps.append((i, j, shared))
    problem = _KLProblem(
        tuple(float(w) for _, w in positive),
        tuple(float(cells[k]) for k, _ in positive),
        tuple(supports),
        tuple(overlaps),
    )
    _last_problem = (q, settings, indices, problem)
    return problem


def kl_objective(
    q: DistributionMatrix,
    settings: SettingsDistribution,
    ld_indices: Sequence[int],
    weights: Sequence[float],
) -> float:
    """KL divergence from ``q`` to the mixture of the given boxes."""
    problem = _kl_problem(q, settings, ld_indices)
    return problem.objective(problem.mixture([float(w) for w in weights]))


def kl_gradient(
    q: DistributionMatrix,
    settings: SettingsDistribution,
    ld_indices: Sequence[int],
    weights: Sequence[float],
) -> list[float]:
    """Gradient of :func:`kl_objective` in the box weights."""
    problem = _kl_problem(q, settings, ld_indices)
    return problem.gradient(problem.mixture([float(w) for w in weights]))


#: :func:`kl_minimize` stops once the Frank-Wolfe gap (:func:`kl_gap`)
#: is at most this many bits.
KL_GAP_TOLERANCE = 1e-10
#: :func:`kl_minimize` raises :class:`NonConvergenceError` after this
#: many iterations.
KL_MAX_ITERATIONS = 1_000
#: Added to the Hessian's diagonal, so that the 16-box catalog, whose
#: boxes are affinely dependent, still gets a direction.
_RIDGE = 1e-9
#: The largest share of its mass any cell may lose in one Newton step.
_CELL_LOSS = 0.5
#: Below this Newton decrement (bits) the full step is taken without a
#: line search: the decrease left is under the float resolution of the
#: objective, so comparing objective values would only stall the search.
_FULL_STEP_DECREMENT = 1e-9


def _frank_wolfe_gap(g: Sequence[float], x: Sequence[float]) -> float:
    return max(0.0, math.fsum(gv * xv for gv, xv in zip(g, x)) - min(g))


def _cholesky(h: list[list[float]], free: list[int]) -> list[list[float]]:
    """Lower-triangular rows L with L L^T = H + ridge I on the free boxes.
    The first m rows are the factor of the first m boxes' block."""
    lower: list[list[float]] = []
    for i in free:
        hi, row = h[i], []
        for other, j in zip(lower, free):
            row.append((hi[j] - sum(map(operator.mul, row, other))) / other[-1])
        pivot = hi[i] + _RIDGE - sum(map(operator.mul, row, row))
        row.append(math.sqrt(max(pivot, _RIDGE)))
        lower.append(row)
    return lower


def _newton_direction(lower: list[list[float]], g: list[float]) -> list[float]:
    """The d minimizing  g.d + d.M.d / 2  subject to sum(d) = 0, M = L L^T
    the first len(g) rows of ``lower``: d = -M^-1 (g + mu 1), with mu
    making the sum vanish."""
    m = len(g)
    u, v = [], []
    for row, gv in zip(lower, g):
        u.append((gv - sum(map(operator.mul, row, u))) / row[-1])
        v.append((1.0 - sum(map(operator.mul, row, v))) / row[-1])
    for a in reversed(range(m)):
        row = lower[a]
        u[a] /= row[a]
        v[a] /= row[a]
        for c in range(a):
            u[c] -= row[c] * u[a]
            v[c] -= row[c] * v[a]
    mu = -sum(u) / sum(v)
    return [-(a + mu * b) for a, b in zip(u, v)]


def _newton_step(problem: _KLProblem, x: list[float], s: list[float], f: float,
                 g: list[float]) -> tuple[list[float], list[float], float]:
    """One active-set Newton step from x; returns the new (x, s, f).

    The free boxes are the positive weights plus the zero-weight box of
    lowest gradient, which stays free only if the direction raises it.
    The step goes at most as far as the first weight reaching 0 (set to
    0 exactly) and as far as any cell losing :data:`_CELL_LOSS` of its
    mass, where the quadratic model of the logarithm stops being
    faithful.  It then halves until the Armijo condition holds, except
    below :data:`_FULL_STEP_DECREMENT`, where it is taken whole.
    """
    h = problem.hessian(s)
    free = [i for i, v in enumerate(x) if v > 0]
    zeros = [i for i, v in enumerate(x) if v == 0]
    if zeros:
        free.append(min(zeros, key=g.__getitem__))
    lower = _cholesky(h, free)
    d = _newton_direction(lower, [g[i] for i in free])
    if zeros and d[-1] <= 0:
        free.pop()
        d = _newton_direction(lower, [g[i] for i in free])
    step = [0.0] * len(x)
    for i, di in zip(free, d):
        step[i] = di
    slope = sum(gv * dv for gv, dv in zip(g, step))
    full, blocking = 1.0, None
    for i, (xv, dv) in enumerate(zip(x, step)):
        if dv < 0 and xv < -dv * full:
            full, blocking = xv / -dv, i
    for sv, dv in zip(s, problem.mixture(step)):
        if dv < 0 and _CELL_LOSS * sv < -dv * full:
            full, blocking = _CELL_LOSS * sv / -dv, None
    t = full
    while True:
        y = [max(0.0, xv + t * dv) for xv, dv in zip(x, step)]
        if t == full and blocking is not None:
            y[blocking] = 0.0
        total = sum(y)
        y = [v / total for v in y]
        s_new = problem.mixture(y)
        f_new = problem.objective(s_new)
        if -slope < _FULL_STEP_DECREMENT or f_new <= f + 1e-4 * t * slope:
            return y, s_new, f_new
        if t < 1e-15:
            return x, s, f
        t *= 0.5


def kl_minimize(
    q: DistributionMatrix,
    settings: SettingsDistribution,
    ld_indices: Sequence[int],
    start: Optional[Sequence[float]] = None,
) -> tuple[list[float], float, int]:
    """Minimize KL divergence over mixtures of the given boxes by
    active-set Newton steps on the simplex; returns
    ``(weights, divergence, iterations)``.

    Each iteration takes the gradient and stops once the Frank-Wolfe gap
    there (:func:`kl_gap`) is at most :data:`KL_GAP_TOLERANCE`; otherwise
    it takes one :func:`_newton_step`, which builds the Hessian over the
    cells the boxes share and solves the Newton system with sum(d) = 0
    over the free boxes.  A start already at the minimum takes one
    iteration.  Weights may end at exactly 0 on the simplex boundary.
    Hitting the iteration cap :data:`KL_MAX_ITERATIONS` raises
    :class:`NonConvergenceError` with the last iterate attached.
    """
    problem = _kl_problem(q, settings, ld_indices)
    k = len(problem.supports)
    if start is None:
        x = [1.0 / k] * k
    else:
        x = [float(v) for v in start]
        if any(v <= 0 for v in x):
            raise PreconditionError("the KL search needs a strictly positive start")
        total = sum(x)
        x = [v / total for v in x]
    s = problem.mixture(x)
    f = problem.objective(s)
    for iteration in range(1, KL_MAX_ITERATIONS + 1):
        g = problem.gradient(s)
        if _frank_wolfe_gap(g, x) <= KL_GAP_TOLERANCE:
            return x, f, iteration
        x, s, f = _newton_step(problem, x, s, f, g)
    raise NonConvergenceError(
        "the Newton search hit its iteration cap", best=(x, f, KL_MAX_ITERATIONS)
    )


def kl_gap(
    q: DistributionMatrix,
    settings: SettingsDistribution,
    ld_indices: Sequence[int],
    weights: Sequence[float],
) -> float:
    """Frank-Wolfe gap  g.x - min_i g_i  of :func:`kl_objective` at the
    weights x, with g its gradient there.  The objective is convex, so
    the gap bounds from above how far its value at x lies above its
    minimum over mixtures of the same boxes.  Rounding can put the float
    sum a few ulps below 0 at an exact minimizer; that reads as 0."""
    x = [float(w) for w in weights]
    return _frank_wolfe_gap(kl_gradient(q, settings, ld_indices, x), x)


def kl_closest_local(
    q: DistributionMatrix, settings: SettingsDistribution
) -> ClosestLocalResult:
    """A KL-closest local matrix for an n=2 query, over mixtures of the
    violated symmetry's 8 saturating deterministic boxes (which suffice:
    optimizing over all 16 reaches the same divergence).

    Starts from the read-off weights plus r/8 on each box, r the PR
    weight: the weights of the total-variation minimizer, all strictly
    positive, taken from the read-off without building that minimizer.
    Reports the iteration count and the final Frank-Wolfe gap
    (:func:`kl_gap`, on the problem the search built), which bounds the
    divergence's excess over the minimum from above.  Local queries
    return themselves at distance 0.
    """
    spread = _spread_readoff(q)
    if spread is None:
        return ClosestLocalResult(q, 0.0, None)
    indices, start = list(spread[0]), list(spread[0].values())
    x, _, iterations = kl_minimize(q, settings, indices, start)
    gap = kl_gap(q, settings, indices, x)
    exact = [Fraction(v) for v in x]
    total = sum(exact)
    exact = [v / total for v in exact]
    closest = mix([(ld_box(i), w) for i, w in zip(indices, exact)])
    weights = dict(zip(indices, x))
    return ClosestLocalResult(
        closest, kl_divergence(q, closest, settings), weights, iterations, gap
    )


# ---------------------------------------------------------------------------
# Projection onto the saturating face
# ---------------------------------------------------------------------------


def face_projection(
    q: DistributionMatrix, s_local: DistributionMatrix
) -> tuple[Fraction, DistributionMatrix]:
    """Mix a violating matrix with a local one onto the face of the local
    polytope below the violated box g, at any n.

    Let r = 1 - (chained value of ``q`` against g), g's weight in ``q``.
    A deterministic box with 2m+1 support mismatches against g cancels
    2m of g's mass (:func:`~bellpoly.chained.mismatch_replacement`), so
    ``s_local`` cancels e = (its chained value against g) - 1, and
    lam = e / (e + r) makes  lam q + (1 - lam) s_local  a mixture of g's
    one-mismatch companions alone.  Its cell read-off against g is the
    certificate: box weight 0, no negative weight, exact reconstruction.
    Returns ``(lam, mixture)``.
    """
    g = identify_gpr(q)
    if g is None:
        raise NotApplicableError(
            "face projection needs a CHSH-violating first argument"
        )
    if identify_gpr(s_local) is not None:
        raise PreconditionError("second argument must be a local matrix")
    excess = chained_value(s_local, g) - 1
    r = 1 - chained_value(q, g)
    lam = excess / (excess + r)
    projected = mix([(q, lam), (s_local, 1 - lam)])
    terms, weight = readoff_weights(projected, g)
    if weight != 0 or any(w < 0 for _, w in terms) or mix(terms) != projected:
        raise InvariantViolationError(
            "projected matrix must lie on the saturating face"
        )
    return lam, projected
