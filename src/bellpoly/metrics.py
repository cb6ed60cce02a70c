"""Distances from a nonlocal matrix to the local polytope.

Total-variation distance over the conditional cells has a closed-form
minimizer for n=2: spread the PR weight of the read-off decomposition
uniformly over the 8 saturating deterministic boxes.  The distance then
equals the PR weight itself.  Kullback-Leibler divergence (computed on
joint distributions including the settings probabilities) has no closed
form and is minimized numerically by mirror descent over deterministic-
box weights; restricting to the 8 saturating boxes loses nothing, which
is checked in the test suite against the full 16-box optimization.

Also here: :func:`face_projection`, the exact mixing coefficient that
lands a combination of a violating matrix and a local matrix on the
saturating face of the violated CHSH inequality.

Each function identifies the violated box once, through
:func:`~bellpoly.chsh.violated_symmetry` (the chained engine at n=2);
the PR weight is 1 minus that box's chained value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np

from .chained import chained_value, readoff_weights
from .chsh import (
    decompose_local_222,
    ld_index_of,
    ld_mixture_weights,
    violated_symmetry,
)
from .core import (
    DistributionMatrix,
    InvariantViolationError,
    NonConvergenceError,
    NotApplicableError,
    PreconditionError,
    SettingsDistribution,
    ld_box,
    mix,
    pr_box,
    require_member,
)


@dataclass(frozen=True)
class ClosestLocalResult:
    """A local matrix nearest to the query, the distance achieved, and
    the deterministic-box weights realizing it (``None`` for a local
    query, which is its own closest point at distance 0)."""

    closest: DistributionMatrix
    distance: Fraction | float
    weights: Optional[Mapping[int, Fraction | float]]


# ---------------------------------------------------------------------------
# Total variation
# ---------------------------------------------------------------------------


def tv_distance(q: DistributionMatrix, s: DistributionMatrix) -> Fraction:
    """Half the sum of absolute cell differences, over all 8n cells."""
    if q.scenario != s.scenario:
        raise PreconditionError("matrix scenarios differ")
    total = sum(
        (abs(a - b) for ra, rb in zip(q.entries, s.entries) for a, b in zip(ra, rb)),
        Fraction(0),
    )
    return total / 2


def tv_closest_local(q: DistributionMatrix) -> ClosestLocalResult:
    """A total-variation-closest local matrix for an n=2 query.

    For a violating matrix with read-off weights p_i and PR weight r,
    the mixture with weights p_i + r/8 on the 8 saturating boxes is
    closest, at distance exactly r.  Local queries return themselves at
    distance 0.
    """
    require_member(q, context="tv_closest_local")
    sym = violated_symmetry(q)
    if sym is None:
        return ClosestLocalResult(q, Fraction(0), None)
    # The read-off boxes are exactly the symmetry's 8 saturating boxes.
    ld_terms, pr_weight = readoff_weights(q, pr_box(sym.index))
    weights = dict(
        sorted((ld_index_of(box.matrix()), w + pr_weight / 8) for box, w in ld_terms)
    )
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


def _ld_cell_array(indices: Sequence[int]) -> np.ndarray:
    """0/1 array (len(indices), 16): deterministic-box support cells."""
    rows = []
    for i in indices:
        m = ld_box(i).matrix()
        rows.append([float(v) for row in m.entries for v in row])
    return np.asarray(rows)


def kl_objective(
    q: DistributionMatrix,
    settings: SettingsDistribution,
    ld_indices: Sequence[int],
    weights,
) -> float:
    """KL divergence from ``q`` to the mixture of the given boxes."""
    D = _ld_cell_array(ld_indices)
    x = np.asarray([float(w) for w in weights])
    qcells = np.asarray([float(v) for row in q.entries for v in row])
    sprobs = np.repeat(np.asarray([float(p) for p in settings.probs]), 4)
    scells = x @ D
    mask = qcells > 0
    if np.any(scells[mask] <= 0):
        return math.inf
    return float(
        np.sum(sprobs[mask] * qcells[mask] * np.log2(qcells[mask] / scells[mask]))
    )


def kl_gradient(
    q: DistributionMatrix,
    settings: SettingsDistribution,
    ld_indices: Sequence[int],
    weights,
) -> np.ndarray:
    """Gradient of :func:`kl_objective` in the box weights."""
    D = _ld_cell_array(ld_indices)
    x = np.asarray([float(w) for w in weights])
    qcells = np.asarray([float(v) for row in q.entries for v in row])
    sprobs = np.repeat(np.asarray([float(p) for p in settings.probs]), 4)
    scells = x @ D
    mask = qcells > 0
    ratio = np.zeros_like(qcells)
    ratio[mask] = sprobs[mask] * qcells[mask] / scells[mask]
    return -(D @ ratio) / math.log(2.0)


def kl_minimize(
    q: DistributionMatrix,
    settings: SettingsDistribution,
    ld_indices: Sequence[int],
    start=None,
    *,
    relative_tolerance: float = 1e-12,
    max_iterations: int = 100_000,
) -> tuple[np.ndarray, float, int]:
    """Minimize KL divergence over mixtures of the given boxes by mirror
    descent (multiplicative weight updates, which keep the iterate in
    the open simplex).

    Steps that fail to decrease the objective halve the step size; the
    run stops once an accepted step improves the objective by less than
    ``relative_tolerance`` in relative terms.  Hitting the iteration cap
    raises :class:`NonConvergenceError` with the best iterate attached.
    """
    k = len(ld_indices)
    if start is None:
        x = np.full(k, 1.0 / k)
    else:
        x = np.asarray([float(v) for v in start])
        if np.any(x <= 0):
            raise PreconditionError("mirror descent needs a strictly positive start")
        x = x / x.sum()
    f = kl_objective(q, settings, ld_indices, x)
    step = 1.0
    for iteration in range(1, max_iterations + 1):
        g = kl_gradient(q, settings, ld_indices, x)
        g = g - g.max()  # exp-normalization; shifts cancel on the simplex
        while True:
            y = x * np.exp(-step * g)
            y = y / y.sum()
            f_new = kl_objective(q, settings, ld_indices, y)
            if f_new <= f or step < 1e-18:
                break
            step *= 0.5
        improvement = f - f_new
        x, f = y, f_new
        step *= 1.5
        if improvement <= relative_tolerance * max(abs(f), 1e-30):
            return x, f, iteration
    raise NonConvergenceError(
        "mirror descent hit its iteration cap", best=(x, f, max_iterations)
    )


def kl_closest_local(
    q: DistributionMatrix, settings: SettingsDistribution
) -> ClosestLocalResult:
    """A KL-closest local matrix for an n=2 query, over mixtures of the
    violated symmetry's 8 saturating deterministic boxes (which suffice:
    optimizing over all 16 reaches the same divergence).

    Starts from the total-variation minimizer, whose weights are
    strictly positive.  Local queries return themselves at distance 0.
    """
    require_member(q, context="kl_closest_local")
    tv = tv_closest_local(q)
    if tv.weights is None:
        return ClosestLocalResult(q, 0.0, None)
    indices = sorted(tv.weights)
    start = [tv.weights[i] for i in indices]
    x, value, _ = kl_minimize(q, settings, indices, start)
    exact = [Fraction(float(v)) for v in x]
    total = sum(exact)
    exact = [v / total for v in exact]
    closest = mix([(ld_box(i), w) for i, w in zip(indices, exact)])
    weights = {i: float(v) for i, v in zip(indices, x)}
    return ClosestLocalResult(closest, kl_divergence(q, closest, settings), weights)


# ---------------------------------------------------------------------------
# Projection onto the saturating face
# ---------------------------------------------------------------------------


def face_projection(
    q: DistributionMatrix, s_local: DistributionMatrix
) -> tuple[Fraction, DistributionMatrix]:
    """Mix a violating matrix with a local one onto the saturating face.

    With r the PR weight of ``q`` and n the weight ``s_local`` puts on
    boxes outside the violated symmetry's saturating set, the coefficient
    lam = 2n / (2n + r) makes  lam q + (1 - lam) s_local  an exact convex
    combination of the 8 saturating boxes: the PR mass lam r is consumed
    by casting it out against the outside-boxes' mass (1 - lam) n at the
    2-to-1 ratio of the cast-out identity.  Returns ``(lam, mixture)``.
    """
    require_member(q, context="face_projection")
    require_member(s_local, context="face_projection")
    sym = violated_symmetry(q)
    if sym is None:
        raise NotApplicableError(
            "face projection needs a CHSH-violating first argument"
        )
    if violated_symmetry(s_local) is not None:
        raise PreconditionError("second argument must be a local matrix")
    s_dec = decompose_local_222(s_local)
    outside = sum(
        (
            w
            for box, w in s_dec.ld_terms
            if ld_index_of(box.matrix()) not in sym.saturating_set
        ),
        Fraction(0),
    )
    r = 1 - chained_value(q, pr_box(sym.index))
    lam = 2 * outside / (2 * outside + r)
    projected = mix([(q, lam), (s_local, 1 - lam)])
    if ld_mixture_weights(projected, sorted(sym.saturating_set)) is None:
        raise InvariantViolationError(
            "projected matrix must lie on the saturating face"
        )
    return lam, projected
