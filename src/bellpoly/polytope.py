"""The chained no-signaling polytope: exact extremality certificates
and full vertex enumeration.

The polytope lives in R^(8n).  It is cut out by the 4n equalities of
:func:`~bellpoly.core.equalities` (2n row normalizations and 2n
marginal-consistency, or no-signaling, equalities) and by nonnegativity
of the 8n cells.  :func:`equality_matrix` holds the equalities as one
integer matrix of rank 4n, so the polytope has dimension 4n, and a
member is a vertex exactly when the equalities plus its *active*
nonnegativity rows (one per zero cell) reach full rank 8n.  That rank
is the number of zero cells plus the rank of the equalities on the
support, an integer system; a member with fewer than 4n zero cells
cannot reach it, so :func:`is_extremal` answers those without a rank.

Vertex enumeration is the double-description method (Motzkin et al.
1953; Fukuda & Prodon 1996) in exact integer arithmetic.  Solving the
equalities for 4n basis cells writes the polytope as ``x0 + N y >= 0``
over the other 4n cells ``y``; its vertices are the extreme rays of
the homogenized cone ``{(t, y) : t >= 0, t x0 + N y >= 0}``, found by
cutting the orthant ``t, y >= 0`` with the basis cells' rows one at a
time.  No floating point is involved.  The vertices are sorted on
integer keys, their cells' numerators over one common denominator, and
every vertex returned is re-certified by the integer checks of
:func:`~bellpoly.core.validate` and the rank test above.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

from . import exactlin
from .core import (
    CapacityError,
    DistributionMatrix,
    InvariantViolationError,
    Scenario,
    equalities,
    require_member,
    validate,
)


@functools.cache
def equality_matrix(scenario: Scenario) -> tuple[tuple[int, ...], ...]:
    """The 4n x 8n coefficients of :func:`~bellpoly.core.equalities`:
    one row per equality in table order, 1 on its ``plus`` cells and -1
    on its ``minus`` cells."""
    rows = []
    for eq in equalities(scenario):
        row = [0] * scenario.num_cells
        for k in eq.plus:
            row[k] = 1
        for k in eq.minus:
            row[k] = -1
        rows.append(tuple(row))
    return tuple(rows)


def active_rank(dm: DistributionMatrix) -> int:
    """Rank of the constraints active at ``dm``: every equality plus the
    nonnegativity of each zero cell.

    The nonnegativity rows are unit vectors on the zero cells, so they
    contribute one each and clear their columns: the rank is the number
    of zero cells plus the rank of :func:`equality_matrix` restricted to
    the support, a 4n-row integer system over at most 8n columns.
    """
    cells = [v for row in dm.entries for v in row]
    support = [k for k, v in enumerate(cells) if v]
    restricted = [[row[k] for k in support] for row in equality_matrix(dm.scenario)]
    return len(cells) - len(support) + exactlin.rank(restricted)


def is_extremal(dm: DistributionMatrix) -> bool:
    """Whether a polytope member is a vertex: active rank equals 8n.

    The 4n equalities have rank at most 4n on the support, so a member
    with fewer than 4n zero cells has active rank below 8n and is
    answered without computing a rank.
    """
    require_member(dm, context="is_extremal")
    ncells = dm.scenario.num_cells
    zeros = sum(not v for row in dm.entries for v in row)
    if zeros + len(equality_matrix(dm.scenario)) < ncells:
        return False
    return active_rank(dm) == ncells


# ---------------------------------------------------------------------------
# Vertex enumeration
# ---------------------------------------------------------------------------


def extreme_rays(rows: Sequence[Sequence[int]], dim: int) -> list[tuple[int, ...]]:
    """Extreme rays of the cone ``{z in R^dim : z >= 0, r . z >= 0 for r
    in rows}``, as primitive integer vectors, by double description.

    Starts from the unit rays of the orthant and cuts by one row at a
    time.  Each ray carries its zero set: an int bitset of the
    constraints seen so far that it is tight on (bit ``k < dim`` for
    ``z_k >= 0``, bit ``dim + i`` for ``rows[i]``).  A cut keeps the rays
    on its nonnegative side and adds, for each adjacent pair of rays on
    opposite sides, their integer combination on the cut's hyperplane.
    Two rays are adjacent when they share at least ``dim - 2`` tight
    constraints and no third ray is tight on all of those (the
    combinatorial test).
    """
    everything = (1 << dim) - 1
    rays = [
        (tuple(int(k == j) for j in range(dim)), everything ^ (1 << k))
        for k in range(dim)
    ]
    for i, row in enumerate(rows):
        bit = 1 << (dim + i)
        kept, positive, negative = [], [], []
        for ray, zeros in rays:
            value = sum(a * z for a, z in zip(row, ray))
            if value > 0:
                positive.append((ray, zeros, value))
            elif value < 0:
                negative.append((ray, zeros, value))
            else:
                zeros |= bit
            if value >= 0:
                kept.append((ray, zeros))
        for p, zp, vp in positive:
            for q, zq, vq in negative:
                common = zp & zq
                if common.bit_count() < dim - 2 or any(
                    other & common == common
                    for _, other in rays
                    if other != zp and other != zq
                ):
                    continue
                ray = tuple(vp * b - vq * a for a, b in zip(p, q))
                g = math.gcd(*ray)
                kept.append((tuple(v // g for v in ray), common | bit))
        rays = kept
    return [ray for ray, _ in rays]


def enumerate_vertices(scenario: Scenario) -> tuple[DistributionMatrix, ...]:
    """All vertices of the chained no-signaling polytope, exactly, in
    ascending order of their row-major cells.

    The equalities are solved for 4n basis cells, the pivot columns of
    one :func:`~bellpoly.exactlin.reduce_system`, so that the other 4n
    (free) cells ``y`` parametrize the polytope as ``x0 + N y >= 0``.
    Its vertices are the extreme rays ``(t, y)`` of the cone
    ``{t >= 0, y >= 0, t x0 + N y >= 0}`` scaled to ``t = 1``
    (:func:`extreme_rays`; the polytope is bounded, so ``t > 0`` on
    every one).  Each vertex is then certified exactly: it passes
    :func:`~bellpoly.core.validate` and its active rows reach rank 8n.
    n=4 (384 vertices) takes 0.2-0.35 s on a 2-vCPU Xeon VM (Python
    3.11); larger n raises :class:`CapacityError`.
    """
    if scenario.n > 4:
        raise CapacityError(
            f"vertex enumeration supports n in 2..4, got n={scenario.n}"
        )
    matrix = equality_matrix(scenario)
    bounds = [eq.bound for eq in equalities(scenario)]
    ncells = scenario.num_cells
    # The pivot columns of the reduced row echelon form: each cell not in
    # the span of the cells before it.
    reduced, _ = exactlin.reduce_system(matrix, bounds)
    basis = [next(k for k, v in enumerate(row) if v) for row in reduced]
    free = [c for c in range(ncells) if c not in basis]
    square = [[row[k] for k in basis] for row in matrix]
    # Column 0 holds x0 on the basis cells, column 1 + j the coefficients
    # of free cell j: x_basis = x0 - inverse(square) * E[:, free] * y.
    columns = [exactlin.solve_square(square, bounds)]
    for f in free:
        column = exactlin.solve_square(square, [row[f] for row in matrix])
        columns.append([-v for v in column])
    cuts, scales = [], []
    for row in zip(*columns):
        cut, scale = exactlin.common_denominator(row)
        cuts.append(cut)
        scales.append(scale)
    # Each vertex as the numerators of its cells over ``common * t``.
    common = math.lcm(*scales)
    numerators = []
    for ray in extreme_rays(cuts, len(free) + 1):
        cells = [0] * ncells
        for k, v in zip(free, ray[1:]):
            cells[k] = v * common
        for k, cut, scale in zip(basis, cuts, scales):
            cells[k] = sum(a * z for a, z in zip(cut, ray)) * (common // scale)
        numerators.append((ray[0], cells))
    # Over one denominator for all of them, integer keys sort like the cells.
    denominator = math.lcm(*(t for t, _ in numerators))
    numerators.sort(key=lambda tc: [v * (denominator // tc[0]) for v in tc[1]])
    vertices = []
    for t, cells in numerators:
        d = common * t
        rows = tuple(
            tuple(Fraction(v, d) for v in cells[4 * r : 4 * r + 4])
            for r in range(scenario.num_rows)
        )
        dm = DistributionMatrix(scenario, rows)
        if validate(dm) or active_rank(dm) != ncells:
            raise InvariantViolationError(
                "enumeration produced a point that is not a vertex"
            )
        vertices.append(dm)
    return tuple(vertices)
