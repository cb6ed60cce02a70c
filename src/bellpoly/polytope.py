"""The chained no-signaling polytope as an explicit constraint system:
exact extremality certificates and full vertex enumeration.

Membership is cut out by 2n row-normalization equalities, 2n marginal-
consistency (no-signaling) equalities, and 8n cell nonnegativity
inequalities in R^(8n).  The equality system has rank 4n, so the
polytope has dimension 4n, and a member is a vertex exactly when its
equalities plus *active* nonnegativity rows reach full rank 8n.

Vertex enumeration is the double-description method (Motzkin et al.
1953; Fukuda & Prodon 1996) in exact integer arithmetic.  Solving the
equalities for 4n basis cells writes the polytope as ``x0 + N y >= 0``
over the other 4n cells ``y``; its vertices are the extreme rays of
the homogenized cone ``{(t, y) : t >= 0, t x0 + N y >= 0}``, found by
cutting the orthant ``t, y >= 0`` with the basis cells' rows one at a
time.  No floating point is involved, and every vertex returned is
re-certified by the rank test above, computed as the number of zero
cells plus the rank of the equalities on the support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

from . import exactlin
from .core import (
    COLUMNS,
    CapacityError,
    DistributionMatrix,
    InvariantViolationError,
    Scenario,
    _setting_rows,
    require_member,
    validate,
)

Kind = Literal["equality", "nonnegativity"]


@dataclass(frozen=True)
class ConstraintRow:
    """One constraint: ``coeffs . x = bound`` for equalities, or
    ``coeffs . x <= bound`` for nonnegativity rows (which are stored as
    ``-x_cell <= 0``)."""

    coeffs: tuple[Fraction, ...]
    bound: Fraction
    kind: Kind
    label: str


@dataclass(frozen=True)
class ConstraintSystem:
    scenario: Scenario
    rows: tuple[ConstraintRow, ...]

    def equalities(self) -> tuple[ConstraintRow, ...]:
        return tuple(r for r in self.rows if r.kind == "equality")

    def nonnegativities(self) -> tuple[ConstraintRow, ...]:
        return tuple(r for r in self.rows if r.kind == "nonnegativity")


def build_constraints(scenario: Scenario) -> ConstraintSystem:
    """The full constraint description of the no-signaling polytope.

    Row order: 2n normalizations, then no-signaling rows for Alice's
    settings and Bob's settings in ascending order, then one
    nonnegativity row per cell in row-major cell order.
    """
    ncells = scenario.num_cells
    labels = scenario.row_labels()
    rows: list[ConstraintRow] = []
    zero, one = Fraction(0), Fraction(1)
    for r in range(scenario.num_rows):
        coeffs = [zero] * ncells
        for c in range(4):
            coeffs[4 * r + c] = one
        rows.append(ConstraintRow(tuple(coeffs), one, "equality", f"normalization {labels[r]}"))
    alice, bob = _setting_rows(scenario)
    for side, items in (("a", alice), ("b", bob)):
        cols = (0, 1) if side == "a" else (0, 2)
        for setting, (first, second) in items:
            coeffs = [zero] * ncells
            for c in cols:
                coeffs[4 * first + c] += one
                coeffs[4 * second + c] -= one
            rows.append(
                ConstraintRow(
                    tuple(coeffs),
                    zero,
                    "equality",
                    f"no-signaling {side}{setting}",
                )
            )

    for r in range(scenario.num_rows):
        for c in range(4):
            coeffs = [zero] * ncells
            coeffs[4 * r + c] = -one
            rows.append(
                ConstraintRow(
                    tuple(coeffs),
                    zero,
                    "nonnegativity",
                    f"cell ({labels[r]}, {COLUMNS[c]})",
                )
            )
    return ConstraintSystem(scenario, tuple(rows))


def rank_exact(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of a coefficient matrix (thin wrapper for callers that
    assemble their own active systems)."""
    return exactlin.rank(rows)


def active_rows(
    system: ConstraintSystem, dm: DistributionMatrix
) -> list[ConstraintRow]:
    """All equality rows plus the nonnegativity rows tight at ``dm``."""
    cells = [v for row in dm.entries for v in row]
    active = list(system.equalities())
    for row in system.nonnegativities():
        value = sum((c * x for c, x in zip(row.coeffs, cells) if c), Fraction(0))
        if value == row.bound:
            active.append(row)
    return active


def active_rank(system: ConstraintSystem, dm: DistributionMatrix) -> int:
    """Rank of :func:`active_rows` at ``dm``.

    The tight nonnegativity rows are unit vectors on the zero cells, so
    they contribute one each and clear their columns: the rank is the
    number of zero cells plus the rank of the equality rows restricted
    to the support, a 4n-row system over at most 8n columns.
    """
    cells = [v for row in dm.entries for v in row]
    support = [k for k, v in enumerate(cells) if v != 0]
    restricted = [[r.coeffs[k] for k in support] for r in system.equalities()]
    return len(cells) - len(support) + exactlin.rank(restricted)


def is_extremal(dm: DistributionMatrix) -> bool:
    """Whether a polytope member is a vertex: active rank equals 8n."""
    require_member(dm, context="is_extremal")
    system = build_constraints(dm.scenario)
    return active_rank(system, dm) == dm.scenario.num_cells


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

    The equalities are solved for 4n basis cells, so that the other 4n
    (free) cells ``y`` parametrize the polytope as ``x0 + N y >= 0``.
    Its vertices are the extreme rays ``(t, y)`` of the cone
    ``{t >= 0, y >= 0, t x0 + N y >= 0}`` scaled to ``t = 1``
    (:func:`extreme_rays`; the polytope is bounded, so ``t > 0`` on
    every one).  Each vertex is then certified exactly: it passes
    :func:`~bellpoly.core.validate` and its active rows reach rank 8n.
    n=4 (384 vertices) takes seconds; larger n raises
    :class:`CapacityError`.
    """
    if scenario.n > 4:
        raise CapacityError(
            f"vertex enumeration supports n in 2..4, got n={scenario.n}"
        )
    system = build_constraints(scenario)
    eqs = system.equalities()
    ncells = scenario.num_cells
    basis: list[int] = []
    for c in range(ncells):
        columns = [[r.coeffs[k] for r in eqs] for k in (*basis, c)]
        if exactlin.rank(columns) > len(basis):
            basis.append(c)
    free = [c for c in range(ncells) if c not in basis]
    square = [[r.coeffs[k] for k in basis] for r in eqs]
    # Column 0 holds x0 on the basis cells, column 1 + j the coefficients
    # of free cell j: x_basis = x0 - inverse(square) * E[:, free] * y.
    columns = [exactlin.solve_square(square, [r.bound for r in eqs])]
    for f in free:
        column = exactlin.solve_square(square, [r.coeffs[f] for r in eqs])
        columns.append([-v for v in column])
    cuts, scales = [], []
    for row in zip(*columns):
        cut, scale = exactlin.common_denominator(row)
        cuts.append(cut)
        scales.append(scale)
    vertices = []
    for ray in extreme_rays(cuts, len(free) + 1):
        t = ray[0]
        cells = [Fraction(0)] * ncells
        for k, v in zip(free, ray[1:]):
            cells[k] = Fraction(v, t)
        for k, cut, scale in zip(basis, cuts, scales):
            cells[k] = Fraction(sum(a * z for a, z in zip(cut, ray)), scale * t)
        rows = tuple(tuple(cells[4 * r : 4 * r + 4]) for r in range(scenario.num_rows))
        vertices.append(DistributionMatrix(scenario, rows))
    vertices.sort(key=lambda dm: [v for row in dm.entries for v in row])
    for dm in vertices:
        if validate(dm) or active_rank(system, dm) != ncells:
            raise InvariantViolationError(
                "enumeration produced a point that is not a vertex"
            )
    return tuple(vertices)
