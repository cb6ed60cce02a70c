"""Exact rational linear algebra: rank, square solves, system reduction,
affine projection, and a feasibility simplex with Bland's rule.

Every routine takes rationals (ints or :class:`fractions.Fraction`) and
returns ``Fraction``s, but all of them run on one integer-preserving
Gauss-Jordan kernel (Edmonds, J. Res. NBS 71B, 1967; Bareiss, Math. Comp.
22, 1968).  Each input row is scaled to integers by the lcm of its own
denominators, which changes neither its solutions nor its row space; a
row of ints is only copied.  The matrix keeps one common denominator
``d``: the rational matrix is the integer one divided by ``d``.  A pivot
on the entry ``p`` updates every other row as
``(row * p - f * pivot_row) // d`` and then takes ``d = p``.
Every entry is then a minor of the scaled input, so the one division per
update is exact and the integers never grow past those minors.  A
``Fraction`` operation would instead normalise by a gcd each time; here
``Fraction``s are built only for the results.  The pivot order is that of
rational Gauss-Jordan, so the results are the same.

Bland's anti-cycling rule makes every simplex run terminate, which keeps
feasibility answers exact yes/no decisions rather than numerical guesses.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .core import InvariantViolationError, common_denominator

#: The type of every rational result.
QQ = Fraction


def _scaled(rows) -> list[list[int]]:
    """Each row times the lcm of its entries' denominators; a row of
    ints is copied as it is."""
    return [
        list(row) if all(type(v) is int for v in row) else common_denominator(row)[0]
        for row in rows
    ]


def _augmented(rows, rhs) -> list[list[int]]:
    return _scaled([*row, b] for row, b in zip(rows, rhs))


# ---------------------------------------------------------------------------
# Integer-preserving Gauss-Jordan elimination
# ---------------------------------------------------------------------------


def _eliminate(rows: list[list[int]], r: int, col: int, d: int) -> int:
    """One integer-preserving Gauss-Jordan step on ``rows``, in place.

    ``rows`` over ``d`` is the rational matrix.  Clears ``col`` from every
    row but ``rows[r]`` and returns the new common denominator, the pivot
    ``rows[r][col]``.  A row whose ``col`` entry is already 0 is only
    rescaled, and not even that when the pivot equals ``d``.
    """
    pivot_row = rows[r]
    p = pivot_row[col]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[col]
        if f:
            row[:] = [(v * p - f * w) // d for v, w in zip(row, pivot_row)]
        elif p != d:
            row[:] = [v * p // d for v in row]
    return p


def _row_reduce(m: list[list[int]], ncols: int) -> tuple[int, int]:
    """Bring the first ``ncols`` columns of ``m`` to reduced row echelon
    form in place, pivoting on the first nonzero entry of each column;
    return the rank of those columns and the common denominator."""
    r, d = 0, 1
    for col in range(ncols):
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        d = _eliminate(m, r, col, d)
        r += 1
    return r, d


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of a matrix given as a sequence of rows."""
    m = _scaled(rows)
    if not m:
        return 0
    return _row_reduce(m, len(m[0]))[0]


def _solve(aug: list[list[int]]) -> Optional[tuple[list[int], int]]:
    """Numerators and common denominator of the solution of a square
    system given as integer augmented rows; ``None`` if it is singular."""
    n = len(aug)
    r, d = _row_reduce(aug, n)
    if r < n:
        return None
    return [row[-1] for row in aug], d


def solve_square(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Optional[list[Fraction]]:
    """Solve a square system exactly; ``None`` if the matrix is singular."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise InvariantViolationError("solve_square requires a square system")
    solution = _solve(_augmented(matrix, rhs))
    if solution is None:
        return None
    numerators, d = solution
    return [Fraction(v, d) for v in numerators]


def _reduce(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Optional[tuple[list[list[int]], int]]:
    """Independent integer rows of the augmented system ``[rows | rhs]``
    and their common denominator, or ``None`` when the system is
    inconsistent."""
    if not rows:
        return [], 1
    aug = _augmented(rows, rhs)
    r, d = _row_reduce(aug, len(rows[0]))
    if any(row[-1] for row in aug[r:]):
        return None
    return aug[:r], d


def reduce_system(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Optional[tuple[list[list[Fraction]], list[Fraction]]]:
    """Row-reduce ``rows * x = rhs`` to an equivalent independent system.

    Returns ``None`` when the system is inconsistent.  The reduced system
    has full row rank and the same solution set as the input.
    """
    reduced = _reduce(rows, rhs)
    if reduced is None:
        return None
    kept, d = reduced
    return (
        [[Fraction(v, d) for v in row[:-1]] for row in kept],
        [Fraction(row[-1], d) for row in kept],
    )


def project_onto_affine(
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    point: Sequence[Fraction],
) -> list[Fraction]:
    """Exact least-squares projection of ``point`` onto ``{x : rows x = rhs}``.

    Computes ``x - E^T (E E^T)^{-1} (E x - rhs)`` after reducing ``E`` to
    full row rank, which is the unique minimum-Euclidean-adjustment point
    satisfying the equalities.  The formula is unchanged when the rows of
    ``[E | rhs]`` are rescaled, so it runs on the reduced integer rows,
    with ``x`` as integers over their least common denominator.
    """
    reduced = _reduce(rows, rhs)
    if reduced is None:
        raise InvariantViolationError("projection target system is inconsistent")
    kept = reduced[0]
    if not kept:
        return list(point)
    E = [row[:-1] for row in kept]
    x, scale = common_denominator(point)
    # The Gram system (E E^T) y = E x - rhs, times ``scale``.
    gram = [
        [*(sum(u * v for u, v in zip(ri, rj)) for rj in E),
         sum(u * v for u, v in zip(ri, x)) - scale * row[-1]]
        for ri, row in zip(E, kept)
    ]
    solution = _solve(gram)
    if solution is None:
        raise InvariantViolationError("reduced system lost full row rank")
    y, d = solution
    return [
        Fraction(xv * d - sum(row[k] * yv for row, yv in zip(E, y)), d * scale)
        for k, xv in enumerate(x)
    ]


# ---------------------------------------------------------------------------
# Feasibility simplex (Bland's rule)
# ---------------------------------------------------------------------------


def _run(tableau: list[list[int]], z: list[int], basis: list[int], ncols: int,
         d: int) -> int:
    """Minimize until no negative reduced cost remains (Bland's rule).

    The common denominator ``d`` is positive and stays so, since every
    pivot is positive; ratios compare by cross-multiplying.  Returns the
    final ``d``.
    """
    system = tableau + [z]
    while True:
        pcol = next((j for j in range(ncols) if z[j] < 0), None)
        if pcol is None:
            return d
        prow = None
        for i, row in enumerate(tableau):
            coeff = row[pcol]
            if coeff > 0:
                if prow is None:
                    prow, best_value, best_coeff = i, row[-1], coeff
                    continue
                lhs, rhs = row[-1] * best_coeff, best_value * coeff
                if lhs < rhs or (lhs == rhs and basis[i] < basis[prow]):
                    prow, best_value, best_coeff = i, row[-1], coeff
        if prow is None:
            raise InvariantViolationError("linear program is unbounded")
        d = _eliminate(system, prow, pcol, d)
        basis[prow] = pcol


def simplex_feasible(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Optional[list[Fraction]]:
    """One exact basic solution of ``rows x = rhs, x >= 0``, or ``None``.

    Phase 1 of the simplex method: the system is reduced to full row
    rank, each row gets an artificial variable, and Bland's rule drives
    the artificial sum to its minimum.  The system is feasible exactly
    when that minimum is 0.
    """
    nvars = len(rows[0]) if rows else 0
    reduced = _reduce(rows, rhs)
    if reduced is None:
        return None
    kept, d = reduced
    m = len(kept)
    if m == 0:
        # No constraints beyond x >= 0: the origin is a basic solution.
        return [Fraction(0)] * nvars
    if d < 0:
        kept, d = [[-v for v in row] for row in kept], -d
    tableau = []
    for i, row in enumerate(kept):
        if row[-1] < 0:
            row = [-v for v in row]
        artificial = [0] * m
        artificial[i] = d
        tableau.append(row[:-1] + artificial + [row[-1]])
    basis = [nvars + i for i in range(m)]
    z = [-sum(column) for column in zip(*tableau)]
    for j in range(nvars, nvars + m):
        z[j] += d
    d = _run(tableau, z, basis, nvars + m, d)
    if z[-1] != 0:  # minus the minimum of the artificial sum
        return None
    # Pivot any zero-level artificial out of the basis; the pre-reduction
    # to full row rank guarantees a real column is available.
    for i in range(m):
        if basis[i] >= nvars:
            pcol = next((j for j in range(nvars) if tableau[i][j]), None)
            if pcol is None:
                raise InvariantViolationError(
                    "redundant row survived system reduction"
                )
            d = _eliminate(tableau, i, pcol, d)
            basis[i] = pcol
    x = [Fraction(0)] * nvars
    for i, j in enumerate(basis):
        x[j] = Fraction(tableau[i][-1], d)
    return x
