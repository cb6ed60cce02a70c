"""Independent cross-checks used by the test suite.

Each oracle recomputes a quantity from first principles -- plain cell
arithmetic, an exact LP over the full local polytope, or a brute grid
search -- deliberately sharing as little code as possible with the
library path it checks.  Where a table of cells is needed (the eight
four-term rewrites of the CHSH quantity), the oracle carries its own
literal copy so a transcription slip in the library is caught rather
than reproduced.

:func:`kl_mirror_descent` minimizes KL divergence over box weights by
mirror descent on the joint distribution, with its own gradient and no
code from ``bellpoly.metrics``, whose Newton search it checks.

:func:`validate_direct` recomputes membership reports by summing cells
over the scenario's setting pairs, without the library's equality table.

:func:`chained_minimum` checks box identification by trying every
row-type pattern on integer numerators, without the library's box
types, enumeration or chained functional.

:func:`mix_direct`, :func:`efficiency_direct` and :func:`tv_direct`
recompute mixing, the detector-efficiency transform and total-variation
distance cell by cell in ``Fraction``s, from the boxes' letters
(:func:`box_cells`) and each side's detection channel rather than the
library's matrices and closed-form rows.

The exact LP in :func:`tv_lp_oracle` is solved by this module's own
dense-tableau simplex over ``Fraction``s (:func:`simplex_minimize`), so
it shares no code with ``bellpoly.exactlin``, whose integer-preserving
kernel it checks: ``tests/test_exactlin.py`` compares that kernel with
this simplex's phase 1, a dense elimination and a brute-force LP.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

from bellpoly import (
    DistributionMatrix,
    InvariantViolationError,
    as_matrix,
    chsh_value,
    ld_box,
    pr_box,
)

# ---------------------------------------------------------------------------
# Plain cell access
# ---------------------------------------------------------------------------


def cells_of(dm: DistributionMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """The raw probability table as a tuple of row tuples."""
    return dm.entries


def correlator(row: tuple[Fraction, ...]) -> Fraction:
    """P(++) - P(+0) - P(0+) + P(00) for one settings row."""
    return row[0] - row[1] - row[2] + row[3]


# ---------------------------------------------------------------------------
# Polytope membership from the setting pairs
# ---------------------------------------------------------------------------

# Columns ++, +0, 0+, 00 that hold each party's "+" outcome.
_PLUS_COLUMNS = ((0, 1), (0, 2))  # Alice, Bob


def validate_direct(dm: DistributionMatrix) -> list[tuple[str, Fraction]]:
    """Every failed membership constraint of ``dm`` as ``(kind,
    residual)``, in ``validate``'s documented order, by plain
    ``Fraction`` sums.

    The order: each negative cell, row-major (residual: the cell); each
    row not summing to 1 (residual: its sum minus 1); then, for Alice's
    settings and then Bob's, in ascending order, the two rows of the
    scenario's setting pairs that measure the setting, when their ``+``
    marginals differ (residual: the first row's minus the second's).
    Built from ``setting_pairs``, not from the library's equality table.
    """
    rows = cells_of(dm)
    pairs = dm.scenario.setting_pairs()
    found = [("nonnegativity", v) for row in rows for v in row if v < 0]
    found += [("normalization", sum(row) - 1) for row in rows if sum(row) != 1]
    for party, columns in enumerate(_PLUS_COLUMNS):
        for setting in range(1, dm.scenario.n + 1):
            first, second = [
                rows[r] for r, pair in enumerate(pairs) if pair[party] == setting
            ]
            residual = sum(first[c] for c in columns) - sum(second[c] for c in columns)
            if residual:
                found.append(("no-signaling", residual))
    return found


# ---------------------------------------------------------------------------
# CHSH via correlators
# ---------------------------------------------------------------------------


def chsh_direct(dm: DistributionMatrix, index: int) -> Fraction:
    """CHSH symmetry value as a signed sum of settings correlators.

    The sign of each row is the correlator of the maximally violating
    box itself (+1 on its correlated rows, -1 on its anticorrelated
    rows), so the box scores 4 and every local deterministic point
    scores at most 2.
    """
    signs = [correlator(row) for row in as_matrix(pr_box(index)).entries]
    return sum(
        (s * correlator(row) for s, row in zip(signs, dm.entries)),
        start=Fraction(0),
    )


def all_chsh_direct(dm: DistributionMatrix) -> tuple[Fraction, ...]:
    return tuple(chsh_direct(dm, k) for k in range(1, 9))


# ---------------------------------------------------------------------------
# The least chained value, by brute force over row-type patterns
# ---------------------------------------------------------------------------

# Columns ++, +0, 0+, 00 that a perfectly correlated ("C") or
# anticorrelated ("A") row leaves empty.
_EMPTY_COLUMNS = {"C": (1, 2), "A": (0, 3)}


def chained_minimum(dm: DistributionMatrix) -> tuple[Fraction, list[str]]:
    """The least chained value of ``dm`` over every row-type pattern with
    an odd number of ``A`` rows, and every pattern reaching it.

    Each pattern's value is the probability in the cells its rows leave
    empty, summed as integer numerators over one common denominator.  A
    polytope member is nonlocal exactly when the least value is below 1,
    and then exactly one pattern reaches it.
    """
    denominator = math.lcm(*(v.denominator for row in dm.entries for v in row))
    numerators = [[v.numerator * (denominator // v.denominator) for v in row]
                  for row in dm.entries]
    empty = [{t: sum(row[c] for c in cols) for t, cols in _EMPTY_COLUMNS.items()}
             for row in numerators]
    best, reaching = None, []
    for pattern in itertools.product("CA", repeat=len(numerators)):
        if pattern.count("A") % 2 == 0:
            continue
        value = sum(row[t] for row, t in zip(empty, pattern))
        if best is None or value < best:
            best, reaching = value, []
        if value == best:
            reaching.append("".join(pattern))
    return Fraction(best, denominator), reaching


# ---------------------------------------------------------------------------
# The eight four-term rewrites of the first CHSH symmetry
# ---------------------------------------------------------------------------
#
# Rows in storage order a1b1, a2b1, a2b2, a1b2; columns ++, +0, 0+, 00.
# Each entry is (positive cell, (three subtracted cells)).

ORACLE_VARIANT_CELLS: tuple[
    tuple[tuple[int, int], tuple[tuple[int, int], ...]], ...
] = (
    ((0, 0), ((2, 0), (3, 1), (1, 2))),
    ((0, 3), ((2, 3), (3, 2), (1, 1))),
    ((3, 0), ((2, 0), (1, 2), (0, 1))),
    ((3, 3), ((2, 3), (1, 1), (0, 2))),
    ((1, 0), ((2, 0), (3, 1), (0, 2))),
    ((1, 3), ((2, 3), (3, 2), (0, 1))),
    ((2, 1), ((3, 1), (1, 1), (0, 2))),
    ((2, 2), ((3, 2), (1, 2), (0, 1))),
)


def variant_values_direct(dm: DistributionMatrix) -> tuple[Fraction, ...]:
    """The eight four-term expressions computed cell by cell."""
    out = []
    for plus, minuses in ORACLE_VARIANT_CELLS:
        value = dm.entries[plus[0]][plus[1]]
        for r, c in minuses:
            value -= dm.entries[r][c]
        out.append(value)
    return tuple(out)


def variant_sign(cell: tuple[int, int], variant: int) -> int:
    """+1, -1 or 0: how the given cell enters the given rewrite."""
    plus, minuses = ORACLE_VARIANT_CELLS[variant]
    if cell == plus:
        return 1
    if cell in minuses:
        return -1
    return 0


# ---------------------------------------------------------------------------
# Mixing and the efficiency transform, cell by cell
# ---------------------------------------------------------------------------

_HALF = Fraction(1, 2)
# A correlated ("C") or anticorrelated ("A") row, columns ++, +0, 0+, 00.
_TYPED_ROWS = {"C": (_HALF, 0, 0, _HALF), "A": (0, _HALF, _HALF, 0)}


def box_cells(box) -> tuple[tuple[Fraction, ...], ...]:
    """A vertex's cell table from its letters alone: a PR box's rows from
    its row types, a deterministic box's from its outcome letters at each
    measured setting pair; a matrix's own cells otherwise."""
    if isinstance(box, DistributionMatrix):
        return box.entries
    if hasattr(box, "row_types"):
        return tuple(tuple(map(Fraction, _TYPED_ROWS[t])) for t in box.row_types)
    columns = ["++", "+0", "0+", "00"]
    return tuple(
        tuple(
            Fraction(int(columns[c] == box.a_assign[i - 1] + box.b_assign[j - 1]))
            for c in range(4)
        )
        for i, j in box.scenario.setting_pairs()
    )


def mix_direct(terms) -> tuple[tuple[Fraction, ...], ...]:
    """The cells of  sum_k w_k * box_k  for ``(box, weight)`` pairs, each
    cell a plain ``Fraction`` sum over every term, zero weights included."""
    tables = [(box_cells(box), Fraction(w)) for box, w in terms]
    nrows = len(tables[0][0])
    return tuple(
        tuple(
            sum((w * cells[r][c] for cells, w in tables), start=Fraction(0))
            for c in range(4)
        )
        for r in range(nrows)
    )


def efficiency_direct(cells, eta_a, eta_b) -> tuple[tuple[Fraction, ...], ...]:
    """The cells seen through lossy detectors, as a channel on each side:
    an outcome ``+`` is kept with probability eta and recorded as ``0``
    otherwise, and ``0`` stays ``0``.  Each new cell sums, over the four
    old outcome pairs, the old cell times both sides' transition
    probabilities."""
    eta_a, eta_b = Fraction(eta_a), Fraction(eta_b)

    def keep(eta: Fraction, old: str, new: str) -> Fraction:
        if old == "0":
            return Fraction(int(new == "0"))
        return eta if new == "+" else 1 - eta

    columns = ["++", "+0", "0+", "00"]
    return tuple(
        tuple(
            sum(
                (
                    Fraction(row[k]) * keep(eta_a, old[0], new[0]) * keep(eta_b, old[1], new[1])
                    for k, old in enumerate(columns)
                ),
                start=Fraction(0),
            )
            for new in columns
        )
        for row in cells
    )


# ---------------------------------------------------------------------------
# Total variation
# ---------------------------------------------------------------------------


def tv_direct(q: DistributionMatrix, s: DistributionMatrix) -> Fraction:
    """Half the sum of absolute cell differences over every settings row."""
    total = Fraction(0)
    for qrow, srow in zip(q.entries, s.entries):
        for a, b in zip(qrow, srow):
            total += abs(a - b)
    return total / 2


def tv_lp_oracle(q: DistributionMatrix) -> Fraction:
    """Exact minimum TV distance from ``q`` to the local polytope.

    Solved as a rational LP: variables are 16 mixture weights over the
    local deterministic catalog plus split slacks u, v >= 0 per cell
    with  sum_i w_i L_i[cell] + u - v = q[cell];  minimize (1/2) sum(u+v).
    The LP is solved by this module's :func:`simplex_minimize`.
    """
    lds = [as_matrix(ld_box(i)).entries for i in range(1, 17)]
    nld = len(lds)
    ncells = 16
    nvars = nld + 2 * ncells
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    cell_list = [(r, c) for r in range(4) for c in range(4)]
    for k, (r, c) in enumerate(cell_list):
        row = [Fraction(0)] * nvars
        for i in range(nld):
            row[i] = Fraction(lds[i][r][c])
        row[nld + k] = Fraction(1)
        row[nld + ncells + k] = Fraction(-1)
        rows.append(row)
        rhs.append(Fraction(q.entries[r][c]))
    rows.append([Fraction(1)] * nld + [Fraction(0)] * (2 * ncells))
    rhs.append(Fraction(1))
    costs = [Fraction(0)] * nld + [Fraction(1, 2)] * (2 * ncells)
    result = simplex_minimize(costs, rows, rhs)
    assert result is not None, "local polytope LP must be feasible"
    return result[0]


# ---------------------------------------------------------------------------
# Kullback-Leibler
# ---------------------------------------------------------------------------


def kl_direct(q, s, settings_probs) -> float:
    """KL divergence in bits over the joint (setting, outcome) space.

    ``q`` and ``s`` are plain cell tables (sequences of rows); the
    settings enter both sides identically so only conditional ratios
    remain.  Returns ``inf`` when ``s`` misses support of ``q``.
    """
    total = 0.0
    for w, qrow, srow in zip(settings_probs, q, s):
        for qc, sc in zip(qrow, srow):
            if qc == 0:
                continue
            if sc == 0:
                return math.inf
            total += float(w) * float(qc) * math.log2(float(qc) / float(sc))
    return total


def kl_mirror_descent(
    q: DistributionMatrix,
    settings_probs,
    ld_indices,
    gap_tolerance: float = 1e-12,
    max_iterations: int = 20_000,
) -> tuple[float, list[float], float]:
    """Smallest KL divergence (bits) from ``q`` to a mixture of the given
    deterministic boxes, by mirror descent on the box weights.

    Works on the joint (setting, outcome) distribution: P = p_r q_rc
    against M = p_r sum_i x_i B_i(r, c), over the cells with P > 0, the
    boxes' cells taken from their letters (:func:`box_cells`).  Each step
    multiplies the weights by exp(-step * gradient), halving the step
    until the divergence does not rise and growing it by half after each
    accepted step, from the uniform weights until the Frank-Wolfe gap is
    at most ``gap_tolerance`` or ``max_iterations`` steps are taken.
    Every iterate lies inside the simplex, so the value returned is never
    below the minimum.  Returns ``(divergence, weights, gap)``.
    """
    tables = [box_cells(ld_box(i)) for i in ld_indices]
    cells = [
        (float(p) * float(q.entries[r][c]), float(p), [float(t[r][c]) for t in tables])
        for r, p in enumerate(settings_probs)
        for c in range(4)
        if p * q.entries[r][c] > 0
    ]

    def divergence(x):
        total = []
        for joint, p, boxes in cells:
            model = p * sum(w * b for w, b in zip(x, boxes))
            if model <= 0:
                return math.inf
            total.append(joint * math.log2(joint / model))
        return math.fsum(total)

    def gradient(x):
        g = [0.0] * len(x)
        for joint, p, boxes in cells:
            model = p * sum(w * b for w, b in zip(x, boxes))
            for i, b in enumerate(boxes):
                g[i] -= joint * p * b / (model * math.log(2))
        return g

    x = [1.0 / len(tables)] * len(tables)
    value, step = divergence(x), 1.0
    for iteration in range(max_iterations + 1):
        g = gradient(x)
        low = min(g)
        gap = math.fsum(gv * xv for gv, xv in zip(g, x)) - low
        if gap <= gap_tolerance or iteration == max_iterations:
            return value, x, gap
        while True:
            y = [xv * math.exp(-step * (gv - low)) for xv, gv in zip(x, g)]
            total = sum(y)
            y = [v / total for v in y]
            candidate = divergence(y)
            if candidate <= value or step < 1e-300:
                break
            step /= 2
        x, value, step = y, candidate, step * 1.5


def mixture_cells(ld_indices, weights) -> tuple[tuple[Fraction, ...], ...]:
    """Cell table of a weighted mixture of catalog LDs (exact)."""
    tables = [as_matrix(ld_box(i)).entries for i in ld_indices]
    out = []
    for r in range(4):
        row = []
        for c in range(4):
            row.append(
                sum(
                    (Fraction(w) * t[r][c] for w, t in zip(weights, tables)),
                    start=Fraction(0),
                )
            )
        out.append(tuple(row))
    return tuple(out)


def _exchange_descent(objective, k: int, denom: int, starts) -> tuple[float, tuple[Fraction, ...]]:
    """Minimize over integer weight vectors summing to ``denom``.

    ``objective`` takes the integer vector itself.  Moves one unit
    between a pair of coordinates while any such move improves;
    restarts from every vector in ``starts`` and keeps the best.
    Brute and simple on purpose.
    """
    best_val = math.inf
    best_vec: tuple[int, ...] = ()
    for start in starts:
        vec = list(start)
        assert sum(vec) == denom and len(vec) == k
        val = objective(vec)
        improved = True
        while improved:
            improved = False
            for i in range(k):
                if vec[i] == 0:
                    continue
                for j in range(k):
                    if i == j:
                        continue
                    vec[i] -= 1
                    vec[j] += 1
                    cand = objective(vec)
                    if cand < val - 1e-15:
                        val = cand
                        improved = True
                    else:
                        vec[i] += 1
                        vec[j] -= 1
        if val < best_val:
            best_val = val
            best_vec = tuple(vec)
    return best_val, tuple(Fraction(v, denom) for v in best_vec)


def _simplex_starts(k: int, denom: int) -> list[list[int]]:
    starts = []
    base = denom // k
    uniform = [base] * k
    uniform[0] += denom - base * k
    starts.append(uniform)
    for i in range(k):
        pure = [0] * k
        pure[i] = denom
        starts.append(pure)
    return starts


def kl_grid_oracle(q: DistributionMatrix, settings_probs, ld_indices, denom: int = 100) -> float:
    """Best KL divergence to a mixture on the 1/denom weight grid.

    Works in floats internally: the grid answer is only ever compared
    at three-decimal tolerance, far above float noise.
    """
    tables = [[float(v) for row in as_matrix(ld_box(i)).entries for v in row] for i in ld_indices]
    flat_cells = [(float(settings_probs[r]), float(q.entries[r][c]), r * 4 + c)
                  for r in range(4) for c in range(4) if q.entries[r][c] != 0]

    def objective(vec):
        total = 0.0
        for w_r, qc, idx in flat_cells:
            s = 0.0
            for weight, table in zip(vec, tables):
                if weight:
                    s += weight * table[idx]
            if s == 0.0:
                return math.inf
            total += w_r * qc * math.log2(qc * denom / s)
        return total

    k = len(ld_indices)
    value, _ = _exchange_descent(objective, k, denom, _simplex_starts(k, denom))
    return value


# ---------------------------------------------------------------------------
# Estimator second moment
# ---------------------------------------------------------------------------


def estimator_second_moment_direct(dm: DistributionMatrix, settings_probs, weights) -> float:
    """E[T^2] for the weighted single-trial rewrite estimator.

    A trial samples a settings row r (probability settings[r]) and an
    outcome column c (probability dm[r][c]); the estimator reports
    sum_v w_v * sign_v(r,c) / settings[r].
    """
    total = 0.0
    for r in range(4):
        for c in range(4):
            t = sum(float(w) * variant_sign((r, c), v) for v, w in enumerate(weights))
            if t == 0.0:
                continue
            p_joint = float(settings_probs[r]) * float(dm.entries[r][c])
            total += p_joint * (t / float(settings_probs[r])) ** 2
    return total


def estimator_mean_direct(dm: DistributionMatrix, settings_probs, weights) -> float:
    """E[T] for the same estimator (the unbiasedness side)."""
    total = 0.0
    for r in range(4):
        for c in range(4):
            t = sum(float(w) * variant_sign((r, c), v) for v, w in enumerate(weights))
            if t == 0.0:
                continue
            total += float(dm.entries[r][c]) * t
    return total


def estimator_grid_oracle(dm: DistributionMatrix, settings_probs, denom: int = 100) -> tuple[float, tuple[Fraction, ...]]:
    """Best second moment on the 1/denom grid over the 8 rewrites."""
    contributions = []
    for r in range(4):
        for c in range(4):
            signs = tuple(variant_sign((r, c), v) for v in range(8))
            if not any(signs):
                continue
            p_cond = float(dm.entries[r][c])
            if p_cond == 0.0:
                continue
            contributions.append((p_cond / float(settings_probs[r]), signs))

    def objective(vec):
        total = 0.0
        for alpha, signs in contributions:
            t = 0.0
            for w, s in zip(vec, signs):
                if s == 1:
                    t += w
                elif s == -1:
                    t -= w
            total += alpha * t * t
        return total / (denom * denom)

    return _exchange_descent(objective, 8, denom, _simplex_starts(8, denom))


# ---------------------------------------------------------------------------
# Detection efficiency: the CHSH value is a quadratic in eta
# ---------------------------------------------------------------------------


def efficiency_quadratic(dm: DistributionMatrix, sym_index: int) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients (a, b, c) of S(eta) = a eta^2 + b eta + c.

    S is the given CHSH symmetry value after symmetric detection
    efficiency eta is applied to both parties; it is quadratic in eta,
    so three exact samples at eta = 0, 1/2, 1 determine it.
    """

    def sample(eta: Fraction) -> Fraction:
        image = DistributionMatrix(dm.scenario, efficiency_direct(dm.entries, eta, eta))
        return chsh_direct(image, sym_index)

    y0 = sample(Fraction(0))
    y1 = sample(Fraction(1, 2))
    y2 = sample(Fraction(1))
    a = 2 * y0 - 4 * y1 + 2 * y2
    b = -3 * y0 + 4 * y1 - y2
    c = y0
    return a, b, c


def _exact_sqrt(value: Fraction) -> Fraction | None:
    """The exact rational square root, or None when irrational."""
    if value < 0:
        return None
    n, d = value.numerator, value.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def quadratic_threshold(a: Fraction, b: Fraction, c: Fraction) -> Fraction | float | None:
    """Largest solution of a eta^2 + b eta + c = 2 in (0, 1], if any.

    Returns a Fraction when the root is rational, a float otherwise,
    and None when the quadratic never crosses 2 on (0, 1].
    """
    roots: list = []
    if a == 0:
        if b != 0:
            roots.append(Fraction(2 - c, b))
    else:
        disc = b * b - 4 * a * (c - 2)
        if disc < 0:
            return None
        root = _exact_sqrt(disc)
        if root is not None:
            roots.extend([(-b - root) / (2 * a), (-b + root) / (2 * a)])
        else:
            # The root without cancellation first; the other from the
            # product of the roots, (c - 2) / a.
            fd = math.sqrt(float(disc))
            big = (-float(b) - math.copysign(fd, float(b))) / (2 * float(a))
            roots.extend([big, float(c - 2) / (float(a) * big)])
    inside = [r for r in roots if 0 < r <= 1]
    if not inside:
        return None
    return max(inside)


# ---------------------------------------------------------------------------
# A dense-tableau simplex over Fractions (Bland's rule)
# ---------------------------------------------------------------------------
#
# Rational Gauss-Jordan elimination and a two-phase simplex, kept apart
# from the package's integer-preserving kernel so that each checks the
# other.


def _eliminate(rows: list[list], r: int, col: int) -> None:
    """One Gauss-Jordan step on ``rows``, in place.

    Scales ``rows[r]`` so that its ``col`` entry is 1, then subtracts
    multiples of it to clear ``col`` from every other row.  Only the
    nonzero entries of the pivot row are scaled, and each other row is
    updated only where the pivot row is nonzero.
    """
    pivot_row = rows[r]
    inv = 1 / pivot_row[col]
    support = []
    for k, v in enumerate(pivot_row):
        if v:
            v = pivot_row[k] = v * inv
            support.append((k, v))
    for i, row in enumerate(rows):
        f = row[col]
        if f and i != r:
            for k, v in support:
                row[k] -= f * v


def _row_reduce(m: list[list], ncols: int) -> int:
    """Bring the first ``ncols`` columns of ``m`` to reduced row echelon
    form in place, pivoting on the first nonzero entry of each column;
    return the rank of those columns."""
    r = 0
    for col in range(ncols):
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        _eliminate(m, r, col)
        r += 1
    return r


def _reduce(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Optional[list[list[Fraction]]]:
    """Independent rows of the augmented system ``[rows | rhs]``, or
    ``None`` when the system is inconsistent."""
    if not rows:
        return []
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    r = _row_reduce(aug, len(rows[0]))
    if any(row[-1] != 0 for row in aug[r:]):
        return None
    return aug[:r]


def _pivot(tableau: list[list], z: list, basis: list[int], prow: int, pcol: int) -> None:
    _eliminate(tableau + [z], prow, pcol)
    basis[prow] = pcol


def _run(tableau: list[list], z: list, basis: list[int], ncols: int) -> None:
    """Minimize until no negative reduced cost remains (Bland's rule)."""
    while True:
        pcol = next((j for j in range(ncols) if z[j] < 0), None)
        if pcol is None:
            return
        prow = None
        best_ratio = None
        for i, row in enumerate(tableau):
            coeff = row[pcol]
            if coeff > 0:
                ratio = row[-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[prow])
                ):
                    best_ratio = ratio
                    prow = i
        if prow is None:
            raise InvariantViolationError("linear program is unbounded")
        _pivot(tableau, z, basis, prow, pcol)


def _phase1(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Optional[tuple[list[list], list[int], int]]:
    """Find a basic feasible solution of ``rows x = rhs, x >= 0``.

    Returns ``(tableau, basis, nvars)`` with all artificial columns
    removed, or ``None`` when the system is infeasible.
    """
    kept = _reduce(rows, rhs)
    if kept is None:
        return None
    m = len(kept)
    nvars = len(rows[0]) if rows else 0
    if m == 0:
        # No constraints beyond x >= 0: the origin is a basic solution.
        return [], [], nvars
    tableau = []
    for row in kept:
        if row[-1] < 0:
            row = [-v for v in row]
        tableau.append(row[:-1] + [Fraction(0)] * m + [row[-1]])
    for i in range(m):
        tableau[i][nvars + i] = Fraction(1)
    basis = [nvars + i for i in range(m)]
    z = [Fraction(0)] * (nvars + m + 1)
    for i in range(m):
        z = [zv - tv for zv, tv in zip(z, tableau[i])]
    for j in range(nvars, nvars + m):
        z[j] += 1
    _run(tableau, z, basis, nvars + m)
    if -z[-1] != 0:  # minimum of the artificial sum
        return None
    # Pivot any zero-level artificial out of the basis; the pre-reduction
    # to full row rank guarantees a real column is available.
    for i in range(m):
        if basis[i] >= nvars:
            pcol = next((j for j in range(nvars) if tableau[i][j] != 0), None)
            if pcol is None:
                raise InvariantViolationError(
                    "redundant row survived system reduction"
                )
            _pivot(tableau, z, basis, i, pcol)
    tableau = [row[:nvars] + [row[-1]] for row in tableau]
    return tableau, basis, nvars


def _extract(tableau: list[list], basis: list[int], nvars: int) -> list[Fraction]:
    x = [Fraction(0)] * nvars
    for i, j in enumerate(basis):
        x[j] = tableau[i][-1]
    return x


def phase1_solution(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Optional[list[Fraction]]:
    """The basic solution of ``rows x = rhs, x >= 0`` that phase 1
    reaches, or ``None`` when there is none."""
    result = _phase1(rows, rhs)
    if result is None:
        return None
    return _extract(*result)


def simplex_minimize(
    costs: Sequence[Fraction],
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> Optional[tuple[Fraction, list[Fraction]]]:
    """Exactly minimize ``costs . x`` subject to ``rows x = rhs, x >= 0``.

    Returns ``(optimal value, optimizer)``, or ``None`` when infeasible.
    """
    result = _phase1(rows, rhs)
    if result is None:
        return None
    tableau, basis, nvars = result
    if len(costs) != nvars:
        raise InvariantViolationError("cost vector length mismatch")
    z = [Fraction(c) for c in costs] + [Fraction(0)]
    for i, j in enumerate(basis):
        if z[j] != 0:
            f = z[j]  # basic column j is a unit column with its 1 in row i
            z = [zv - f * tv for zv, tv in zip(z, tableau[i])]
    _run(tableau, z, basis, nvars)
    x = _extract(tableau, basis, nvars)
    value = sum((c * v for c, v in zip(costs, x)), Fraction(0))
    return value, x
