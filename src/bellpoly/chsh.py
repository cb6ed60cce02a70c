"""The n=2 catalog on top of the chained engine: the 8 CHSH symmetries
and their functionals, the replacement tables, and the single-cell
violation estimator, all named by the paper's numbering of the 24
vertices (which :mod:`bellpoly.core` keeps, next to the catalog).

Each of the 8 PR boxes sits above one CHSH facet of the local polytope;
the facet inequality, the outcome flips that carry the box onto PR box 1
and back, and the 8 local deterministic boxes saturating the inequality
together form a :class:`ChshSymmetry`.  The flips relabel outcomes only,
so each acts on one row as an XOR of the column index, and every PR-1
identity reaches PR box k through them.  PR box k's CHSH value is
4 - 2 x its chained value, so identification and the read-off decomposition
are the chained engine's (:mod:`bellpoly.chained`), named here by
catalog index.  The saturating sets are PR box k's one-mismatch
companions; the uniform PR pair table and the cast-out table (a
non-saturating deterministic box against two copies of PR box 1) come
from ``domino_merge`` and ``mismatch_replacement``.

The module also carries the 8 single-cell rewrites of the CHSH
functional whose value on any no-signaling matrix equals one quarter of
the violation, and the variance-minimizing convex weighting of those 8
rewrites for estimating the violation from finite samples: an exact
rational quadratic program, solved by an active-set method on
:mod:`bellpoly.exactlin`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import exactlin
from .chained import (
    chained_value,
    decompose_chained,
    domino_merge,
    identify_gpr,
    mismatch_replacement,
    one_support_mismatches,
    readoff_weights,
)
from .core import (
    Decomposition,
    DistributionMatrix,
    InvariantViolationError,
    NotApplicableError,
    PreconditionError,
    SCENARIO_222,
    SettingsDistribution,
    _LD_INDEX,
    _PR_INDEX,
    ld_box,
    ld_index_of,
    mix,
    pr_box,
    pr_index_of,
    require_member,
)
from .metrics import tv_distance


def _ld_indices(boxes) -> tuple[int, ...]:
    return tuple(sorted(_LD_INDEX[box] for box in boxes))


def _saturating_set(k: int) -> frozenset[int]:
    return frozenset(_ld_indices(one_support_mismatches(pr_box(k)).values()))


#: Catalog indices of the deterministic boxes saturating CHSH symmetry 1.
SATURATING_SET_1 = _saturating_set(1)

#: Uniform-pair identities: (1, k) -> the 4 LD indices with
#: 1/2 PR_1 + 1/2 PR_k = 1/4 (D_i + D_j + D_k + D_l).
PAIR_TABLE = {
    (1, k): _ld_indices(domino_merge(pr_box(1), pr_box(k))) for k in range(2, 9)
}

#: Cast-out identities: d -> the 3 LD indices with D_d + 2 PR_1 = sum.
CASTOUT_TABLE = {
    d: _ld_indices(mismatch_replacement(pr_box(1), ld_box(d)))
    for d in range(1, 17)
    if d not in SATURATING_SET_1
}

#: The 8 single-cell rewrites of the quarter-violation, in canonical
#: frame: (positive cell, the 3 negative cells), rows in canonical order.
#: The first entry is the classical coincidence-count expression
#: P(++|a1b1) - P(+0|a1b2) - P(0+|a2b1) - P(++|a2b2).
VARIANT_CELLS = (
    ((0, 0), ((2, 0), (3, 1), (1, 2))),
    ((0, 3), ((2, 3), (3, 2), (1, 1))),
    ((3, 0), ((2, 0), (1, 2), (0, 1))),
    ((3, 3), ((2, 3), (1, 1), (0, 2))),
    ((1, 0), ((2, 0), (3, 1), (0, 2))),
    ((1, 3), ((2, 3), (3, 2), (0, 1))),
    ((2, 1), ((3, 1), (1, 1), (0, 2))),
    ((2, 2), ((3, 2), (1, 2), (0, 1))),
)


@dataclass(frozen=True)
class ChshSymmetry:
    """One of the 8 CHSH facet symmetries of the n=2 polytope.

    ``flips`` holds one column mask per canonical row: entry (r, c) of
    PR box ``index`` is entry (r, c ^ flips[r]) of PR box 1, and the
    same holds in both directions for any matrix and its image, so the
    flips carry every canonical-frame identity to this symmetry.  A mask
    of 2 flips Alice's outcome, 1 Bob's, 3 both.  ``saturating_set``
    holds the catalog indices of the 8 deterministic boxes reaching
    value 2 on this symmetry's functional.
    """

    index: int
    flips: tuple[int, int, int, int]
    saturating_set: frozenset[int]


def _outcome_flips(k: int) -> tuple[int, int, int, int]:
    """Per-row column masks carrying PR box k onto PR box 1.

    Flipping one party's outcome swaps a row's type, so a row's type
    differs between the boxes iff exactly one side flips there.  Alice
    keeps a1, which fixes Bob's flips from rows a1b1 and a1b2 and
    Alice's a2 flip from row a2b1; row a2b2 then agrees by parity.
    """
    differs = [s != t for s, t in zip(pr_box(1).row_types, pr_box(k).row_types)]
    flip_a = (0, differs[0] ^ differs[1])
    flip_b = (differs[0], differs[3])
    return tuple(
        2 * flip_a[i - 1] + flip_b[j - 1] for i, j in SCENARIO_222.setting_pairs()
    )


def _flipped(dm: DistributionMatrix, flips: tuple[int, ...]) -> DistributionMatrix:
    """``dm`` with entry (r, c) moved to (r, c ^ flips[r])."""
    return DistributionMatrix(
        dm.scenario,
        tuple(
            tuple(row[c ^ f] for c in range(4)) for row, f in zip(dm.entries, flips)
        ),
    )


@functools.cache
def chsh_symmetries() -> tuple[ChshSymmetry, ...]:
    """All 8 CHSH symmetries, index 1 first."""
    return tuple(
        ChshSymmetry(k, _outcome_flips(k), _saturating_set(k)) for k in range(1, 9)
    )


def chsh_symmetry(index: int) -> ChshSymmetry:
    if not 1 <= index <= 8:
        raise PreconditionError(f"CHSH symmetry index must be 1..8, got {index}")
    return chsh_symmetries()[index - 1]


def _require_222(dm: DistributionMatrix, what: str) -> None:
    if dm.scenario.n != 2:
        raise PreconditionError(f"{what} defined for n=2 only")


def row_correlators(dm: DistributionMatrix) -> tuple[Fraction, ...]:
    """Per-row correlators E = P(++) - P(+0) - P(0+) + P(00)."""
    return tuple(row[0] - row[1] - row[2] + row[3] for row in dm.entries)


def chsh_value(dm: DistributionMatrix, sym: ChshSymmetry) -> Fraction:
    """Value of the symmetry's CHSH functional; local matrices stay <= 2.

    The row correlators signed by the row types of the symmetry's PR box
    (which reaches 4).  A correlated row's E, like an anticorrelated
    row's -E, is its row sum minus twice its mass on the box's zero
    cells, so on any table the value is the cell total minus twice the
    box's chained value: 4 - 2 x chained value on polytope members.
    """
    _require_222(dm, "CHSH functionals are")
    total = sum((v for row in dm.entries for v in row), Fraction(0))
    return total - 2 * chained_value(dm, pr_box(sym.index))


def all_chsh_values(dm: DistributionMatrix) -> tuple[Fraction, ...]:
    return tuple(chsh_value(dm, sym) for sym in chsh_symmetries())


def violated_symmetry(dm: DistributionMatrix) -> ChshSymmetry | None:
    """The unique symmetry with value > 2, or ``None`` when local.

    The symmetry of the PR box :func:`~bellpoly.chained.identify_gpr`
    finds: a value above 2 is a chained value below 1.  Two simultaneous
    violations mean the input was not a polytope member; identify_gpr
    rejects non-members with :class:`PreconditionError`.
    """
    _require_222(dm, "CHSH functionals are")
    g = identify_gpr(dm)
    return None if g is None else chsh_symmetry(_PR_INDEX[g])


def is_local_222(dm: DistributionMatrix) -> bool:
    return violated_symmetry(dm) is None


# ---------------------------------------------------------------------------
# Decompositions
# ---------------------------------------------------------------------------


def readoff_222(
    dm: DistributionMatrix,
) -> tuple[Decomposition, Fraction]:
    """Tolerant cell read-off for matrices that may sit slightly off the
    polytope (e.g. tables of rounded experimental frequencies).

    Picks the symmetry with the largest functional value (which must
    exceed 2), reads the weights off its PR box's one-mismatch cells
    (:func:`~bellpoly.chained.readoff_weights`), and returns the
    decomposition together with the total-variation residual between its
    mixture and the input — exactly 0 for polytope members.  Raises
    :class:`PreconditionError` if any read-off weight is negative
    (possible only for inputs outside the polytope).
    """
    _require_222(dm, "cell read-off is")
    values = all_chsh_values(dm)
    best = max(range(8), key=lambda k: values[k])
    if values[best] <= 2:
        raise NotApplicableError(
            "matrix violates no CHSH symmetry; the PR-plus-saturating-LD "
            "decomposition applies to nonlocal matrices only"
        )
    pr = pr_box(best + 1)
    ld_terms, pr_weight = readoff_weights(dm, pr)
    if pr_weight < 0 or any(w < 0 for _, w in ld_terms):
        raise PreconditionError(
            "cell read-off produced a negative weight; the input is too far "
            "outside the no-signaling polytope to decompose"
        )
    dec = Decomposition(
        dm.scenario,
        (pr, pr_weight) if pr_weight > 0 else None,
        tuple((box, w) for box, w in ld_terms if w > 0),
    )
    return dec, tv_distance(dec.mixture(), dm)


def decompose_222(dm: DistributionMatrix) -> Decomposition:
    """Unique decomposition of a CHSH-violating matrix into its PR box
    plus the 8 saturating deterministic boxes, by exact cell read-off:
    :func:`~bellpoly.chained.decompose_chained` at n=2.

    The PR weight is half the violation: value = 2 + 2 * pr_weight.
    """
    _require_222(dm, "CHSH functionals are")
    return decompose_chained(dm)


def decompose_local_222(dm: DistributionMatrix) -> Decomposition:
    """Some exact convex decomposition of a local matrix into at most 9
    deterministic boxes, found by exact linear-feasibility search."""
    _require_222(dm, "local decomposition is")
    require_member(dm, context="decompose_local_222")
    boxes = [ld_box(i) for i in range(1, 17)]
    cells = [(r, c) for r in range(4) for c in range(4)]
    rows = [[box.matrix().entries[r][c] for box in boxes] for r, c in cells]
    rows.append([Fraction(1)] * len(boxes))
    rhs = [dm.entries[r][c] for r, c in cells] + [Fraction(1)]
    solution = exactlin.simplex_feasible(rows, rhs)
    if solution is None:
        raise NotApplicableError(
            "matrix admits no local decomposition (it violates a CHSH "
            "symmetry); use decompose_222"
        )
    terms = tuple((box, w) for box, w in zip(boxes, solution) if w > 0)
    return Decomposition(dm.scenario, None, terms)


# ---------------------------------------------------------------------------
# Replacement identities
# ---------------------------------------------------------------------------


def pair_replacement(i: int, j: int) -> tuple[int, int, int, int]:
    """The 4 LD catalog indices with 1/2 PR_i + 1/2 PR_j = 1/4 their sum.

    Defined for any two *distinct* PR boxes; pairs not involving PR box 1
    are resolved by conjugating the PR-1 identities with PR box ``i``'s
    outcome flips: they carry PR_i onto PR_1 and PR_j onto some partner
    PR_p, and the boxes of PAIR_TABLE[(1, p)] back onto the answer.
    """
    if not (1 <= i <= 8 and 1 <= j <= 8):
        raise PreconditionError("PR box indices must be in 1..8")
    if i == j:
        raise PreconditionError(
            "uniform-pair replacement needs two distinct PR boxes"
        )
    flips = chsh_symmetry(i).flips
    partner = pr_index_of(_flipped(pr_box(j).matrix(), flips))
    if partner is None or partner == 1:
        raise InvariantViolationError("outcome flips failed to map a PR box")
    return tuple(
        sorted(
            ld_index_of(_flipped(ld_box(t).matrix(), flips))
            for t in PAIR_TABLE[(1, partner)]
        )
    )


def castout_replacement(d: int) -> tuple[int, int, int]:
    """The 3 LD catalog indices with D_d + 2 PR_1 = their sum.

    Defined exactly for the 8 deterministic boxes *outside* the
    symmetry-1 saturating set.
    """
    if not 1 <= d <= 16:
        raise PreconditionError("LD catalog index must be in 1..16")
    if d in SATURATING_SET_1:
        raise PreconditionError(
            f"D_{d} saturates CHSH symmetry 1; the cast-out identity only "
            f"rewrites the 8 non-saturating boxes"
        )
    return CASTOUT_TABLE[d]


# ---------------------------------------------------------------------------
# Single-cell rewrites of the violation and their optimal weighting
# ---------------------------------------------------------------------------


def variant_eberhard_values(
    dm: DistributionMatrix, sym: ChshSymmetry
) -> tuple[Fraction, ...]:
    """The 8 single-cell rewrites of (value - 2)/4, evaluated on ``dm``.

    Each rewrite has the form  positive cell - three negative cells  of
    :data:`VARIANT_CELLS`, read through the symmetry's outcome flips; on
    any no-signaling matrix all 8 agree and equal one quarter of the
    CHSH violation (half the PR weight when the matrix is nonlocal).
    """
    _require_222(dm, "the rewrites are")
    flips, e = sym.flips, dm.entries
    values = []
    for plus, minuses in VARIANT_CELLS:
        v = e[plus[0]][plus[1] ^ flips[plus[0]]]
        for r, c in minuses:
            v -= e[r][c ^ flips[r]]
        values.append(v)
    return tuple(values)


@dataclass(frozen=True)
class EstimatorQuadratic:
    """The second moment  E[T^2] = c^T M c  of the sampled single-trial
    estimator under convex weights ``c`` over the 8 rewrites of the
    violated ``symmetry``.

    M is exact and stored integer-scaled, ``M = matrix / scale``; the
    minimizer does not depend on the scale.  M is positive definite:
    each rewrite's positive cell is its own cell of the PR box's support,
    which a violating matrix weights positively, so M dominates a
    positive diagonal.
    """

    symmetry: ChshSymmetry
    matrix: tuple[tuple[int, ...], ...]
    scale: int

    def objective(self, weights) -> Fraction:
        """The exact second moment under the given weights."""
        v, d = exactlin.common_denominator([Fraction(w) for w in weights])
        form = sum(vi * gi for vi, gi in zip(v, self._apply(v)))
        return Fraction(form, d * d * self.scale)

    def _apply(self, v: list[int]) -> list[int]:
        return [sum(m * vj for m, vj in zip(row, v)) for row in self.matrix]

    def minimize(self) -> tuple[Fraction, ...]:
        """The exact minimizer over the probability simplex, by a primal
        active-set method.

        The working set holds the weights fixed at 0; the other weights
        are free.  Each round solves the KKT system of the QP restricted
        to the free weights and sum 1, and moves the iterate towards that
        minimizer until a free weight reaches 0, which joins the working
        set.  At the restricted minimizer the free weights share one
        gradient value mu; a fixed weight whose gradient is below mu
        leaves the working set (the lowest first), and when there is none
        the KKT conditions of the whole problem hold.  M is positive
        definite, so each restricted minimizer is unique and the
        objective falls strictly from one to the next.
        """
        size = len(self.matrix)
        c = [Fraction(1, size)] * size
        fixed: set[int] = set()
        for _ in range(_ACTIVE_SET_ROUNDS):
            free = [i for i in range(size) if i not in fixed]
            target = self._face_minimizer(free)
            if target != c:
                step, block = Fraction(1), None
                for i in free:
                    if target[i] < c[i]:
                        ratio = c[i] / (c[i] - target[i])
                        if ratio < step:
                            step, block = ratio, i
                if block is None:
                    c = target
                else:
                    c = [ci + step * (ti - ci) for ci, ti in zip(c, target)]
                    c[block] = Fraction(0)
                    fixed.add(block)
                    continue
            gradient = self._apply(exactlin.common_denominator(c)[0])
            mu = gradient[free[0]]
            leaving = min(fixed, key=lambda i: (gradient[i], i), default=None)
            if leaving is None or gradient[leaving] >= mu:
                return tuple(c)
            fixed.remove(leaving)
        raise InvariantViolationError("active-set method did not terminate")

    def _face_minimizer(self, free: list[int]) -> list[Fraction]:
        """The minimizer of c^T M c over sum(c) = 1 with the weights
        outside ``free`` at 0:  c_F = y / sum(y)  with  M_FF y = 1."""
        y = exactlin.solve_square(
            [[self.matrix[i][j] for j in free] for i in free], [1] * len(free)
        )
        if y is None:
            raise InvariantViolationError("estimator quadratic is singular")
        total = sum(y)
        c = [Fraction(0)] * len(self.matrix)
        for i, v in zip(free, y):
            c[i] = v / total
        return c


#: Rounds of the active-set method before it is declared stuck, a guard
#: far above the few rounds that the 8-weight problems take.
_ACTIVE_SET_ROUNDS = 1024


def estimator_quadratic(
    expected: DistributionMatrix, settings: SettingsDistribution
) -> EstimatorQuadratic:
    """The estimator's second-moment quadratic for a CHSH-violating
    ``expected`` matrix: one identification and one exact M, to minimize
    and evaluate without rebuilding them (:func:`estimator_weights` and
    :func:`estimator_objective` each build their own)."""
    sym = violated_symmetry(expected)
    if sym is None:
        raise NotApplicableError(
            "estimator weights are defined for CHSH-violating matrices"
        )
    if settings.scenario != expected.scenario:
        raise PreconditionError("settings distribution scenario mismatch")
    if any(p <= 0 for p in settings.probs):
        raise PreconditionError(
            "estimator weights need every setting pair sampled with "
            "positive probability"
        )
    # Per cell read by some rewrite: its coefficient in each rewrite and
    # the weight of its outer product, cell value over settings probability.
    signs: dict[tuple[int, int], list[int]] = {}
    for v, (plus, minuses) in enumerate(VARIANT_CELLS):
        for (r, c), sign in ((plus, 1), *((m, -1) for m in minuses)):
            signs.setdefault((r, c ^ sym.flips[r]), [0] * 8)[v] += sign
    terms = []
    for (row, col), s in signs.items():
        alpha = expected.entries[row][col] / settings.probs[row]
        if alpha:
            terms.append((alpha, s))
    scale = math.lcm(*(alpha.denominator for alpha, _ in terms))
    matrix = [[0] * 8 for _ in range(8)]
    for alpha, s in terms:
        a = alpha.numerator * (scale // alpha.denominator)
        for i in range(8):
            if s[i]:
                for j in range(8):
                    matrix[i][j] += a * s[i] * s[j]
    return EstimatorQuadratic(sym, tuple(map(tuple, matrix)), scale)


def estimator_objective(
    expected: DistributionMatrix,
    settings: SettingsDistribution,
    weights,
) -> Fraction:
    """Exact second moment of the single-trial violation estimator under
    the given convex weighting of the 8 rewrites (its variance up to the
    constant square of the mean)."""
    return estimator_quadratic(expected, settings).objective(weights)


def estimator_weights(
    expected: DistributionMatrix, settings: SettingsDistribution
) -> tuple[Fraction, ...]:
    """Exact convex weights over the 8 rewrites minimizing estimator
    variance.

    Every convex weighting yields the same expectation (one quarter of
    the CHSH violation), so minimizing the second moment minimizes the
    variance: a quadratic program over the simplex with a rational
    positive-definite M, solved exactly by
    :meth:`EstimatorQuadratic.minimize`.
    """
    return estimator_quadratic(expected, settings).minimize()


# ---------------------------------------------------------------------------
# Convenience reconstruction check used by callers mixing replacements
# ---------------------------------------------------------------------------


def uniform_pair_mixture(i: int, j: int) -> DistributionMatrix:
    """The matrix 1/2 PR_i + 1/2 PR_j."""
    return mix([(pr_box(i), Fraction(1, 2)), (pr_box(j), Fraction(1, 2))])


def castout_mixture(d: int) -> DistributionMatrix:
    """The matrix 1/3 D_d + 2/3 PR_1."""
    return mix([(ld_box(d), Fraction(1, 3)), (pr_box(1), Fraction(2, 3))])
