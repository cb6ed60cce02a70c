"""Chained-scenario machinery: generalized PR boxes, support mismatches,
read-off decompositions, and the merge/replacement constructions that
rewrite mixtures of nonlocal vertices locally.

The chained polytope's nonlocal vertices are the generalized PR boxes
(:class:`~bellpoly.core.GeneralizedPRBox`).  For a box ``g`` the linear
functional summing a matrix's probability over ``g``'s zero cells plays
the CHSH role: it is at least 1 on every local matrix and 0 on ``g``
itself.  A matrix taking a value below 1 does so for exactly one box,
and it decomposes as that box plus deterministic boxes whose weights sit
in single matrix cells.  This is the one engine for every n, n=2
included: there the generalized PR boxes are the 8 catalog PR boxes and
a chained value below 1 is a CHSH value above 2 (:mod:`bellpoly.chsh`
only names the answers by catalog index).

The deterministic boxes appearing in the read-off are g's *one-mismatch*
companions: strategies that agree with g's support everywhere except in
a single cell.  Two further exact constructions are provided:

* :func:`domino_merge` rewrites the uniform mixture of two distinct
  generalized PR boxes as a uniform mixture of 4 deterministic boxes,
  by propagating outcome patterns column-to-column around the chain.
* :func:`mismatch_replacement` rewrites one deterministic box with
  2m+1 >= 3 support mismatches against 2m copies of ``g`` as the 2m+1
  one-mismatch companions of ``g`` at that box's mismatch cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    ANTICORRELATED,
    CORRELATED,
    COLUMNS,
    Decomposition,
    DistributionMatrix,
    GeneralizedPRBox,
    InconsistentInputError,
    InvariantViolationError,
    LocalDeterministic,
    NotApplicableError,
    PLUS,
    PreconditionError,
    Scenario,
    ZERO,
    enumerate_gprs,
    require_member,
)


def _flip(letter: str) -> str:
    return ZERO if letter == PLUS else PLUS


@dataclass(frozen=True)
class MismatchCell:
    """A single cell where a deterministic box lands in a generalized PR
    box's zero region: canonical row index plus outcome column label."""

    row: int
    outcome: str

    def __post_init__(self) -> None:
        if self.outcome not in COLUMNS:
            raise PreconditionError(f"outcome must be one of {COLUMNS}")

    @property
    def column(self) -> int:
        return COLUMNS.index(self.outcome)


def support_mismatch_count(g: GeneralizedPRBox, d: LocalDeterministic) -> int:
    """Number of rows where ``d``'s outcome falls outside ``g``'s support.

    Always odd: flipping any single setting letter of ``d`` changes the
    alignment of exactly the two rows measuring it, so the count's parity
    is an invariant of ``g``; the all-aligned count would be 0, but the
    odd number of anticorrelated rows makes full alignment impossible
    with even parity — the invariant parity is odd.
    """
    if g.scenario != d.scenario:
        raise PreconditionError("box scenarios differ")
    count = 0
    for r, (i, j) in enumerate(g.scenario.setting_pairs()):
        if d.outcome_column(i, j) in g.zero_columns(r):
            count += 1
    return count


# ---------------------------------------------------------------------------
# The chain as a cycle of setting "columns"
# ---------------------------------------------------------------------------
#
# Writing the settings in the order a1, b1, a2, b2, ..., an, bn, the
# measured pairs are exactly the adjacent (cyclic) column pairs, and the
# canonical row order lists them by left column: row j joins columns j
# and j+1 (mod 2n).  Even columns are Alice settings, odd are Bob's.


def _box_from_columns(scenario: Scenario, letters) -> LocalDeterministic:
    return LocalDeterministic(
        scenario,
        tuple(letters[2 * i] for i in range(scenario.n)),
        tuple(letters[2 * i + 1] for i in range(scenario.n)),
    )


def one_support_mismatches(
    g: GeneralizedPRBox,
) -> dict[MismatchCell, LocalDeterministic]:
    """The 4n deterministic boxes with exactly one support mismatch
    against ``g``, keyed by the cell where the mismatch sits.

    For a fixed zero cell the box is unique: the cell pins both letters
    of one measured pair, and g's correlation pattern propagates the
    remaining letters around the chain (correlated rows copy the letter
    across, anticorrelated rows flip it).  The odd anticorrelated count
    makes the propagation consistent exactly when one row is mismatched.
    """
    size = 2 * g.scenario.n
    out: dict[MismatchCell, LocalDeterministic] = {}
    for r in range(size):
        for col in g.zero_columns(r):
            a_letter, b_letter = COLUMNS[col][0], COLUMNS[col][1]
            letters: list[str | None] = [None] * size
            if r % 2 == 0:  # even column = Alice setting on the left
                letters[r] = a_letter
                letters[(r + 1) % size] = b_letter
            else:
                letters[r] = b_letter
                letters[(r + 1) % size] = a_letter
            for step in range(1, size):
                edge = (r + step) % size
                src = edge
                dst = (edge + 1) % size
                propagated = (
                    letters[src]
                    if g.row_types[edge] == CORRELATED
                    else _flip(letters[src])
                )
                if letters[dst] is None:
                    letters[dst] = propagated
                elif letters[dst] != propagated:
                    raise InvariantViolationError(
                        "mismatch propagation around the chain is inconsistent"
                    )
            box = _box_from_columns(g.scenario, letters)
            if support_mismatch_count(g, box) != 1:
                raise InvariantViolationError(
                    "constructed box does not have exactly one mismatch"
                )
            out[MismatchCell(r, COLUMNS[col])] = box
    return out


# ---------------------------------------------------------------------------
# Chained functional, identification, and read-off decomposition
# ---------------------------------------------------------------------------


def chained_value(dm: DistributionMatrix, g: GeneralizedPRBox) -> Fraction:
    """Total probability ``dm`` places in ``g``'s zero cells.

    At least 1 on every local matrix; equal to 0 on ``g`` itself.  For
    n=2 and g = PR box k this is (4 - CHSH_k) / 2.
    """
    if dm.scenario != g.scenario:
        raise PreconditionError("matrix and box scenarios differ")
    return sum(
        (dm.entries[r][c] for r, c in g.zero_cells()), Fraction(0)
    )


def canonical_gpr(scenario: Scenario) -> GeneralizedPRBox:
    """The reference box: every row correlated except the last (a1bn)."""
    types = [CORRELATED] * scenario.num_rows
    types[-1] = ANTICORRELATED
    return GeneralizedPRBox(scenario, tuple(types))


def identify_gpr(dm: DistributionMatrix) -> GeneralizedPRBox | None:
    """The unique generalized PR box whose functional drops below 1 on
    ``dm``, or ``None`` when the matrix is local.

    A no-signaling matrix can be nonlocal toward at most one box; two
    simultaneous sub-1 values mean the input was not a polytope member.

    The answer is kept on ``dm`` itself, so only the first call on a
    matrix object checks membership and scans the 2^(2n-1) boxes; every
    later call on it, from any function in this package, returns the
    same answer at once.  A failure is never kept: each call on a
    non-member raises again.
    """
    if dm._identified is None:
        require_member(dm, context="identify_gpr")
        hits = [
            g for g in enumerate_gprs(dm.scenario) if chained_value(dm, g) < 1
        ]
        if len(hits) > 1:
            raise InvariantViolationError(
                f"matrix is nonlocal toward {len(hits)} generalized PR boxes"
            )
        object.__setattr__(dm, "_identified", (hits[0] if hits else None,))
    return dm._identified[0]


def is_local_chained(dm: DistributionMatrix) -> bool:
    return identify_gpr(dm) is None


def readoff_weights(
    dm: DistributionMatrix, g: GeneralizedPRBox
) -> tuple[tuple[tuple[LocalDeterministic, Fraction], ...], Fraction]:
    """The cell read-off against ``g``: each one-mismatch companion with
    the entry of ``dm`` in its mismatch cell (row-major cell order), and
    the weight left for ``g``, 1 minus their sum.

    The mismatch cells are exactly g's zero cells, so g's weight is 1
    minus its chained value.  Weights are not checked: off the polytope
    some may be negative.
    """
    terms = tuple(
        (box, dm.entries[cell.row][cell.column])
        for cell, box in one_support_mismatches(g).items()
    )
    return terms, Fraction(1) - sum((w for _, w in terms), Fraction(0))


def decompose_chained(dm: DistributionMatrix) -> Decomposition:
    """Read-off decomposition of a matrix nonlocal toward some box ``g``:
    ``g`` plus one-mismatch deterministic boxes, the weight of each box
    being the matrix entry in its mismatch cell.

    The box weight is 1 minus the functional value, so the local weight
    of the decomposition *equals* the functional value — no local model
    can do better, which is why the bound is tight.
    """
    g = identify_gpr(dm)
    if g is None:
        raise NotApplicableError(
            "matrix is local: no generalized PR box functional falls below 1"
        )
    ld_terms, g_weight = readoff_weights(dm, g)
    if g_weight <= 0:
        raise InvariantViolationError(
            "functional below 1 must leave positive box weight"
        )
    dec = Decomposition(
        dm.scenario, (g, g_weight), tuple((box, w) for box, w in ld_terms if w > 0)
    )
    if dec.mixture() != dm:
        raise InconsistentInputError(
            "read-off weights do not reconstruct the input; the matrix is "
            "not a no-signaling polytope member"
        )
    return dec


def tightness_witness(dm: DistributionMatrix) -> tuple[Fraction, Decomposition]:
    """The maximal local weight achievable for ``dm`` and a decomposition
    achieving it: exactly the chained functional value of the violated
    box, witnessed by the read-off decomposition (which refuses local
    matrices: their maximal local weight is trivially 1)."""
    dec = decompose_chained(dm)
    weight = dec.local_weight
    if weight != chained_value(dm, dec.pr_term[0]):
        raise InvariantViolationError(
            "local weight of the read-off decomposition must equal the "
            "functional value"
        )
    return weight, dec


# ---------------------------------------------------------------------------
# Merging two generalized PR boxes into deterministic boxes
# ---------------------------------------------------------------------------

_UNLIKE = "U"

#: Column patterns: the outcome letters of the 4 output boxes at one
#: setting column.
_PATTERNS = ("++00", "00++", "+0+0", "0+0+")

#: Pattern propagation across a row boundary, by boundary label.
_PATTERN_STEP = {
    CORRELATED: {p: p for p in _PATTERNS},
    ANTICORRELATED: {"++00": "00++", "00++": "++00", "+0+0": "0+0+", "0+0+": "+0+0"},
    _UNLIKE: {"++00": "+0+0", "00++": "+0+0", "+0+0": "++00", "0+0+": "++00"},
}


def domino_merge(
    g_a: GeneralizedPRBox, g_b: GeneralizedPRBox
) -> tuple[LocalDeterministic, ...]:
    """4 deterministic boxes whose uniform mixture is (g_a + g_b) / 2.

    Label every row boundary between adjacent setting columns by whether
    the two boxes agree there (their common letter) or disagree (``U``);
    the disagreement count is even and positive.  Seeding the column
    right of the first disagreement with the pattern ``++00`` and
    propagating the patterns column by column around the chain fills a
    table whose 4 rows are the output boxes.  In each row the two boxes'
    halves of probability recombine: across agreeing boundaries two of
    the output boxes track each correlation branch, and across
    disagreeing boundaries the pattern regroups so that every output box
    stays deterministic.
    """
    if g_a.scenario != g_b.scenario:
        raise PreconditionError("box scenarios differ")
    if g_a == g_b:
        raise PreconditionError("merging requires two distinct boxes")
    size = 2 * g_a.scenario.n
    labels = [
        ta if ta == tb else _UNLIKE
        for ta, tb in zip(g_a.row_types, g_b.row_types)
    ]
    unlike = labels.count(_UNLIKE)
    if unlike == 0 or unlike % 2 != 0:
        raise InvariantViolationError(
            "distinct boxes must disagree on a positive even number of rows"
        )
    first = labels.index(_UNLIKE)
    patterns: list[str | None] = [None] * size
    seed_col = (first + 1) % size
    patterns[seed_col] = "++00"
    for step in range(1, size):
        col = (seed_col + step) % size
        boundary = (first + step) % size
        patterns[col] = _PATTERN_STEP[labels[boundary]][patterns[(seed_col + step - 1) % size]]
    if _PATTERN_STEP[_UNLIKE][patterns[first]] != patterns[seed_col]:
        raise InvariantViolationError(
            "pattern propagation failed to close around the chain"
        )
    boxes = tuple(
        _box_from_columns(g_a.scenario, [patterns[c][t] for c in range(size)])
        for t in range(4)
    )
    return boxes


# ---------------------------------------------------------------------------
# Replacing a many-mismatch deterministic box
# ---------------------------------------------------------------------------


def mismatch_replacement(
    g: GeneralizedPRBox, d: LocalDeterministic
) -> tuple[LocalDeterministic, ...]:
    """The 2m+1 one-mismatch boxes with  d + 2m g = their sum  (as
    matrices) for a deterministic box ``d`` with 2m+1 >= 3 support
    mismatches: g's companions (:func:`one_support_mismatches`) at d's
    mismatch cells, in canonical row order.

    Only they can appear: outside those cells neither d nor g weights
    g's zero cells, and a one-mismatch box puts all its zero-region mass
    on its own mismatch cell.  They sum correctly: from its mismatch row,
    where it agrees with d, a companion walks around the chain keeping
    g's correlations, which d breaks at each of its mismatch rows, so its
    letter on a column equals d's iff an even number of them lies between.
    On a row where d sits in g's support, the companions see 0, ..., 2m
    such rows between: m+1 take d's cell and m the other support cell.
    On a mismatch row, its own companion takes d's cell and the other 2m
    see 0, ..., 2m-1, so m take each support cell: d + 2m g row by row.
    """
    if g.scenario != d.scenario:
        raise PreconditionError("box scenarios differ")
    count = support_mismatch_count(g, d)
    if count == 1:
        raise PreconditionError(
            "box already has a single mismatch; nothing to replace"
        )
    if count % 2 != 1:
        raise InvariantViolationError("mismatch count must be odd")
    pairs = g.scenario.setting_pairs()
    return tuple(
        box
        for cell, box in one_support_mismatches(g).items()
        if d.outcome_column(*pairs[cell.row]) == cell.column
    )
