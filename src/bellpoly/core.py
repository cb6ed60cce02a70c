"""Core types for no-signaling distribution matrices.

A bipartite Bell scenario with binary outcomes is recorded here as a
*distribution matrix*: one row per measured setting pair, one column per
joint outcome (``++``, ``+0``, ``0+``, ``00``), every entry an exact
rational probability.  The chained scenario with ``n`` settings per side
measures the 2n pairs

    a1b1, a2b1, a2b2, a3b2, ..., anb(n-1), anbn, a1bn

which is the fixed row order used throughout this package ("canonical
row order").  For ``n = 2`` this is a1b1, a2b1, a2b2, a1b2.

The extreme points of the no-signaling polytope come in two families:
local deterministic boxes (an outcome assignment per setting) and
generalized PR boxes (each row either perfectly correlated or perfectly
anticorrelated, with an odd number of anticorrelated rows).  Both are
modelled as small frozen value types that can render their induced
distribution matrix.  The n=2 vertices keep the paper's catalog
numbering, defined once here (:func:`catalog_222`, :func:`pr_index_of`,
:func:`ld_index_of`), so that every module names them alike; a box of
any other scenario has no catalog number.

The polytope itself is defined once, here: :func:`equalities` lists its
4n equality constraints (row normalization and no-signaling marginals),
and every cell is nonnegative.  :func:`validate` checks a matrix against
exactly that description, and :mod:`bellpoly.polytope` and the command
line read the same table.

Every value is an exact :class:`fractions.Fraction`; nothing in this
module rounds.  :func:`mix` and :func:`validate` sum integer numerators
over a common denominator (:func:`common_denominator`) and build a
``Fraction`` only for each result.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class BellError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(BellError, ValueError):
    """Input has the wrong dimensions, labels, or value types."""


class CapacityError(BellError):
    """Requested computation exceeds the supported problem size."""


class NormalizationError(BellError, ValueError):
    """Weights or probabilities do not form a distribution."""


class PreconditionError(BellError, ValueError):
    """Arguments violate a documented precondition of the operation."""


class NotApplicableError(BellError):
    """The operation requires a nonlocal input but received a local one."""


class InconsistentInputError(BellError):
    """A reconstruction identity failed, so the input was not as claimed."""


class InvariantViolationError(BellError):
    """An internal invariant failed; indicates a bug or corrupt input."""


class NonConvergenceError(BellError):
    """An iterative solver hit its iteration cap before reaching tolerance.

    The partially converged result is attached as ``best``.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


# ---------------------------------------------------------------------------
# Outcome / row-type alphabets
# ---------------------------------------------------------------------------

PLUS = "+"
ZERO = "0"
OUTCOMES = (PLUS, ZERO)

#: Column labels in fixed order: Alice outcome first, Bob outcome second.
COLUMNS = ("++", "+0", "0+", "00")

#: Column index for a pair of outcome letters (alice, bob).
COLUMN_INDEX = {
    (PLUS, PLUS): 0,
    (PLUS, ZERO): 1,
    (ZERO, PLUS): 2,
    (ZERO, ZERO): 3,
}

CORRELATED = "C"
ANTICORRELATED = "A"

#: Row of conditional probabilities for a perfectly correlated setting pair.
CORRELATED_ROW = (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(1, 2))
#: Row for a perfectly anticorrelated setting pair.
ANTICORRELATED_ROW = (Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(0))
#: Deterministic rows: ``UNIT_ROWS[c]`` puts probability 1 in column c.
#: Every deterministic box's matrix shares these row objects.
UNIT_ROWS = tuple(tuple(Fraction(int(c == k)) for k in range(4)) for c in range(4))

RationalLike = Union[Fraction, int, str, float]


#: Most decimal digits, and largest decimal exponent, that
#: :func:`as_fraction` accepts in a string or integer.  Every float's
#: shortest decimal form fits (exponents reach 324).
MAX_LITERAL_DIGITS = 400


def _literal_too_big(value: int | str) -> bool:
    if isinstance(value, int):
        return abs(value) >= 10**MAX_LITERAL_DIGITS
    mantissa, _, exponent = value.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    return (
        sum(ch.isdecimal() for ch in mantissa) > MAX_LITERAL_DIGITS
        or len(exponent) > MAX_LITERAL_DIGITS
        or (exponent.isdecimal() and int(exponent) > MAX_LITERAL_DIGITS)
    )


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ``value`` to an exact :class:`Fraction`.

    Decimal strings convert exactly (``"0.0000743"`` becomes
    743/10000000), as do ``"p/q"`` strings and integers.  Floats convert
    via their exact binary expansion.  Literals beyond
    :data:`MAX_LITERAL_DIGITS` are rejected before any integer is built.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ShapeError(f"expected a rational value, got {value!r}")
    if isinstance(value, (int, str)):
        if _literal_too_big(value):
            raise ShapeError(
                f"cannot parse rational value: more than {MAX_LITERAL_DIGITS} "
                f"digits or a decimal exponent beyond {MAX_LITERAL_DIGITS}"
            )
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ShapeError(f"cannot parse rational value {value!r}: {exc}") from exc
    if isinstance(value, float):
        return Fraction(value)
    raise ShapeError(f"expected a rational value, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A chained bipartite scenario with ``n`` binary settings per side."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 2:
            raise ShapeError(f"scenario requires an integer n >= 2, got {self.n!r}")

    @property
    def num_rows(self) -> int:
        return 2 * self.n

    @property
    def num_cells(self) -> int:
        return 8 * self.n

    def setting_pairs(self) -> tuple[tuple[int, int], ...]:
        """Measured (alice, bob) setting pairs, 1-based, in canonical row order."""
        pairs = [(1, 1)]
        for i in range(2, self.n + 1):
            pairs.append((i, i - 1))
            pairs.append((i, i))
        pairs.append((1, self.n))
        return tuple(pairs)

    def row_labels(self) -> tuple[str, ...]:
        return tuple(f"a{i}b{j}" for i, j in self.setting_pairs())

    def row_index(self, alice: int, bob: int) -> int:
        """Canonical row index of the pair (a_alice, b_bob)."""
        try:
            return self.setting_pairs().index((alice, bob))
        except ValueError:
            raise ShapeError(
                f"setting pair (a{alice}, b{bob}) is not measured in the "
                f"chained scenario with n={self.n}"
            ) from None


SCENARIO_222 = Scenario(2)


# ---------------------------------------------------------------------------
# Distribution matrices
# ---------------------------------------------------------------------------


def _freeze_entries(scenario: Scenario, entries) -> tuple[tuple[Fraction, ...], ...]:
    rows = tuple(entries)
    if len(rows) != scenario.num_rows:
        raise ShapeError(
            f"expected {scenario.num_rows} rows for n={scenario.n}, got {len(rows)}"
        )
    frozen = []
    for row in rows:
        # A row that is already frozen is kept, so matrices share rows.
        if not (
            type(row) is tuple
            and len(row) == 4
            and all(isinstance(v, Fraction) for v in row)
        ):
            row = tuple(as_fraction(v) for v in row)
            if len(row) != 4:
                raise ShapeError(f"expected 4 columns per row, got {len(row)}")
        frozen.append(row)
    return tuple(frozen)


@dataclass(frozen=True)
class DistributionMatrix:
    """A 2n-by-4 table of exact rational conditional probabilities.

    Construction checks only shape and rationality.  Membership in the
    no-signaling polytope (nonnegativity, row normalization, marginal
    consistency) is checked by :func:`validate`, so that out-of-polytope
    tables can still be represented and diagnosed.
    """

    scenario: Scenario
    entries: tuple[tuple[Fraction, ...], ...]
    #: :func:`~bellpoly.chained.identify_gpr`'s answer for this matrix,
    #: kept by its first successful call as a 1-tuple (the violated box,
    #: or ``None`` when local), so that the membership check and the box
    #: scan run once per matrix object.  A class attribute until then,
    #: and never a dataclass field, so ``==``, ``hash`` and ``repr``
    #: ignore it.
    _identified = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "entries", _freeze_entries(self.scenario, self.entries)
        )

    def cell(self, row: int, col: int) -> Fraction:
        return self.entries[row][col]

    def row(self, row: int) -> tuple[Fraction, ...]:
        return self.entries[row]

    def __iter__(self):
        return iter(self.entries)


#: Canonical row i is listed at position ``_ALICE_MAJOR_TO_CANONICAL[i]``
#: of the Alice-major order ab, ab', a'b, a'b'.
_ALICE_MAJOR_TO_CANONICAL = (0, 2, 3, 1)  # a1b1=ab, a2b1=a'b, a2b2=a'b', a1b2=ab'


def matrix_222(rows_222) -> DistributionMatrix:
    """Build an n=2 matrix from rows given in the order ab, ab', a'b, a'b'.

    Convenience for tables that enumerate the four setting pairs by
    Alice-major nesting rather than in canonical (chained) row order.
    """
    rows = tuple(rows_222)
    if len(rows) != 4:
        raise ShapeError(f"expected 4 rows, got {len(rows)}")
    return DistributionMatrix(
        SCENARIO_222, tuple(rows[k] for k in _ALICE_MAJOR_TO_CANONICAL)
    )


def rows_as_222(dm: DistributionMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """Rows of an n=2 matrix reordered to ab, ab', a'b, a'b'."""
    if dm.scenario.n != 2:
        raise ShapeError("Alice-major row order is defined for n=2 only")
    return tuple(dm.entries[_ALICE_MAJOR_TO_CANONICAL.index(k)] for k in range(4))


# ---------------------------------------------------------------------------
# Vertices: local deterministic boxes and generalized PR boxes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalDeterministic:
    """A deterministic local strategy: one fixed outcome per setting."""

    scenario: Scenario
    a_assign: tuple[str, ...]
    b_assign: tuple[str, ...]
    #: :meth:`matrix`, once built.  Not a dataclass field, so ``==``,
    #: ``hash`` and ``repr`` ignore it.
    _matrix = None

    def __post_init__(self) -> None:
        for name, assign in (("a_assign", self.a_assign), ("b_assign", self.b_assign)):
            letters = tuple(assign)
            if len(letters) != self.scenario.n or any(
                v not in OUTCOMES for v in letters
            ):
                raise ShapeError(
                    f"{name} must be {self.scenario.n} letters from {OUTCOMES}"
                )
            object.__setattr__(self, name, letters)

    def outcome_column(self, alice: int, bob: int) -> int:
        """Column index of the deterministic outcome at pair (1-based)."""
        return COLUMN_INDEX[(self.a_assign[alice - 1], self.b_assign[bob - 1])]

    def matrix(self) -> DistributionMatrix:
        """The box's distribution matrix, built once per box object."""
        if self._matrix is None:
            rows = tuple(
                UNIT_ROWS[self.outcome_column(i, j)]
                for i, j in self.scenario.setting_pairs()
            )
            object.__setattr__(self, "_matrix", DistributionMatrix(self.scenario, rows))
        return self._matrix


@dataclass(frozen=True)
class GeneralizedPRBox:
    """A no-signaling vertex with every row perfectly (anti)correlated.

    ``row_types`` lists one letter per canonical row: ``"C"`` for the
    correlated row (1/2, 0, 0, 1/2) and ``"A"`` for the anticorrelated
    row (0, 1/2, 1/2, 0).  The number of anticorrelated rows must be
    odd; with an even count the same rows admit a local model, so the
    box would not be a nonlocal vertex.
    """

    scenario: Scenario
    row_types: tuple[str, ...]
    #: :meth:`matrix`, once built.  Not a dataclass field, so ``==``,
    #: ``hash`` and ``repr`` ignore it.
    _matrix = None

    def __post_init__(self) -> None:
        types = tuple(self.row_types)
        if len(types) != self.scenario.num_rows or any(
            t not in (CORRELATED, ANTICORRELATED) for t in types
        ):
            raise ShapeError(
                f"row_types must be {self.scenario.num_rows} letters "
                f"'{CORRELATED}' or '{ANTICORRELATED}'"
            )
        if types.count(ANTICORRELATED) % 2 != 1:
            raise ShapeError(
                "a generalized PR box needs an odd number of anticorrelated rows"
            )
        object.__setattr__(self, "row_types", types)

    def matrix(self) -> DistributionMatrix:
        """The box's distribution matrix, built once per box object."""
        if self._matrix is None:
            rows = tuple(
                CORRELATED_ROW if t == CORRELATED else ANTICORRELATED_ROW
                for t in self.row_types
            )
            object.__setattr__(self, "_matrix", DistributionMatrix(self.scenario, rows))
        return self._matrix

    def zero_columns(self, row: int) -> tuple[int, int]:
        """Columns where this box puts zero probability in ``row``."""
        return (1, 2) if self.row_types[row] == CORRELATED else (0, 3)

    def zero_cells(self) -> tuple[tuple[int, int], ...]:
        """All (row, column) cells where this box puts zero probability."""
        return tuple(
            (r, c)
            for r in range(self.scenario.num_rows)
            for c in self.zero_columns(r)
        )


Box = Union[DistributionMatrix, LocalDeterministic, GeneralizedPRBox]


def as_matrix(box: Box) -> DistributionMatrix:
    """The distribution matrix induced by a vertex, or the matrix itself."""
    if isinstance(box, DistributionMatrix):
        return box
    if isinstance(box, (LocalDeterministic, GeneralizedPRBox)):
        return box.matrix()
    raise ShapeError(f"expected a box or matrix, got {type(box).__name__}")


# ---------------------------------------------------------------------------
# The n=2 vertex catalog
# ---------------------------------------------------------------------------

# PR boxes 1..8 as row types in Alice-major order (ab, ab', a'b, a'b').
# Boxes 2k and 2k-1 are complements: every C swapped with A.
_PR_TYPES_222 = (
    "CCCA",
    "AAAC",
    "CCAC",
    "AACA",
    "CACC",
    "ACAA",
    "ACCC",
    "CAAA",
)

# Local deterministic boxes 1..16 as outcome assignments (a, a', b, b').
_LD_ASSIGNMENTS = (
    "++++",
    "++00",
    "00++",
    "0000",
    "+++0",
    "++0+",
    "00+0",
    "000+",
    "+0++",
    "+000",
    "0+++",
    "0+00",
    "+0+0",
    "+00+",
    "0++0",
    "0+0+",
)

def _pr_from_types_222(types: str) -> GeneralizedPRBox:
    canonical = tuple(types[k] for k in _ALICE_MAJOR_TO_CANONICAL)
    return GeneralizedPRBox(SCENARIO_222, canonical)


def _ld_from_assignment(assignment: str) -> LocalDeterministic:
    a, a2, b, b2 = assignment
    return LocalDeterministic(SCENARIO_222, (a, a2), (b, b2))


_CATALOG_PRS = tuple(_pr_from_types_222(t) for t in _PR_TYPES_222)
_CATALOG_LDS = tuple(_ld_from_assignment(s) for s in _LD_ASSIGNMENTS)

#: Catalog index of each n=2 box.  Boxes compare by scenario and
#: letters, so a box built anywhere finds its index here, and a box of
#: any other scenario finds none.
_PR_INDEX = {box: k for k, box in enumerate(_CATALOG_PRS, start=1)}
_LD_INDEX = {box: k for k, box in enumerate(_CATALOG_LDS, start=1)}


def catalog_222() -> tuple[tuple[GeneralizedPRBox, ...], tuple[LocalDeterministic, ...]]:
    """The 24 vertices of the n=2 no-signaling polytope.

    Returns ``(prs, lds)``: 8 PR boxes and 16 local deterministic boxes
    in their fixed catalog order.  Catalog indices elsewhere in this
    package are 1-based: ``prs[k-1]`` is PR box ``k``.
    """
    return _CATALOG_PRS, _CATALOG_LDS


def pr_box(index: int) -> GeneralizedPRBox:
    """PR box by 1-based catalog index."""
    if not 1 <= index <= 8:
        raise PreconditionError(f"PR box index must be 1..8, got {index}")
    return _CATALOG_PRS[index - 1]


def ld_box(index: int) -> LocalDeterministic:
    """Local deterministic box by 1-based catalog index."""
    if not 1 <= index <= 16:
        raise PreconditionError(f"LD box index must be 1..16, got {index}")
    return _CATALOG_LDS[index - 1]


@functools.cache
def _matrix_indexes() -> tuple[dict, dict]:
    return (
        {box.matrix(): k for box, k in _PR_INDEX.items()},
        {box.matrix(): k for box, k in _LD_INDEX.items()},
    )


def ld_index_of(matrix: DistributionMatrix) -> int | None:
    """Catalog index of the deterministic box with this matrix, if any."""
    return _matrix_indexes()[1].get(matrix)


def pr_index_of(matrix: DistributionMatrix) -> int | None:
    """Catalog index of the PR box with this matrix, if any."""
    return _matrix_indexes()[0].get(matrix)


_MAX_ENUMERATION_N = 12


def enumerate_lds(scenario: Scenario) -> tuple[LocalDeterministic, ...]:
    """All 2^(2n) local deterministic boxes, in a fixed order."""
    if scenario.n > _MAX_ENUMERATION_N:
        raise CapacityError(
            f"enumerating 2^{2 * scenario.n} deterministic boxes is not supported "
            f"(n must be <= {_MAX_ENUMERATION_N})"
        )
    boxes = []
    for letters in itertools.product(OUTCOMES, repeat=2 * scenario.n):
        boxes.append(
            LocalDeterministic(
                scenario, letters[: scenario.n], letters[scenario.n :]
            )
        )
    return tuple(boxes)


def enumerate_gprs(scenario: Scenario) -> tuple[GeneralizedPRBox, ...]:
    """All 2^(2n-1) generalized PR boxes, in a fixed order."""
    if scenario.n > _MAX_ENUMERATION_N:
        raise CapacityError(
            f"enumerating 2^{2 * scenario.n - 1} PR boxes is not supported "
            f"(n must be <= {_MAX_ENUMERATION_N})"
        )
    boxes = []
    for types in itertools.product((CORRELATED, ANTICORRELATED), repeat=2 * scenario.n):
        if types.count(ANTICORRELATED) % 2 == 1:
            boxes.append(GeneralizedPRBox(scenario, types))
    return tuple(boxes)


# ---------------------------------------------------------------------------
# Mixtures and decompositions
# ---------------------------------------------------------------------------


def common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def mix(terms: Iterable[tuple[Box, RationalLike]]) -> DistributionMatrix:
    """Exact convex combination of boxes or matrices.

    Weights must be nonnegative rationals summing to exactly 1, and all
    terms must live in the same scenario.

    The sums run on integers: each term's cells are numerators over
    their least common denominator d, and a term of weight w = p/q adds
    ``p * (D // (d * q))`` times them, on its nonzero cells only, where
    D is the lcm of every term's ``d * q``.  Each cell's ``Fraction`` is
    built once, from its numerator over D; the cells no term touches
    share one zero.
    """
    pairs = [(as_matrix(box), as_fraction(w)) for box, w in terms]
    if not pairs:
        raise PreconditionError("mix requires at least one term")
    scenario = pairs[0][0].scenario
    if any(m.scenario != scenario for m, _ in pairs):
        raise ShapeError("all terms in a mixture must share one scenario")
    if any(w < 0 for _, w in pairs):
        raise NormalizationError("mixture weights must be nonnegative")
    weights, total = common_denominator([w for _, w in pairs])
    if sum(weights) != total:
        raise NormalizationError(
            f"mixture weights must sum to 1, got {Fraction(sum(weights), total)}"
        )
    scaled = []
    for m, w in pairs:
        if w:
            nums, d = common_denominator([v for row in m.entries for v in row])
            scaled.append((nums, d * w.denominator, w.numerator))
    denominator = lcm(*(d for _, d, _ in scaled))
    sums = [0] * scenario.num_cells
    for nums, d, p in scaled:
        factor = p * (denominator // d)
        for k, v in enumerate(nums):
            if v:
                sums[k] += factor * v
    zero = Fraction(0)
    cells = [Fraction(v, denominator) if v else zero for v in sums]
    rows = tuple(tuple(cells[k : k + 4]) for k in range(0, len(cells), 4))
    return DistributionMatrix(scenario, rows)


@dataclass(frozen=True)
class Decomposition:
    """A convex decomposition into at most one PR box plus LD boxes.

    Weights are strictly positive exact rationals summing to 1;
    zero-weight terms are never stored.
    """

    scenario: Scenario
    pr_term: tuple[GeneralizedPRBox, Fraction] | None
    ld_terms: tuple[tuple[LocalDeterministic, Fraction], ...]

    def __post_init__(self) -> None:
        weights = []
        if self.pr_term is not None:
            box, w = self.pr_term
            w = as_fraction(w)
            if box.scenario != self.scenario:
                raise ShapeError("PR term scenario mismatch")
            object.__setattr__(self, "pr_term", (box, w))
            weights.append(w)
        lds = []
        for box, w in self.ld_terms:
            w = as_fraction(w)
            if box.scenario != self.scenario:
                raise ShapeError("LD term scenario mismatch")
            lds.append((box, w))
            weights.append(w)
        object.__setattr__(self, "ld_terms", tuple(lds))
        if any(w <= 0 for w in weights):
            raise NormalizationError("decomposition weights must be positive")
        if sum(weights) != 1:
            raise NormalizationError(
                f"decomposition weights must sum to 1, got {sum(weights)}"
            )

    @property
    def pr_weight(self) -> Fraction:
        return self.pr_term[1] if self.pr_term is not None else Fraction(0)

    @property
    def local_weight(self) -> Fraction:
        return Fraction(1) - self.pr_weight

    def terms(self) -> tuple[tuple[Box, Fraction], ...]:
        out: list[tuple[Box, Fraction]] = []
        if self.pr_term is not None:
            out.append(self.pr_term)
        out.extend(self.ld_terms)
        return tuple(out)

    def mixture(self) -> DistributionMatrix:
        return mix(self.terms())


# ---------------------------------------------------------------------------
# Settings distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SettingsDistribution:
    """Probabilities with which the 2n setting pairs are measured."""

    scenario: Scenario
    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        probs = tuple(as_fraction(p) for p in self.probs)
        if len(probs) != self.scenario.num_rows:
            raise ShapeError(
                f"expected {self.scenario.num_rows} settings probabilities, "
                f"got {len(probs)}"
            )
        if any(p < 0 for p in probs):
            raise NormalizationError("settings probabilities must be nonnegative")
        if sum(probs) != 1:
            raise NormalizationError(
                f"settings probabilities must sum to 1, got {sum(probs)}"
            )
        object.__setattr__(self, "probs", probs)

    @classmethod
    def uniform(cls, scenario: Scenario) -> "SettingsDistribution":
        p = Fraction(1, scenario.num_rows)
        return cls(scenario, (p,) * scenario.num_rows)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One violated membership constraint, with its exact residual."""

    constraint: str  # "nonnegativity" | "normalization" | "no-signaling"
    location: str
    residual: Fraction

    def __str__(self) -> str:
        return f"{self.constraint} at {self.location}: residual {self.residual}"


@dataclass(frozen=True)
class Equality:
    """One equality constraint of the polytope: the cells ``plus`` sum to
    ``bound`` plus the cells ``minus``.

    Cells are row-major indices ``4 * row + column``.  ``constraint``
    and ``location`` are what :func:`validate` reports when it fails.
    """

    constraint: str  # "normalization" | "no-signaling"
    location: str
    plus: tuple[int, ...]
    minus: tuple[int, ...]
    bound: int


@functools.cache
def equalities(scenario: Scenario) -> tuple[Equality, ...]:
    """The 4n equality constraints of the no-signaling polytope.

    The polytope is the set of matrices that satisfy these and have no
    negative cell.  Order: the 2n row normalizations in canonical row
    order, then, for Alice's settings and then Bob's in ascending order,
    equality of that side's ``+`` marginal across the two rows that
    measure the setting.
    """
    labels = scenario.row_labels()
    table = [
        Equality("normalization", f"row {label}", tuple(range(4 * r, 4 * r + 4)),
                 (), 1)
        for r, label in enumerate(labels)
    ]
    for side, party, columns in (("alice", 0, (0, 1)), ("bob", 1, (0, 2))):
        rows: dict[int, list[int]] = {}
        for r, pair in enumerate(scenario.setting_pairs()):
            rows.setdefault(pair[party], []).append(r)
        for setting, (first, second) in sorted(rows.items()):
            table.append(
                Equality(
                    "no-signaling",
                    f"{side} setting {side[0]}{setting} between rows "
                    f"{labels[first]} and {labels[second]}",
                    tuple(4 * first + c for c in columns),
                    tuple(4 * second + c for c in columns),
                    0,
                )
            )
    return tuple(table)


def _numerator_sum(d: int, indices: tuple[int, ...], nums: list[int],
                   dens: list[int]) -> int | None:
    """``d`` times the sum of the cells at ``indices``, an integer, or
    ``None`` when some cell's denominator does not divide ``d``."""
    total = 0
    for k in indices:
        q, r = divmod(d, dens[k])
        if r:
            return None
        total += nums[k] * q
    return total


def validate(dm: DistributionMatrix) -> list[Violation]:
    """Check membership in the no-signaling polytope.

    Returns one :class:`Violation` per failed constraint: each negative
    cell, then each failed entry of :func:`equalities` in table order,
    with residual ``sum(plus) - bound - sum(minus)``.  An empty report
    means the matrix is a polytope member.

    A cell's sign is its numerator's.  Each equality is summed on its
    own, in integers: the numerators of its (at most four) cells over
    the largest of their denominators, when that is a multiple of the
    others and so their lcm.  Otherwise the cells are added as
    ``Fraction``s: for unrelated large denominators, taking their lcm
    and reducing the sum over it costs more than ``Fraction`` addition
    does.  A ``Fraction`` residual is built only for a failed equality.
    """
    cells = [v for row in dm.entries for v in row]
    nums = [v.numerator for v in cells]
    dens = [v.denominator for v in cells]
    violations = [
        Violation(
            "nonnegativity",
            f"cell ({dm.scenario.row_labels()[k // 4]}, {COLUMNS[k % 4]})",
            cells[k],
        )
        for k, p in enumerate(nums)
        if p < 0
    ]
    for eq in equalities(dm.scenario):
        d = max([dens[k] for k in eq.plus + eq.minus])
        plus = _numerator_sum(d, eq.plus, nums, dens)
        minus = None if plus is None else _numerator_sum(d, eq.minus, nums, dens)
        if minus is None:
            total = sum([cells[k] for k in eq.plus[1:]], cells[eq.plus[0]])
            target = sum([cells[k] for k in eq.minus], eq.bound)
            residual = total - target if total != target else 0
        else:
            numerator = plus - minus - eq.bound * d
            residual = Fraction(numerator, d) if numerator else 0
        if residual:
            violations.append(Violation(eq.constraint, eq.location, residual))
    return violations


def require_member(dm: DistributionMatrix, *, context: str = "operation") -> None:
    """Raise :class:`PreconditionError` unless ``dm`` passes :func:`validate`."""
    violations = validate(dm)
    if violations:
        summary = "; ".join(str(v) for v in violations[:4])
        more = "" if len(violations) <= 4 else f" (+{len(violations) - 4} more)"
        raise PreconditionError(
            f"{context} requires a no-signaling distribution matrix: {summary}{more}"
        )
