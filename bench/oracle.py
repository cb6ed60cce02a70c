"""The benchmark's own arithmetic for checking results.

These helpers work on raw cell tuples and share no code with bellpoly's
analysis routines, so a check built on them does not repeat the call it
checks.  Cells are exact rationals in the canonical chained row order,
columns ``++ +0 0+ 00``.
"""

from __future__ import annotations

import math
from fractions import Fraction

CORRELATED, ANTICORRELATED = "C", "A"


def min_chained(entries) -> tuple[Fraction, tuple[str, ...]]:
    """Smallest chained functional value over all generalized PR boxes,
    and the row types of a box attaining it.

    A box puts zero mass on ``+0, 0+`` in a correlated row and on
    ``++, 00`` in an anticorrelated row, and needs an odd number of
    anticorrelated rows; the functional is the mass the matrix puts in
    the box's zero cells.  Taking the cheaper type per row and, if the
    parity is wrong, flipping the row with the smallest cost gap gives
    the minimum in linear time.  A no-signaling matrix is local exactly
    when this minimum is at least 1.
    """
    costs = [(row[1] + row[2], row[0] + row[3]) for row in entries]
    types = [CORRELATED if c <= a else ANTICORRELATED for c, a in costs]
    value = sum((min(c, a) for c, a in costs), Fraction(0))
    if types.count(ANTICORRELATED) % 2 == 0:
        flip = min(range(len(costs)), key=lambda r: abs(costs[r][0] - costs[r][1]))
        value += abs(costs[flip][0] - costs[flip][1])
        types[flip] = ANTICORRELATED if types[flip] == CORRELATED else CORRELATED
    return value, tuple(types)


def chained_value(entries, row_types) -> Fraction:
    """Mass ``entries`` puts in the zero cells of the box with ``row_types``."""
    return sum(
        ((row[1] + row[2]) if t == CORRELATED else (row[0] + row[3])
         for row, t in zip(entries, row_types)),
        Fraction(0),
    )


def is_member(entries, setting_pairs) -> bool:
    """Whether cells form a no-signaling matrix: nonnegative rows summing
    to 1, each party's marginal independent of the other's setting.
    ``setting_pairs`` lists the (alice, bob) setting of each row."""
    if any(v < 0 for row in entries for v in row) or any(sum(row) != 1 for row in entries):
        return False
    alice, bob = {}, {}
    for (a, b), row in zip(setting_pairs, entries):
        alice.setdefault(a, set()).add(row[0] + row[1])
        bob.setdefault(b, set()).add(row[0] + row[2])
    return all(len(m) == 1 for m in (*alice.values(), *bob.values()))


def is_local(entries) -> bool:
    return min_chained(entries)[0] >= 1


def mixture(terms) -> tuple[tuple[Fraction, ...], ...]:
    """Cellwise convex combination of ``(entries, weight)`` pairs."""
    terms = list(terms)
    rows = len(terms[0][0])
    return tuple(
        tuple(sum((w * e[r][c] for e, w in terms), Fraction(0)) for c in range(4))
        for r in range(rows)
    )


def kl_bits(q_entries, s_entries, settings_probs) -> float:
    """KL divergence in bits between the settings-weighted joint
    distributions of two matrices."""
    total = 0.0
    for prob, qrow, srow in zip(settings_probs, q_entries, s_entries):
        for qv, sv in zip(qrow, srow):
            if qv == 0:
                continue
            if sv == 0:
                return math.inf
            total += float(prob * qv) * math.log2(float(qv) / float(sv))
    return total


def parse_cells(doc: dict) -> tuple[tuple[Fraction, ...], ...]:
    """Cells of a distribution document whose rows are in canonical order."""
    return tuple(tuple(Fraction(v) for v in row["probs"]) for row in doc["rows"])


def rounded(value: Fraction, digits: int) -> str:
    """``value`` rounded to ``digits`` decimals, as a decimal string."""
    scaled = round(value * 10**digits)
    whole, frac = divmod(scaled, 10**digits)
    return f"{whole}.{frac:0{digits}d}"
