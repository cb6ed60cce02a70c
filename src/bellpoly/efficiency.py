"""Detector-efficiency transforms and the exact critical efficiency.

A detector that fires with probability eta and reports the no-click
outcome ``0`` otherwise turns each conditional row (q++, q+0, q0+, q00)
into

    new(++) = ea * eb * q(++)
    new(+0) = ea * (q(+0) + (1 - eb) * q(++))
    new(0+) = eb * (q(0+) + (1 - ea) * q(++))
    new(00) = the remainder of the row

with independent efficiencies ea, eb per side.  The transform maps the
no-signaling polytope into itself and composes multiplicatively, so
nonlocality is monotone in eta: the matrices that stay nonlocal form an
interval (eta*, 1].  A member is nonlocal toward at most one generalized
PR box, so the box g violated at eta = 1 is violated on that whole
interval.  Along the symmetric transform g's chained value minus 1 is a
quadratic in eta, nonnegative at 0 and negative at 1, and eta* is its
largest root in [0, 1): a rational or a quadratic surd, found exactly.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .chained import chained_value, identify_gpr
from .core import (
    DistributionMatrix,
    InvariantViolationError,
    PreconditionError,
    RationalLike,
    as_fraction,
    common_denominator,
)


@dataclass(frozen=True)
class EfficiencyParams:
    """Detection efficiencies for the two sides, each in [0, 1]."""

    eta_a: Fraction
    eta_b: Fraction

    def __post_init__(self) -> None:
        ea = as_fraction(self.eta_a)
        eb = as_fraction(self.eta_b)
        if not (0 <= ea <= 1 and 0 <= eb <= 1):
            raise PreconditionError(
                f"efficiencies must lie in [0, 1], got {ea}, {eb}"
            )
        object.__setattr__(self, "eta_a", ea)
        object.__setattr__(self, "eta_b", eb)

    @classmethod
    def symmetric(cls, eta: RationalLike) -> "EfficiencyParams":
        eta = as_fraction(eta)
        return cls(eta, eta)


def apply_efficiency(
    dm: DistributionMatrix, params: EfficiencyParams
) -> DistributionMatrix:
    """The matrix observed through lossy detectors (no-click recorded 0).

    Each row runs on integers: with its cells as numerators over their
    least common denominator d and ea = a/a', eb = b/b', the four new
    cells are numerators over d * a' * b', and each cell's ``Fraction``
    is built once from them.  Zero cells share one zero.
    """
    a, a_den = params.eta_a.numerator, params.eta_a.denominator
    b, b_den = params.eta_b.numerator, params.eta_b.denominator
    zero = Fraction(0)
    rows = []
    for row in dm.entries:
        (pp, pz, zp, zz), d = common_denominator(row)
        npp = a * b * pp
        npz = a * (pz * b_den + (b_den - b) * pp)
        nzp = b * (zp * a_den + (a_den - a) * pp)
        nzz = (pp + pz + zp + zz) * a_den * b_den - npp - npz - nzp
        d *= a_den * b_den
        rows.append(tuple(Fraction(v, d) if v else zero for v in (npp, npz, nzp, nzz)))
    return DistributionMatrix(dm.scenario, tuple(rows))


@functools.total_ordering
@dataclass(frozen=True, eq=False)
class EfficiencyThreshold:
    """The exact number p + q*sqrt(r), with rational p, q and integer r.

    ``q`` and ``r`` are both 0 when the number is rational; otherwise r
    is not a perfect square and has no square factor d*d with d < 100
    (larger ones are left in place).  Compares exactly with rationals,
    and for equality with other thresholds; ``float()`` rounds correctly.
    """

    p: Fraction
    q: Fraction = Fraction(0)
    r: int = 0

    def __post_init__(self) -> None:
        p, q, r = Fraction(self.p), Fraction(self.q), int(self.r)
        if r < 0:
            raise PreconditionError(f"surd radicand must be nonnegative, got {r}")
        for d in range(2, 100):
            while r and r % (d * d) == 0:
                r, q = r // (d * d), q * d
        s = math.isqrt(r)
        if q == 0 or s * s == r:
            p, q, r = p + q * s, Fraction(0), 0
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)

    def _sign_above(self, t: Fraction) -> int:
        """The sign of self - t, decided exactly."""
        u = self.p - t
        sign_u = (u > 0) - (u < 0)
        sign_q = (self.q > 0) - (self.q < 0)
        if sign_q == 0 or sign_u == sign_q or sign_u == 0:
            return sign_u or sign_q
        # u and q*sqrt(r) have opposite signs; the larger magnitude wins.
        return sign_u if u * u > self.q * self.q * self.r else sign_q

    def __eq__(self, other) -> bool:
        if isinstance(other, EfficiencyThreshold):
            return (
                self.p == other.p
                and self.q * self.q * self.r == other.q * other.q * other.r
                and (self.q > 0) == (other.q > 0)
            )
        if isinstance(other, numbers.Rational):
            return self.q == 0 and self.p == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.q == 0:
            return hash(self.p)
        return hash((self.p, self.q * self.q * self.r, self.q > 0))

    def __lt__(self, other) -> bool:
        if not isinstance(other, numbers.Rational):
            return NotImplemented
        return self._sign_above(Fraction(other)) < 0

    def __float__(self) -> float:
        if self.q == 0:
            return float(self.p)
        # isqrt brackets sqrt(r) * 2^bits within one unit; widen until both
        # ends of the bracket round to the same float (an irrational value
        # never sits on a rounding boundary, so this ends).
        bits = 192
        while True:
            s = math.isqrt(self.r << (2 * bits))
            ends = {
                float(self.p + self.q * Fraction(s + k, 1 << bits)) for k in (0, 1)
            }
            if len(ends) == 1:
                return ends.pop()
            bits *= 2

    def __str__(self) -> str:
        if self.q == 0:
            return str(self.p)
        sign = "+" if self.q > 0 else "-"
        return f"{self.p} {sign} {abs(self.q)}*sqrt({self.r})"


def critical_efficiency_exact(dm: DistributionMatrix) -> EfficiencyThreshold | None:
    """Exact symmetric efficiency at and below which ``dm`` is local.

    ``None`` when the matrix is already local at full efficiency.  With
    g the box violated at eta = 1, f(eta) = (g's chained value after the
    transform) - 1 is a quadratic fixed by its exact values at eta = 0,
    1/2 and 1.  The threshold is f's largest root in [0, 1); f(0) >= 0,
    f(1) < 0 and f(root) = 0 are checked exactly.
    """
    g = identify_gpr(dm)
    if g is None:
        return None

    def excess(eta: Fraction) -> Fraction:
        image = apply_efficiency(dm, EfficiencyParams.symmetric(eta))
        return chained_value(image, g) - 1

    y0, y_half, y1 = excess(Fraction(0)), excess(Fraction(1, 2)), excess(Fraction(1))
    if not y0 >= 0 > y1:
        raise InvariantViolationError(
            f"violated box's excess is {y0} at eta=0 and {y1} at eta=1; "
            "expected f(0) >= 0 > f(1)"
        )
    a = 2 * y0 - 4 * y_half + 2 * y1
    b = -3 * y0 + 4 * y_half - y1
    c = y0
    if a == 0:
        roots = [EfficiencyThreshold(-c / b)]  # b = f(1) - f(0) < 0
    else:
        # sqrt(b^2 - 4ac) = sqrt(num * den) / den; the larger root first.
        disc = b * b - 4 * a * c
        p, q = -b / (2 * a), Fraction(1, 2 * abs(a) * disc.denominator)
        radicand = disc.numerator * disc.denominator
        if radicand < 0:
            raise InvariantViolationError("violated box's excess has no real root")
        roots = [
            EfficiencyThreshold(p, q, radicand),
            EfficiencyThreshold(p, -q, radicand),
        ]
    root = next((x for x in roots if 0 <= x < 1), None)
    if root is None:
        raise InvariantViolationError("violated box's excess has no root in [0, 1)")
    if root.q == 0:
        on_boundary = excess(root.p) == 0
    else:
        # a x^2 + b x + c at x = p + q sqrt(r), rational and sqrt(r) parts.
        rational = a * (root.p ** 2 + root.q ** 2 * root.r) + b * root.p + c
        on_boundary = rational == 0 and 2 * a * root.p + b == 0
    if not on_boundary:
        raise InvariantViolationError(
            f"violated box's excess does not vanish at its root {root}"
        )
    return root


def critical_efficiency(dm: DistributionMatrix) -> float | None:
    """:func:`critical_efficiency_exact`, correctly rounded to a float."""
    threshold = critical_efficiency_exact(dm)
    return None if threshold is None else float(threshold)
