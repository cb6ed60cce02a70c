"""Detector-efficiency transforms and the critical efficiency threshold.

A detector that fires with probability eta and reports the no-click
outcome ``0`` otherwise turns each conditional row (q++, q+0, q0+, q00)
into

    new(++) = ea * eb * q(++)
    new(+0) = ea * (q(+0) + (1 - eb) * q(++))
    new(0+) = eb * (q(0+) + (1 - ea) * q(++))
    new(00) = the remainder of the row

with independent efficiencies ea, eb per side.  The transform maps the
no-signaling polytope into itself and composes multiplicatively, so
nonlocality is monotone in eta and the threshold below which the
transformed matrix becomes local is well-defined; it is found by exact
bisection on rational midpoints, testing nonlocality with the chained
engine's :func:`~bellpoly.chained.identify_gpr` at every n, n=2
included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chained import identify_gpr
from .core import (
    DistributionMatrix,
    InvariantViolationError,
    PreconditionError,
    RationalLike,
    as_fraction,
    require_member,
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
    """The matrix observed through lossy detectors (no-click recorded 0)."""
    ea, eb = params.eta_a, params.eta_b
    rows = []
    for tpp, tpz, tzp, tzz in dm.entries:
        npp = ea * eb * tpp
        npz = ea * (tpz + (1 - eb) * tpp)
        nzp = eb * (tzp + (1 - ea) * tpp)
        total = tpp + tpz + tzp + tzz
        rows.append((npp, npz, nzp, total - npp - npz - nzp))
    return DistributionMatrix(dm.scenario, tuple(rows))


_BISECTION_STEPS = 60


def critical_efficiency(dm: DistributionMatrix) -> float | None:
    """Threshold symmetric efficiency below which ``dm`` becomes local.

    ``None`` when the matrix is already local at full efficiency.  The
    threshold is bracketed by 60 exact bisection steps (the transformed
    matrix at each rational midpoint is tested exactly for nonlocality),
    giving about 18 correct decimal digits.  Monotonicity of nonlocality
    in eta is asserted across all probed points.
    """
    require_member(dm, context="critical_efficiency")
    if identify_gpr(dm) is None:
        return None
    lo, hi = Fraction(0), Fraction(1)  # lo is always local, hi nonlocal
    probes: list[tuple[Fraction, bool]] = [(lo, False), (hi, True)]
    for _ in range(_BISECTION_STEPS):
        mid = (lo + hi) / 2
        nonlocal_here = (
            identify_gpr(apply_efficiency(dm, EfficiencyParams.symmetric(mid)))
            is not None
        )
        probes.append((mid, nonlocal_here))
        if nonlocal_here:
            hi = mid
        else:
            lo = mid
    max_local = max(eta for eta, hot in probes if not hot)
    min_nonlocal = min(eta for eta, hot in probes if hot)
    if max_local >= min_nonlocal:
        raise InvariantViolationError(
            "nonlocality failed to be monotone in the efficiency"
        )
    return float((lo + hi) / 2)
