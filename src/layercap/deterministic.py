"""Constant-level channels and their known capacity region.

With every link fixed to a constant number of surviving layers the channel
is the classic deterministic interference channel, whose capacity region is
a closed-form polytope of seven half-planes: two rate caps, three sum-rate
bounds and two 2:1 bounds.  The weighted-bound machinery must reproduce that
polytope exactly when fed point-mass pmfs; verify_recovery checks it
constraint by constraint and as a full region.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .channel import ChannelSpec, FadingPmf
from .bounds import bound_a, bound_b, bound_c, outer_region
from .geometry import HalfPlane, RegionPolytope, intersect


@dataclass(frozen=True)
class DetChannel:
    """Constant link levels; q is the largest of the four."""

    n11: int
    n12: int
    n21: int
    n22: int

    def __post_init__(self):
        for name, v in self.levels().items():
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")

    def levels(self) -> dict:
        return {"n11": self.n11, "n12": self.n12, "n21": self.n21, "n22": self.n22}

    @property
    def q(self) -> int:
        return max(self.n11, self.n12, self.n21, self.n22)

    def to_spec(self) -> ChannelSpec:
        q = self.q
        return ChannelSpec(
            n11=FadingPmf.point(self.n11, q),
            n12=FadingPmf.point(self.n12, q),
            n21=FadingPmf.point(self.n21, q),
            n22=FadingPmf.point(self.n22, q),
        )


def _constraints(ch: DetChannel):
    n11, n12, n21, n22 = ch.n11, ch.n12, ch.n21, ch.n22
    sum_b = max(n11, n21) + max(n22 - n21, 0)
    sum_c = max(n22, n12) + max(n11 - n12, 0)
    sum_d = max(max(n11 - n21, 0), n12) + max(max(n22 - n12, 0), n21)
    two_one = max(n11, n12) + max(n11 - n21, 0) + max(max(n22 - n12, 0), n21)
    one_two = max(n22, n21) + max(n22 - n12, 0) + max(max(n11 - n21, 0), n12)
    return sum_b, sum_c, sum_d, two_one, one_two


def det_region(ch: DetChannel) -> RegionPolytope:
    """The deterministic capacity region: two rate caps, three sum bounds, two 2:1 bounds."""
    sum_b, sum_c, sum_d, two_one, one_two = _constraints(ch)
    return intersect([
        HalfPlane(1, 0, ch.n11),
        HalfPlane(0, 1, ch.n22),
        HalfPlane(1, 1, sum_b),
        HalfPlane(1, 1, sum_c),
        HalfPlane(1, 1, sum_d),
        HalfPlane(2, 1, two_one),
        HalfPlane(1, 2, one_two),
    ])


@dataclass(frozen=True)
class RecoveryCheck:
    family: str
    omega: Fraction
    mu: object
    value: Fraction
    target: Fraction
    ok: bool


@dataclass(frozen=True)
class RecoveryReport:
    channel: DetChannel
    checks: tuple
    region_match: bool

    @property
    def ok(self) -> bool:
        return self.region_match and all(c.ok for c in self.checks)


def verify_recovery(ch: DetChannel) -> RecoveryReport:
    """Check each weighted bound against its deterministic counterpart.

    The point-mass embedding must make every named bound land exactly on the
    matching closed-form constraint, and the assembled outer region must
    equal det_region as a polytope.
    """
    spec = ch.to_spec()
    sum_b, sum_c, sum_d, two_one, one_two = _constraints(ch)
    one = Fraction(1)
    zero = Fraction(0)
    pairs = [
        ("1a", zero, None, bound_a(spec, 1, 0), Fraction(ch.n11)),
        ("2a", zero, None, bound_a(spec, 2, 0), Fraction(ch.n22)),
        ("1a", one, None, bound_a(spec, 1, 1), Fraction(sum_b)),
        ("2a", one, None, bound_a(spec, 2, 1), Fraction(sum_c)),
        ("1b", one, None, bound_b(spec, 1, 1), Fraction(sum_d)),
        ("2b", one, None, bound_b(spec, 2, 1), Fraction(sum_d)),
        ("1c", one, one, bound_c(spec, 1, 1, 1), Fraction(two_one)),
        ("2c", one, one, bound_c(spec, 2, 1, 1), Fraction(one_two)),
    ]
    checks = tuple(
        RecoveryCheck(family, om, mu, value, target, value == target)
        for family, om, mu, value, target in pairs
    )
    region_match = outer_region(spec) == det_region(ch)
    return RecoveryReport(channel=ch, checks=checks, region_match=region_match)
