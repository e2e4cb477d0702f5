"""Constant-level channels and their known capacity region.

With every link fixed to a constant number of surviving layers the channel
is the classic deterministic interference channel, whose capacity region is
a closed-form polytope (Bresler and Tse, 2008).  _pins states it once, as
one table of eight pins: a weighted bound, its weights, and the closed-form
constraint it must equal on point-mass pmfs.  Both b pins are the same
sum-rate bound, so the table holds seven distinct half-planes: two rate
caps, three sum-rate bounds and two 2:1 bounds.  det_region intersects
them; verify_recovery checks each pin and the assembled outer region.
"""

from __future__ import annotations

from .channel import ChannelSpec, FadingPmf, _Record
from .bounds import bound_a, bound_b, bound_c, outer_region
from .geometry import HalfPlane, RegionPolytope, intersect


class DetChannel(_Record):
    """Constant link levels; q is the largest of the four."""

    __slots__ = ("n11", "n12", "n21", "n22")

    def __init__(self, n11: int, n12: int, n21: int, n22: int):
        for name, v in zip(DetChannel.__slots__, (n11, n12, n21, n22)):
            # bool is an int subclass, but a level written as True is an error
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")
        super().__init__(n11, n12, n21, n22)

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


def _pins(ch: DetChannel) -> tuple:
    """The eight pins (bound, its arguments after the spec, (a, b, c)): the
    bound must equal c, and a*R1 + b*R2 <= c is its closed-form constraint."""
    n11, n12, n21, n22 = ch.n11, ch.n12, ch.n21, ch.n22
    clear1, clear2 = max(n11 - n21, 0), max(n22 - n12, 0)
    sum_d = max(clear1, n12) + max(clear2, n21)
    return (
        (bound_a, (1, 0), (1, 0, n11)),
        (bound_a, (2, 0), (0, 1, n22)),
        (bound_a, (1, 1), (1, 1, max(n11, n21) + max(n22 - n21, 0))),
        (bound_a, (2, 1), (1, 1, max(n22, n12) + max(n11 - n12, 0))),
        (bound_b, (1, 1), (1, 1, sum_d)),
        (bound_b, (2, 1), (1, 1, sum_d)),
        (bound_c, (1, 1, 1), (2, 1, max(n11, n12) + clear1 + max(clear2, n21))),
        (bound_c, (2, 1, 1), (1, 2, max(n22, n21) + clear2 + max(clear1, n12))),
    )


def det_region(ch: DetChannel) -> RegionPolytope:
    """The deterministic capacity region: the pins' seven distinct
    half-planes intersected (intersect keeps the first of the two b pins)."""
    return intersect([HalfPlane(*plane) for _, _, plane in _pins(ch)])


def verify_recovery(ch: DetChannel) -> bool:
    """Whether the weighted-bound machinery recovers the closed forms: on the
    point-mass embedding every pinned bound equals its c, and the assembled
    outer region equals det_region."""
    spec = ch.to_spec()
    return (all(bound(spec, *args) == c for bound, args, (_, _, c) in _pins(ch))
            and outer_region(spec) == det_region(ch))
