"""Exact rational 2D polytopes in the first quadrant.

Regions are intersections of half-planes a*R1 + b*R2 <= c with nonnegative
coefficients, so they always contain the origin.  Vertices are kept
counterclockwise starting at the origin; degenerate regions (a segment or
the origin alone) use 2 or 1 vertices.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .channel import as_fraction


class UnboundedRegionError(Exception):
    """The half-plane family leaves the region unbounded."""


class HalfPlane:
    """Constraint a*R1 + b*R2 <= c with a, b, c >= 0 and (a, b) != (0, 0).

    Coefficients are stored gcd-reduced over the integers, so two instances
    describe the same constraint iff they compare equal.
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        a, b, c = as_fraction(a), as_fraction(b), as_fraction(c)
        if a < 0 or b < 0:
            raise ValueError(f"coefficients must be nonnegative, got a={a}, b={b}")
        if a == 0 and b == 0:
            raise ValueError("(a, b) must not both be zero")
        if c < 0:
            raise ValueError(f"right-hand side must be nonnegative, got c={c}")
        den = lcm(a.denominator, b.denominator, c.denominator)
        na, nb, nc = int(a * den), int(b * den), int(c * den)
        g = gcd(na, nb, nc)
        self.a, self.b, self.c = na // g, nb // g, nc // g

    def holds(self, point) -> bool:
        x, y = point
        return self.a * x + self.b * y <= self.c

    def tight(self, point) -> bool:
        x, y = point
        return self.a * x + self.b * y == self.c

    def __eq__(self, other):
        if not isinstance(other, HalfPlane):
            return NotImplemented
        return (self.a, self.b, self.c) == (other.a, other.b, other.c)

    def __hash__(self):
        return hash((self.a, self.b, self.c))

    def __repr__(self):
        return f"HalfPlane({self.a}*R1 + {self.b}*R2 <= {self.c})"


def _cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> list:
    """Counterclockwise hull starting at the lexicographic minimum.

    Duplicate and collinear-interior points are dropped; 1- and 2-point
    hulls come back as-is for degenerate inputs.
    """
    pts = sorted(set(points))
    if len(pts) <= 1:
        return pts

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


class RegionPolytope:
    """Convex first-quadrant region given by its vertices.

    The constructor accepts any point set whose hull is the region and
    canonicalizes it, so equal regions always compare equal.
    """

    __slots__ = ("_vertices",)

    def __init__(self, points):
        pts = [(as_fraction(x), as_fraction(y)) for x, y in points]
        if not pts:
            raise ValueError("a region needs at least one vertex")
        if any(x < 0 or y < 0 for x, y in pts):
            raise ValueError("vertices must lie in the first quadrant")
        hull = convex_hull(pts)
        origin = (Fraction(0), Fraction(0))
        if origin not in hull:
            raise ValueError("the origin must be a vertex of the region")
        i = hull.index(origin)
        self._vertices = tuple(hull[i:] + hull[:i])

    @property
    def vertices(self) -> tuple:
        return self._vertices

    def contains(self, point) -> bool:
        """Closed-region membership test."""
        p = (as_fraction(point[0]), as_fraction(point[1]))
        v = self._vertices
        if len(v) == 1:
            return p == v[0]
        if len(v) == 2:
            if _cross(v[0], v[1], p) != 0:
                return False
            dx, dy = v[1][0] - v[0][0], v[1][1] - v[0][1]
            t = (p[0] - v[0][0]) * dx + (p[1] - v[0][1]) * dy
            return 0 <= t <= dx * dx + dy * dy
        n = len(v)
        return all(_cross(v[i], v[(i + 1) % n], p) >= 0 for i in range(n))

    def support(self, w1, w2) -> Fraction:
        """max w1*R1 + w2*R2 over the region; attained at a vertex."""
        w1, w2 = as_fraction(w1), as_fraction(w2)
        if w1 < 0 or w2 < 0 or (w1 == 0 and w2 == 0):
            raise ValueError("weights must be nonnegative and not both zero")
        return max(w1 * x + w2 * y for x, y in self._vertices)

    def subset_of(self, other: "RegionPolytope") -> bool:
        """True iff self is contained in other (vertex test; both are convex)."""
        return all(other.contains(v) for v in self._vertices)

    def __eq__(self, other):
        if not isinstance(other, RegionPolytope):
            return NotImplemented
        return self._vertices == other._vertices

    def __hash__(self):
        return hash(self._vertices)

    def __repr__(self):
        pts = ", ".join(f"({x}, {y})" for x, y in self._vertices)
        return f"RegionPolytope([{pts}])"


def _edge_hit(s, e, plane: HalfPlane):
    # intersection of segment s-e with the plane's boundary line; callers
    # guarantee the endpoints straddle it, so the denominator is nonzero
    dx, dy = e[0] - s[0], e[1] - s[1]
    den = plane.a * dx + plane.b * dy
    t = Fraction(plane.c - plane.a * s[0] - plane.b * s[1], den)
    return (s[0] + t * dx, s[1] + t * dy)


def _clip(pts: list, plane: HalfPlane) -> list:
    if len(pts) == 1:
        return pts if plane.holds(pts[0]) else []
    out = []
    n = len(pts)
    for i in range(n):
        s, e = pts[i], pts[(i + 1) % n]
        s_in, e_in = plane.holds(s), plane.holds(e)
        if s_in:
            out.append(s)
            if not e_in:
                out.append(_edge_hit(s, e, plane))
        elif e_in:
            out.append(_edge_hit(s, e, plane))
    return out


def intersect(planes) -> RegionPolytope:
    """Polytope of all (R1, R2) >= 0 satisfying every half-plane.

    Starts from the bounding rectangle implied by the single-rate caps and
    clips by each plane in turn (exact Sutherland-Hodgman).  Raises
    UnboundedRegionError when no plane bounds R1 or none bounds R2.
    """
    planes = list(planes)
    xs = [Fraction(p.c, p.a) for p in planes if p.a > 0]
    ys = [Fraction(p.c, p.b) for p in planes if p.b > 0]
    if not xs:
        raise UnboundedRegionError("no constraint bounds R1")
    if not ys:
        raise UnboundedRegionError("no constraint bounds R2")
    u1, u2 = min(xs), min(ys)
    zero = Fraction(0)
    poly = list(dict.fromkeys([(zero, zero), (u1, zero), (u1, u2), (zero, u2)]))
    for plane in planes:
        poly = _clip(poly, plane)
    return RegionPolytope(poly)

