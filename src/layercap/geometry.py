"""Exact rational 2D polytopes in the first quadrant.

Regions are intersections of half-planes a*R1 + b*R2 <= c with nonnegative
coefficients, so they always contain the origin and are down-closed.
Vertices are kept counterclockwise starting at the origin; degenerate
regions (a segment or the origin alone) use 2 or 1 vertices.  No floating
point anywhere.

Intersection works in the polar dual: a plane with c > 0 is the point
(a/c, b/c), and the region's non-redundant planes are the hull chain of
those points between the two axes.  The hull is scanned on the integer
triples (a, b, c), with a 3x3 integer determinant as orientation test, in
O(P log P) for P planes.  Neighbours on the chain cross at the vertices in
counterclockwise order, one Fraction per coordinate, and RegionPolytope
checks that order instead of hulling again.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
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
        # ints are taken as they are: they are rationals with denominator 1,
        # and three of them are already the integer triple
        ints = type(a) is int and type(b) is int and type(c) is int
        if not ints:
            a, b, c = (x if type(x) is int else as_fraction(x) for x in (a, b, c))
        if a < 0 or b < 0:
            raise ValueError(f"coefficients must be nonnegative, got a={a}, b={b}")
        if a == 0 and b == 0:
            raise ValueError("(a, b) must not both be zero")
        if c < 0:
            raise ValueError(f"right-hand side must be nonnegative, got c={c}")
        if not ints:
            den = lcm(a.denominator, b.denominator, c.denominator)
            a, b, c = (x.numerator * (den // x.denominator) for x in (a, b, c))
        g = gcd(a, b, c)
        self.a, self.b, self.c = a // g, b // g, c // g

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


class RegionPolytope:
    """Convex, down-closed first-quadrant region given by its vertices.

    The constructor takes the canonical vertex tuple, as `intersect` builds
    it and `vertices` returns it, and only checks it: the origin first, a
    point on the R1 axis, a staircase along which R1 never rises and R2 never
    falls, a last point on the R2 axis, and a strict left turn at every
    vertex; a 2-vertex segment may lie on either axis.  Any other list, an
    unordered one included, raises ValueError, so equal regions compare equal.
    """

    __slots__ = ("_vertices",)

    def __init__(self, vertices):
        v = tuple((as_fraction(x), as_fraction(y)) for x, y in vertices)
        if not v or v[0] != (0, 0):
            raise ValueError("the origin must be the first vertex")
        if len(v) == 2 and not min(v[1]) == 0 < max(v[1]):
            raise ValueError("a 2-vertex region must be a segment along an axis")
        if len(v) >= 3:
            edges = [(x2 - x1, y2 - y1) for (x1, y1), (x2, y2) in zip(v, v[1:] + v[:1])]
            if (v[1][1] or v[-1][0] or not all(dx <= 0 <= dy for dx, dy in edges[1:-1])
                    or not all(ux * wy > uy * wx for (ux, uy), (wx, wy) in zip(edges, edges[1:]))):
                raise ValueError("vertices must run from the R1 axis to the R2 axis as a "
                                 "staircase that turns strictly left at every vertex")
        self._vertices = v

    @property
    def vertices(self) -> tuple:
        return self._vertices

    def contains(self, point) -> bool:
        """Closed-region membership: inside the box spanned by the two axis
        points and left of every staircase edge between them."""
        x, y = p = (as_fraction(point[0]), as_fraction(point[1]))
        v = self._vertices
        return (0 <= x <= v[1 % len(v)][0] and 0 <= y <= v[-1][1]
                and all(_cross(a, b, p) >= 0 for a, b in zip(v[1:], v[2:])))

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


def _det(u, v, w) -> int:
    # 3x3 determinant of three (a, b, c) rows; for c > 0 its sign is the
    # orientation of the dual points (a/c, b/c)
    return (u[0] * (v[1] * w[2] - v[2] * w[1])
            - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


def _axis_cap(rows, axis) -> tuple:
    # the plane (A, 0, C) or (0, B, C) that caps one rate at its axis
    # intercept: A/C is the largest a/c over the rows with a > 0 (B/C the
    # largest b/c), so a row with c = 0, which pins the rate to 0, wins.
    # Left unreduced: the orientation test and Cramer's rule are both blind
    # to a positive scale
    best = max((r for r in rows if r[axis]),
               key=cmp_to_key(lambda u, v: u[axis] * v[2] - v[axis] * u[2]))
    return (best[0], 0, best[2]) if axis == 0 else (0, best[1], best[2])


def intersect(planes) -> RegionPolytope:
    """Polytope of all (R1, R2) >= 0 satisfying every half-plane.

    A plane with c = 0 pins each rate it involves to 0, which leaves a
    segment on an axis or the origin.  Otherwise each plane is
    <(a/c, b/c), z> <= 1, so the region is the polar of the down-closed hull
    of those dual points.  That hull's chain from (A, 0) to (0, B), A and B
    the largest a/c and b/c, is exactly the set of non-redundant planes, and
    each pair of neighbours on it meets in one region vertex, in chain order.
    The chain is one scan over the planes sorted by the direction of (a, b),
    with a 3x3 integer determinant as the orientation test: O(P log P)
    integer operations, and one Fraction per vertex coordinate.  The vertex
    tuple is the origin, (A, 0), the crossings and (0, B), less repeats.
    Raises UnboundedRegionError when no plane bounds R1 or none bounds R2.
    """
    rows = {(p.a, p.b, p.c) for p in planes}
    if not any(a for a, _, _ in rows):
        raise UnboundedRegionError("no constraint bounds R1")
    if not any(b for _, b, _ in rows):
        raise UnboundedRegionError("no constraint bounds R2")
    cap1, cap2 = _axis_cap(rows, 0), _axis_cap(rows, 1)
    zero = Fraction(0)
    points = [(zero, zero), (Fraction(cap1[2], cap1[0]), zero)]
    if cap1[2] and cap2[2]:  # no rate pinned, so every row has c > 0
        # planes by the angle of (a, b); a plane looser than another of its
        # direction, or than a cap, lies inside the hull and the scan pops it
        by_angle = sorted(rows, key=cmp_to_key(lambda u, v: u[1] * v[0] - v[1] * u[0]))
        chain = [cap1]
        for row in by_angle + [cap2]:
            while len(chain) >= 2 and _det(chain[-2], chain[-1], row) <= 0:
                chain.pop()
            chain.append(row)
        # each neighbour pair's crossing, by Cramer's rule
        for (a1, b1, c1), (a2, b2, c2) in zip(chain, chain[1:]):
            det = a1 * b2 - a2 * b1
            points.append((Fraction(c1 * b2 - c2 * b1, det),
                           Fraction(a1 * c2 - a2 * c1, det)))
    points.append((zero, Fraction(cap2[2], cap2[1])))
    # drop repeats: a chain end whose line meets its axis point repeats that
    # point, and a pinned rate puts an axis point on the origin
    return RegionPolytope(points[:1] + [p for p, prev in zip(points[1:], points)
                                        if p != prev and p != points[0]])
