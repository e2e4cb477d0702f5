"""Exact rational 2D polytopes in the first quadrant.

Regions are intersections of half-planes a*R1 + b*R2 <= c with nonnegative
coefficients, so they always contain the origin and are down-closed.
Vertices are kept counterclockwise starting at the origin; degenerate
regions (a segment or the origin alone) use 2 or 1 vertices.  Every value
and every test is exact.  A float serves as a sort key, or decides the sign
of an orientation test when an a-priori bound on its error proves that sign
(_orient, a static filter in Shewchuk's manner); otherwise the exact test
runs.

Intersection works in the polar dual: a plane with c > 0 is the point
(a/c, b/c), and the region's non-redundant planes are the hull chain of
those points between the two axes.  One scan finds that chain on integer
triples (a, b, c), a HalfPlane's reduced ones or a Row as the bounds
module emits it, unreduced and over the bounds' common denominator den
(the plane a*R1 + b*R2 <= c/den), in O(P log P) for P planes.  Its
orientation test, chosen once per call, is a 3x3 integer determinant, or
on operands of _FILTER_BITS or more the float orientation of the dual
points, with the determinant where that sign is not certified; one
positive scale for every row leaves each orientation's sign, so den
enters only the vertices.  Float keys and dual points read a and b times
one power of two near den, which keeps their order and signs.  The
presort is ratio_order: a correctly rounded float key, with runs of equal
keys settled by cross-multiplying, and the scan cross-multiplies two rows
for one direction only where their keys are equal.  Neighbours on the
chain cross at the vertices in counterclockwise order.  A pair the caller
recorded in crossings, as the bounds module records two rows of one bound
piece, which cross at that piece's apex, meets at (X/den, Y/den) as
recorded; any other pair at one Fraction num/(det*den) per coordinate by
Cramer's rule, taken as (num/det)/den where det divides num.
RegionPolytope checks that order instead of hulling again, with the float
orientation test and the exact one where that is not certified.  The
chain also names the planes along the region's edges; the region records
them and den, and active_planes reads them back.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import compress, pairwise
from math import gcd, lcm
from operator import eq, itemgetter

from .channel import _Record, as_fraction


class UnboundedRegionError(Exception):
    """The half-plane family leaves the region unbounded."""


class HalfPlane(_Record):
    """Constraint a*R1 + b*R2 <= c with a, b, c >= 0 and (a, b) != (0, 0).

    Coefficients are stored gcd-reduced over the integers, so two instances
    describe the same constraint iff they compare equal; one hashes as the
    triple (a, b, c).
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
        super().__init__(a // g, b // g, c // g)

    def __repr__(self):
        return f"HalfPlane({self.a}*R1 + {self.b}*R2 <= {self.c})"


class Row(tuple):
    """The constraint a*R1 + b*R2 <= c/den as its integer triple, not
    reduced, as the bounds module emits it for intersect, den kept apart.
    As with HalfPlane, two rows over one den are equal iff they describe the
    same constraint.  A Row never equals a plain tuple; intersect records
    plain tuples, so records do not depend on which of the two came in."""

    __slots__ = ()
    a, b, c = (property(itemgetter(k)) for k in range(3))

    def __eq__(self, other):
        return HalfPlane(*self) == (HalfPlane(*other) if isinstance(other, Row) else other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(HalfPlane(*self))


def _cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


# -- the certified float orientation filter ------------------------------------

_NAN = float("nan")
_NORMAL = sys.float_info.min  # 2**-1022, the least normal double
# 8u with u = 2**-53, the unit roundoff; _orient derives it
_ORIENT_ERR = 2.0 ** -50
# a permanent below this counts as uncertain, so no underflow goes unbounded
_ORIENT_TINY = 2.0 ** -960


def _ratio(n, d) -> float:
    """n/d as a float within relative 2**-53 of it, or nan where that fails.

    int/int true division rounds correctly, and raises OverflowError where
    it would round past the float range.  That ratio, or one that underflows
    to a subnormal or to zero from n != 0, has no such bound and becomes
    nan, which _orient never certifies; so does a negative one.  n = 0
    gives an exact 0.0.
    """
    try:
        r = n / d
    except OverflowError:
        return _NAN
    return r if r >= _NORMAL or not n else _NAN


def _orient(p, q, r) -> float:
    """orient2d(p, q, r) in floats when its sign is certified, else 0.0.

    p, q, r are float points with coordinates >= 0, each _ratio of an exact
    rational X (or nan).  The exact value D = (X1-X3)(Y2-Y3) - (Y1-Y3)(X2-X3)
    is the 3x3 determinant [[X1, Y1, 1], [X2, Y2, 1], [X3, Y3, 1]], positive
    for a strict left turn p -> q -> r.  A certified result d has the sign
    of D, and D != 0; 0.0 means the caller runs its exact test.

    The bound, with u = 2**-53 and every float operation
    fl(x op y) = (x op y)(1 + e), |e| <= u, plus an absolute error under
    2**-1075 for a product that underflows (a sum or difference that does
    is exact):
    - each input carries relative error u, so a difference
      fl(x1 - x3) is within ((1+u)**2 - 1)(X1 + X3) of X1 - X3;
    - a product of two differences then lies within
      ((1+u)**5 - 1) S + 2**-1075 of the exact product, S the product of
      the two sums such as (X1 + X3)(Y2 + Y3);
    - the final difference d lies within ((1+u)**6 - 1) P + 2(1+u) 2**-1075
      of D, P = (X1+X3)(Y2+Y3) + (Y1+Y3)(X2+X3) the exact permanent.
    All terms are >= 0, so the float permanent p satisfies
    p >= (1-u)**6 P - 2 * 2**-1075.  With p >= 2**-960 the absolute terms are
    below u**2 p, so |d - D| <= (6u + 60u**2) p, and fl(8u p) exceeds that:
    |d| > fl(8u p) proves sign(d) = sign(D).  A nan coordinate makes d and
    p nan, and an overflow makes p infinite; both comparisons then fail.
    """
    x1, y1 = p
    x2, y2 = q
    x3, y3 = r
    d = (x1 - x3) * (y2 - y3) - (y1 - y3) * (x2 - x3)
    perm = (x1 + x3) * (y2 + y3) + (y1 + y3) * (x2 + x3)
    return d if perm >= _ORIENT_TINY and abs(d) > _ORIENT_ERR * perm else 0.0


class RegionPolytope:
    """Convex, down-closed first-quadrant region given by its vertices.

    The constructor takes the canonical vertex tuple, as `intersect` builds
    it and `vertices` returns it, and only checks it: the origin first, a
    point on the R1 axis, a staircase along which R1 never rises and R2 never
    falls, a last point on the R2 axis, and a strict left turn at every
    vertex; a 2-vertex segment may lie on either axis.  Any other list, an
    unordered one included, raises ValueError, so equal regions compare equal.
    The staircase is checked by Fraction comparisons; each turn by _orient
    on the correctly rounded floats of the three points, or where that does
    not certify a sign (a collinear triple, a turn below float resolution,
    a coordinate past the float range) by their exact cross product.
    """

    __slots__ = ("_vertices", "_active")

    def __init__(self, vertices):
        v = tuple((as_fraction(x), as_fraction(y)) for x, y in vertices)
        if not v or v[0] != (0, 0):
            raise ValueError("the origin must be the first vertex")
        if len(v) == 2 and not min(v[1]) == 0 < max(v[1]):
            raise ValueError("a 2-vertex region must be a segment along an axis")
        if len(v) >= 3:
            # the turn at each vertex but the origin is _orient on the floats
            # of the three points, or where that is not certified their exact
            # cross product
            f = [(_ratio(x.numerator, x.denominator), _ratio(y.numerator, y.denominator))
                 for x, y in v]
            if (v[1][1] or v[-1][0]
                    or not all(x2 <= x1 and y1 <= y2 for (x1, y1), (x2, y2) in pairwise(v[1:]))
                    or not all((_orient(*fs) or _cross(*ps)) > 0 for fs, ps in zip(
                        zip(f, f[1:], f[2:] + f[:1]), zip(v, v[1:], v[2:] + v[:1])))):
                raise ValueError("vertices must run from the R1 axis to the R2 axis as a "
                                 "staircase that turns strictly left at every vertex")
        self._vertices = v
        self._active = None  # set by intersect; see active_planes

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


def _ratio_keys(pairs) -> list:
    return [n / (n + d) for n, d in pairs]


def ratio_order(pairs) -> tuple:
    """(order, keys): the indices of the pairs (n, d) by ascending n/d, equal
    ratios in input order, and each pair's float sort key, in input order.

    n, d >= 0 and not both 0; d = 0 is an infinite ratio.  The sort key is
    the float n/(n+d), which rises with n/d; int/int true division is
    correctly rounded, so that key never contradicts the exact order, and
    two pairs with different keys hold different ratios.  Only when two
    equal keys hold different ratios are the runs of equal keys sorted
    again, exactly.
    """
    keys = _ratio_keys(pairs)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranked = [keys[i] for i in order]
    for k in compress(range(1, len(order)), map(eq, ranked, ranked[1:])):
        (n, d), (m, e) = pairs[order[k - 1]], pairs[order[k]]
        if n * e != m * d:
            # n/(n+d) as a Fraction, which tuples compare only on equal floats
            order = sorted(order, key=lambda i: (keys[i], Fraction(pairs[i][0], sum(pairs[i]))))
            break
    return order, keys


def _axis_cap(rows, axis, shift=0) -> list:
    # indices, in input order, of the rows with the largest a/c (axis 0) or
    # b/c (axis 1) over those with a > 0 (b > 0): the rows through the
    # region's axis point, or the rows with c = 0, which pin the rate to 0.
    # Only rows with the largest float key can hold it, as in ratio_order.
    # a and b are scaled by 2**shift, one factor for every row, so a row's
    # key keeps the order of a/c while a small a over a large c does not
    # underflow to a key of 0
    pairs = {i: (row[axis] << shift, row[2]) for i, row in enumerate(rows) if row[axis]}
    keys = _ratio_keys(pairs.values())
    top = max(keys)
    ids = [i for i, key in zip(pairs, keys) if key == top]
    order, _ = ratio_order([pairs[i] for i in ids])
    x, c = pairs[ids[order[-1]]]
    return [ids[k] for k in order if pairs[ids[k]][0] * c == x * pairs[ids[k]][1]]


# the scan's orientation test is _orient, with the exact test where the
# float sign is not certified, when the larger of the two caps' c has at
# least this many bits, a test made once per call; on smaller operands it
# is the exact test alone.  On seed-0 and seed-3 inputs the caps' c have
# 274-4,735 bits on moderate specs at q 3-7 (exact_bignum), at most 44 on
# exact_deep and at most 20 on grid_dense.  With the latter two's rows
# rescaled per row by random factors (Python 3.11, 2-core VM), the float
# test took 1.01x and 1.03x the exact test's time on grid_dense rows at 61
# and 110 cap bits, and 0.91x and 0.86x at 158 and 206; on exact_deep rows
# it took 0.88-0.95x from 65 bits.  exact_bignum's own row sets took
# 0.37-0.46x, and 0.40-0.49x as rows over D (60 seed-1 specs)
_FILTER_BITS = 160


def _chain(rows, order, keys, first, last, shift) -> list:
    # the chain from the cap first = (A, 0, C) to the cap last = (0, B, C),
    # left unreduced: the orientation test and Cramer's rule are both blind
    # to a positive scale.  A row on an axis lies inside the caps, so only
    # the others are scanned.  Two rows with different ratio_order keys
    # b/(a+b) have different directions, so only equal keys are
    # cross-multiplied.  push pops the chain while it does not turn strictly
    # left, and the gate picks its orientation test.  Entries are (row,
    # index, ...) as the test reads them
    if max(first[2], last[2]).bit_length() < _FILTER_BITS:
        # the exact test: the orientation of chain[-2], chain[-1] and row,
        # the sign of their 3x3 determinant, is row's dot product with the
        # cross product of the first two, taken when chain[-1] is pushed.
        # Entries are (row, index, that cross product)
        chain = [(first, None, None)]

        def push(row, i):
            a, b, c = row
            while len(chain) >= 2:
                x, y, z = chain[-1][2]
                if x * a + y * b + z * c > 0:
                    break
                chain.pop()
            u, v, w = chain[-1][0]
            chain.append((row, i, (v * c - w * b, w * a - u * c, u * b - v * a)))
    else:
        # floats first.  Every row has c > 0, so the determinant's sign is
        # c1*c2*c3 times orient2d of the dual points (a/c, b/c): _orient
        # decides it when it can certify it, on the points times 2**shift as
        # in _axis_cap, one positive factor for every row, and the cross
        # product for the exact test is computed only when needed.  Entries
        # are [row, index, dual point, cross product or None]
        chain = [[first, None, (_ratio(first[0] << shift, first[2]), 0.0), None]]

        def push(row, i):
            a, b, c = row
            point = (_ratio(a << shift, c), _ratio(b << shift, c))
            while len(chain) >= 2:
                before, top = chain[-2], chain[-1]
                turn = _orient(before[2], top[2], point)
                if not turn:
                    if top[3] is None:
                        (u, v, w), (x, y, z) = before[0], top[0]
                        top[3] = (v * z - w * y, w * x - u * z, u * y - v * x)
                    x, y, z = top[3]
                    turn = x * a + y * b + z * c
                if turn > 0:
                    break
                chain.pop()
            chain.append([row, i, point, None])

    top_key = 0.0  # the key of first, whose b is 0
    for i in order:
        row = a, b, c = rows[i]
        if not (a and b):
            continue
        if keys[i] == top_key:
            u, v, w = chain[-1][0]
            if a * v == b * u:
                # the direction of the last chain row, which is the tightest
                # of it so far: keep the tighter row, the first if identical
                if c * u >= w * a:
                    continue
                chain.pop()
        push(row, i)
        top_key = keys[i]
    push(last, None)
    return chain


def _over(num, det, den) -> Fraction:
    # num/(det*den), det != 0.  Rows through one point of a bound piece,
    # (const/den, slope/den) over the rows' common den, meet there, so most
    # unrecorded crossings (of c-family rows, say) divide exactly too, and
    # only (num/det)/den is left to reduce
    q, rem = divmod(num, det)
    return Fraction(num, det * den) if rem else Fraction(q, den)


def intersect(planes, den=1, crossings=None) -> RegionPolytope:
    """Polytope of all (R1, R2) >= 0 satisfying every half-plane.

    planes are HalfPlanes or integer triples (a, b, c), Rows or tuples, read
    as a*R1 + b*R2 <= c/den, one den > 0 for all of them; a HalfPlane's c
    is read over den too.  A plane with c = 0 pins each rate it involves to
    0, which leaves a segment on an axis or the origin.  The vertex tuple is
    the origin, the R1-axis point, the crossings of neighbours on the dual
    hull chain and the R2-axis point, less repeats.  crossings, if given,
    maps a pair (i, j) of plane indices, in the order the chain meets
    them, to integers (X, Y) with both planes through (X/den, Y/den); such
    neighbours meet there, every other pair by Cramer's rule.  When the
    caps' c reach _FILTER_BITS bits the scan's orientation tests are float
    ones that fall back to the integers unless certified, and below that
    integer ones; both give the same chain, so the result does not depend
    on the gate.

    The region records for active_planes den and the planes that carry an
    edge or, when a pinned rate leaves fewer than 3 vertices, touch a
    vertex.  Raises UnboundedRegionError when no plane bounds R1 or none
    bounds R2.
    """
    rows = [p if isinstance(p, tuple) else (p.a, p.b, p.c) for p in planes]
    if not any(a for a, _, _ in rows):
        raise UnboundedRegionError("no constraint bounds R1")
    if not any(b for _, b, _ in rows):
        raise UnboundedRegionError("no constraint bounds R2")
    # 2**shift <= den: the float keys and dual points read a and b times it
    shift = den.bit_length() - 1
    top1, top2 = _axis_cap(rows, 0, shift), _axis_cap(rows, 1, shift)
    a1, _, c1 = rows[top1[0]]
    _, b2, c2 = rows[top2[0]]
    zero = Fraction(0)
    points = [(zero, zero), (Fraction(c1, a1 * den), zero)]
    if c1 and c2:  # no rate pinned, so every row has c > 0
        order, keys = ratio_order([(b, a) for a, b, _ in rows])
        chain = _chain(rows, order, keys, (a1, 0, c1), (0, b2, c2), shift)
        # each neighbour pair's crossing: the recorded one, else Cramer's rule
        for before, after in pairwise(chain):
            xy = crossings and crossings.get((before[1], after[1]))
            if xy:
                points.append((Fraction(xy[0], den), Fraction(xy[1], den)))
                continue
            (a, b, c), (u, v, w) = before[0], after[0]
            det = a * v - u * b
            points.append((_over(c * v - w * b, det, den), _over(a * w - u * c, det, den)))
        # every scanned chain row turns strictly, so it carries an edge; a
        # cap does unless a slanted row also runs through its axis point
        active = [entry[1] for entry in chain[1:-1]]
        if not any(rows[i][1] for i in top1):
            active.append(top1[0])
        if not any(rows[i][0] for i in top2):
            active.append(top2[0])
    else:
        # the origin and at most one axis point (c1/a1, 0) or (0, c2/b2),
        # either of which may be the origin; the first of identical planes
        first = {}
        for i, (a, b, c) in enumerate(rows):
            if a * c1 == c * a1 or b * c2 == c * b2:
                first.setdefault(HalfPlane(a, b, c), i)
        active = list(first.values())
    points.append((zero, Fraction(c2, b2 * den)))
    # drop repeats: a chain end whose line meets its axis point repeats that
    # point, and a pinned rate puts an axis point on the origin
    region = RegionPolytope(points[:1] + [p for p, prev in zip(points[1:], points)
                                          if p != prev and p != points[0]])
    region._active = (len(rows), den, tuple((i, tuple(rows[i])) for i in sorted(active)))
    return region


def active_planes(region: RegionPolytope, count: int) -> tuple:
    """(den, records): the records (index, (a, b, c)) of the active planes,
    plain integer triples each read as a*R1 + b*R2 <= c/den, as intersect
    recorded them for a region it built from `count` planes; ValueError
    otherwise."""
    if region._active is None or region._active[0] != count:
        raise ValueError(f"the region was not intersected from {count} planes")
    return region._active[1:]
