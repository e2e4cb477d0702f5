"""Exact half-plane intersection and active-bound selection against brute-force oracles."""

import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import pairwise
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from layercap import (
    FAMILIES,
    HalfPlane,
    RegionPolytope,
    UnboundedRegionError,
    WeightedBound,
    active_bounds,
    intersect,
)
from layercap import geometry
from layercap.bounds import grid_rows, outer_halfplanes, outer_rows
from layercap.corpus import random_moderate_spec, random_spec
from layercap.geometry import Row, active_planes, ratio_order
from strategies import MIXED_WEIGHTS, SMALL_WEIGHTS, specs

F = Fraction


def brute_vertices(planes):
    """All feasible pairwise line intersections, including the axes."""
    lines = [(F(p.a), F(p.b), F(p.c)) for p in planes]
    lines.append((F(1), F(0), F(0)))  # R1 = 0
    lines.append((F(0), F(1), F(0)))  # R2 = 0
    pts = set()
    for i in range(len(lines)):
        a1, b1, c1 = lines[i]
        for j in range(i + 1, len(lines)):
            a2, b2, c2 = lines[j]
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            x = (c1 * b2 - c2 * b1) / det
            y = (a1 * c2 - a2 * c1) / det
            if x < 0 or y < 0:
                continue
            if all(a * x + b * y <= c for a, b, c in lines[: len(planes)]):
                pts.add((x, y))
    return pts


def test_pinned_pentagon():
    planes = [
        HalfPlane(1, 0, 3),
        HalfPlane(0, 1, 3),
        HalfPlane(1, 1, 4),
        HalfPlane(2, 1, 6),
        HalfPlane(1, 2, 6),
    ]
    region = intersect(planes)
    assert region.vertices == (
        (F(0), F(0)),
        (F(3), F(0)),
        (F(2), F(2)),
        (F(0), F(3)),
    )


def test_halfplane_normalizes_to_coprime_ints():
    assert HalfPlane(F(1, 2), F(1, 3), F(5, 6)) == HalfPlane(3, 2, 5)
    assert HalfPlane(2, 4, 6) == HalfPlane(1, 2, 3)
    assert hash(HalfPlane(2, 4, 6)) == hash(HalfPlane(1, 2, 3))


@pytest.mark.parametrize(
    "a,b,c",
    [(-1, 0, 1), (0, -1, 1), (0, 0, 1), (1, 1, -1)],
)
def test_halfplane_rejects_bad_coefficients(a, b, c):
    with pytest.raises(ValueError):
        HalfPlane(a, b, c)


@settings(max_examples=200, deadline=None)
@given(a=st.integers(0, 10 ** 30), b=st.integers(0, 10 ** 30), c=st.integers(0, 10 ** 30))
def test_halfplane_from_ints_equals_from_fractions_and_strings(a, b, c):
    if a == b == 0:
        a = 1
    plane = HalfPlane(a, b, c)
    assert plane == HalfPlane(F(a), F(b), F(c)) == HalfPlane(str(a), str(b), str(c))
    assert all(type(x) is int for x in (plane.a, plane.b, plane.c))


@pytest.mark.parametrize(
    "a,b,c,message",
    [
        (-1, 0, 1, "coefficients must be nonnegative, got a=-1, b=0"),
        (0, -3, 1, "coefficients must be nonnegative, got a=0, b=-3"),
        (0, 0, 1, "(a, b) must not both be zero"),
        (1, 1, -2, "right-hand side must be nonnegative, got c=-2"),
    ],
)
def test_halfplane_errors_do_not_depend_on_the_input_type(a, b, c, message):
    for args in ((a, b, c), (F(a), F(b), F(c)), (str(a), str(b), str(c))):
        with pytest.raises(ValueError) as err:
            HalfPlane(*args)
        assert str(err.value) == message


def test_unbounded_detection():
    with pytest.raises(UnboundedRegionError):
        intersect([HalfPlane(1, 0, 1)])
    with pytest.raises(UnboundedRegionError):
        intersect([HalfPlane(0, 1, 1)])
    with pytest.raises(UnboundedRegionError):
        intersect([])


def test_degenerate_regions():
    point = intersect([HalfPlane(1, 0, 0), HalfPlane(0, 1, 0)])
    assert point.vertices == ((F(0), F(0)),)
    assert point.contains((F(0), F(0)))
    assert not point.contains((F(1, 2), F(0)))

    seg = intersect([HalfPlane(1, 0, 2), HalfPlane(0, 1, 0)])
    assert seg.vertices == ((F(0), F(0)), (F(2), F(0)))
    assert seg.contains((F(1), F(0)))
    assert not seg.contains((F(1), F(1, 2)))
    assert not seg.contains((F(3), F(0)))

    pinched = intersect([HalfPlane(1, 0, 1), HalfPlane(0, 1, 1), HalfPlane(1, 1, 0)])
    assert pinched.vertices == ((F(0), F(0)),)


def test_intersect_matches_brute_force():
    rng = random.Random(404)
    for trial in range(250):
        planes = [
            HalfPlane(1, 0, F(rng.randint(1, 12), rng.randint(1, 4))),
            HalfPlane(0, 1, F(rng.randint(1, 12), rng.randint(1, 4))),
        ]
        for _ in range(rng.randint(0, 6)):
            a, b = rng.randint(0, 4), rng.randint(0, 4)
            if a == 0 and b == 0:
                continue
            planes.append(HalfPlane(a, b, F(rng.randint(0, 24), rng.randint(1, 4))))
        assert set(intersect(planes).vertices) == brute_vertices(planes), f"trial {trial}"


def test_vertices_satisfy_all_planes():
    rng = random.Random(7)
    for _ in range(50):
        planes = [
            HalfPlane(1, 0, rng.randint(1, 5)),
            HalfPlane(0, 1, rng.randint(1, 5)),
            HalfPlane(rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 9)),
        ]
        region = intersect(planes)
        for x, y in region.vertices:
            assert all(p.a * x + p.b * y <= p.c for p in planes)
            assert region.contains((x, y))


def test_support_pinned_and_properties():
    region = intersect([HalfPlane(1, 0, 3), HalfPlane(0, 1, 3), HalfPlane(1, 1, 4)])
    assert region.support(F(1), F(1)) == 4
    assert region.support(F(1), F(0)) == 3
    assert region.support(F(2), F(1)) == 7
    with pytest.raises(ValueError):
        region.support(F(0), F(0))
    with pytest.raises(ValueError):
        region.support(F(-1), F(1))


def test_subset_and_equality():
    inner = intersect([HalfPlane(1, 0, 1), HalfPlane(0, 1, 1), HalfPlane(1, 1, 1)])
    outer = intersect([HalfPlane(1, 0, 2), HalfPlane(0, 1, 2)])
    assert inner.subset_of(outer)
    assert not outer.subset_of(inner)
    assert inner.subset_of(inner)
    # same region described two ways compares equal, with equal hashes
    a = intersect([HalfPlane(1, 0, 2), HalfPlane(0, 1, 2), HalfPlane(1, 1, 5)])
    b = intersect([HalfPlane(2, 0, 4), HalfPlane(0, 3, 6)])
    assert a == b
    assert hash(a) == hash(b)


def test_region_requires_origin():
    with pytest.raises(ValueError):
        RegionPolytope([(F(1), F(1)), (F(2), F(1))])
    with pytest.raises(ValueError):
        RegionPolytope([(F(-1), F(0)), (F(0), F(0))])
    with pytest.raises(ValueError):
        RegionPolytope([])


def planes():
    """Small random plane sets with both rate caps, so intersect never raises."""
    rhs = st.builds(F, st.integers(0, 12), st.integers(1, 3))
    slopes = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda ab: ab != (0, 0))
    extra = st.lists(st.builds(lambda ab, c: HalfPlane(*ab, c), slopes, rhs), max_size=4)
    caps = st.tuples(rhs, rhs).map(lambda c: [HalfPlane(1, 0, c[0]), HalfPlane(0, 1, c[1])])
    return st.builds(lambda c, e: c + e, caps, extra)


@pytest.mark.parametrize(
    "vertices",
    [
        [(0, 0), (0, 3), (2, 2), (3, 0)],  # clockwise
        [(0, 0), (3, 0), (3, 0), (0, 3)],  # a repeated vertex
        [(0, 0), (2, 0), (1, 1), (0, 2)],  # a collinear midpoint
        [(0, 0), (0, 0)],  # a segment that repeats the origin
        [(0, 0), (1, 1)],  # a segment off the axes
        [(F(1, 2), F(1, 2)), (2, 0), (0, 2)],  # origin not first
        [(0, 0), (2, 1), (1, 2), (0, 2)],  # second vertex off the R1 axis
        [(0, 0), (2, 0), (1, 1)],  # a staircase ending off the R2 axis
        [(0, 0), (2, 0), (3, 1), (0, 2)],  # left turns, but R1 rises
        [(0, 0), (2, 0), (1, 2), (0, 1)],  # left turns, but R2 falls
        [(0, 0), (3, 0), (1, 1), (0, 3)],  # a staircase with a right turn
    ],
)
def test_region_rejects_non_canonical_vertex_lists(vertices):
    with pytest.raises(ValueError):
        RegionPolytope(vertices)


@st.composite
def pinned_planes(draw):
    """planes(), sometimes with a c = 0 plane that pins an axis or the
    origin, so 1- and 2-vertex regions are common."""
    pin = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any).map(
        lambda ab: HalfPlane(*ab, 0))
    return draw(planes()) + draw(st.lists(pin, max_size=1))


@settings(max_examples=300, deadline=None)
@given(planes=pinned_planes(), data=st.data())
def test_region_is_its_canonical_vertex_tuple(planes, data):
    # the canonical tuple rebuilds an == region with an equal hash; any other
    # listing of its points (reordered, repeated, or with collinear midpoints
    # of its edges) raises
    region = intersect(planes)
    v = list(region.vertices)
    rebuilt = RegionPolytope(v)
    assert rebuilt == region
    assert hash(rebuilt) == hash(region)
    midpoints = [((p[0] + q[0]) / 2, (p[1] + q[1]) / 2) for p, q in zip(v, v[1:] + v[:1])]
    extra = data.draw(st.lists(st.sampled_from(v + midpoints), max_size=4), label="extra")
    points = data.draw(st.permutations(v + extra), label="points")
    if points != v:
        with pytest.raises(ValueError):
            RegionPolytope(points)


@settings(max_examples=300, deadline=None)
@given(planes=pinned_planes(), x_steps=st.integers(1, 7), y_steps=st.integers(1, 7))
@example(planes=[HalfPlane(1, 0, 2), HalfPlane(0, 1, 3), HalfPlane(1, 1, 0)],
         x_steps=2, y_steps=2)
@example(planes=[HalfPlane(1, 0, 2), HalfPlane(0, 1, 3), HalfPlane(1, 0, 0)],
         x_steps=2, y_steps=3)
def test_contains_matches_the_constraints(planes, x_steps, y_steps):
    # every point of a rational grid over the bounding box and one step past
    # each of its sides: membership equals the first quadrant and every plane
    # evaluated directly
    region = intersect(planes)
    dx = max(x for x, _ in region.vertices) / x_steps or F(1)
    dy = max(y for _, y in region.vertices) / y_steps or F(1)
    for i in range(-1, x_steps + 2):
        for j in range(-1, y_steps + 2):
            x, y = i * dx, j * dy
            expected = i >= 0 and j >= 0 and all(h.a * x + h.b * y <= h.c for h in planes)
            assert region.contains((x, y)) == expected, (x, y)


@settings(max_examples=300, deadline=None)
@given(p_planes=planes(), q_planes=planes(), nested=st.booleans())
def test_equality_is_mutual_inclusion(p_planes, q_planes, nested):
    # nested pairs add planes to p's own, so equal (redundant extras) and
    # strictly nested pairs are both common
    p = intersect(p_planes)
    q = intersect(p_planes + q_planes if nested else q_planes)
    assert (p == q) == (p.subset_of(q) and q.subset_of(p))


def slanted_planes():
    """Plane sets with no axis-parallel cap (a, b > 0 whenever c > 0).

    They mix coefficients of 1 digit and of 100 or more digits, and add
    planes with c = 0 (which pin an axis), exact and scaled duplicates, and
    planes that share a direction with a different right-hand side.
    """
    coeff = st.one_of(st.integers(1, 6), st.integers(10 ** 100, 10 ** 120))
    rhs = st.builds(F, st.one_of(st.integers(1, 30), st.integers(10 ** 100, 10 ** 130)),
                    st.integers(1, 4))
    slanted = st.builds(HalfPlane, coeff, coeff, rhs)
    pin = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any).map(
        lambda ab: HalfPlane(*ab, 0))

    @st.composite
    def family(draw):
        planes = draw(st.lists(slanted, min_size=1, max_size=6))
        for p in draw(st.lists(st.sampled_from(planes), max_size=3)):
            k = draw(st.integers(1, 5))
            shift = draw(st.sampled_from([F(0), F(1, 3), F(-1, 2), F(2)]))
            planes.append(HalfPlane(k * p.a, k * p.b, k * p.c + max(shift, -p.c)))
        planes += draw(st.lists(pin, max_size=1 if draw(st.booleans()) else 0))
        return draw(st.permutations(planes))

    return family()


@settings(max_examples=400, deadline=None)
@given(planes=slanted_planes())
def test_intersect_matches_brute_force_without_caps(planes):
    # a slanted plane, not a cap, sets each axis intercept here
    assert set(intersect(planes).vertices) == brute_vertices(planes)


def tight_indices(planes, region):
    """The tight-vertex scan that active_planes replaces: the index of the
    first of identical planes tight at two vertices of the region, or at
    one when it has fewer than 3."""
    needed = 2 if len(region.vertices) >= 3 else 1
    seen = set()
    out = []
    for i, plane in enumerate(planes):
        if plane in seen:
            continue
        seen.add(plane)
        if sum(1 for x, y in region.vertices if plane.a * x + plane.b * y == plane.c) >= needed:
            out.append(i)
    return out


def reference_active_bounds(bounds, region):
    """The bounds that the tight-vertex scan finds active."""
    return [bounds[i] for i in tight_indices([wb.halfplane() for wb in bounds], region)]


@st.composite
def bound_sets(draw):
    """WeightedBounds on a small weight grid, with repeats and zero values.

    The two omega = 0 a-bounds cap both rates, as in every set the library
    builds; a zero value there gives a segment or the origin.
    """
    quarter = st.integers(0, 4).map(lambda k: F(k, 4))
    cap = st.builds(F, st.integers(0, 12), st.integers(1, 4))
    value = st.builds(F, st.integers(1, 24), st.integers(1, 4))
    bounds = [WeightedBound("1a", F(0), None, draw(cap)),
              WeightedBound("2a", F(0), None, draw(cap))]
    for _ in range(draw(st.integers(0, 8))):
        family, omega = draw(st.sampled_from(FAMILIES)), draw(quarter)
        mu = omega * draw(quarter) if family.endswith("c") else None
        bounds.append(WeightedBound(family, omega, mu, draw(value)))
    bounds += draw(st.lists(st.sampled_from(bounds), max_size=3))
    return draw(st.permutations(bounds))


@settings(max_examples=400, deadline=None)
@given(bounds=bound_sets())
def test_active_bounds_matches_tight_vertex_scan(bounds):
    planes = [wb.halfplane() for wb in bounds]
    region = intersect(planes)
    active = [i for i, _ in active_planes(region, len(planes))[1]]
    assert active == tight_indices(planes, region)


def test_active_bounds_matches_tight_vertex_scan_on_specs():
    rng = random.Random(11)
    for q in (1, 2, 3, 4):
        spec = random_spec(rng, q)
        for rows in (outer_rows(spec), grid_rows(spec, 6)):
            region = intersect(rows.rows, rows.den)
            assert active_bounds(rows, region) == reference_active_bounds(list(rows), region)


def test_active_bounds_needs_the_region_of_its_bounds():
    rows = outer_rows(random_spec(random.Random(3), 2))
    for region in (RegionPolytope([(0, 0), (1, 0), (0, 1)]),  # not intersected
                   intersect(rows.rows[1:], rows.den),  # another count
                   intersect(rows.rows[::-1], rows.den),  # same count and den
                   intersect(rows.rows, 2 * rows.den)):  # another den
        with pytest.raises(ValueError):
            active_bounds(rows, region)
    pytest.raises(TypeError, active_bounds, list(rows), intersect(rows.rows, rows.den))


def test_rows_equal_iff_their_constraints_are():
    assert Row((2, 4, 6)) == Row((1, 2, 3)) == HalfPlane(1, 2, 3)
    assert hash(Row((2, 4, 6))) == hash(Row((1, 2, 3)))
    assert Row((1, 2, 3)) != Row((1, 2, 4))
    assert (Row((2, 4, 6)).a, Row((2, 4, 6)).b, Row((2, 4, 6)).c) == (2, 4, 6)


# -- the exact ratio order -----------------------------------------------------------


def cmp_order(pairs):
    """Indices by ascending n/d through a cross-multiplying comparator;
    sorted() is stable, so equal ratios keep their input order."""
    return sorted(range(len(pairs)),
                  key=cmp_to_key(lambda i, j: pairs[i][0] * pairs[j][1] - pairs[j][0] * pairs[i][1]))


@st.composite
def ratio_pairs(draw):
    """Pairs (n, d) of up to about 4,000 bits, with equal ratios at other
    scales and pairs whose float keys collide with a different ratio."""
    part = st.one_of(st.integers(0, 5), st.integers(0, 1 << 4000))
    base = draw(st.lists(st.tuples(part, part).filter(any), min_size=1, max_size=6))
    pairs = list(base)
    for n, d in draw(st.lists(st.sampled_from(base), max_size=6)):
        k = draw(st.integers(1, 300))
        if draw(st.booleans()):
            pairs.append((n << k, d << k))
        else:
            pairs.append(((n << k) + 1, d << k))
    return draw(st.permutations(pairs))


@settings(max_examples=400, deadline=None)
@given(pairs=ratio_pairs())
@example(pairs=[((1 << 80) + 1, 3 << 80), (1, 3), (2, 6)])
@example(pairs=[(1, 0), (0, 1), (5, 0), (3, 3), (0, 7)])
def test_ratio_order_is_the_exact_stable_order(pairs):
    order, keys = ratio_order(pairs)
    assert order == cmp_order(pairs)
    assert keys == [n / (n + d) for n, d in pairs]


def test_ratio_order_splits_colliding_float_keys():
    # the floats of 1/4 and (2**80 + 1)/(2**82 + 1) are equal, the ratios not
    pairs = [((1 << 80) + 1, 3 << 80), (1, 3), (2, 6)]
    assert 1 / 4 == pairs[0][0] / sum(pairs[0])
    assert ratio_order(pairs)[0] == [1, 2, 0]


# -- rows first, as the CLI computes a region ----------------------------------------


def constraint_list(bounds):
    out = []
    for wb in bounds:
        plane = wb.halfplane()
        out.append((wb.family, wb.omega, wb.mu, plane.a, plane.b, plane.c))
    return out


def assert_rows_match_reference(table):
    # the reference is the path before rows: every bound and its reduced
    # half-plane, intersected, then the tight-vertex scan
    bounds = list(table)
    reference = intersect([wb.halfplane() for wb in bounds])
    region = intersect(table.rows, table.den)
    assert region.vertices == reference.vertices
    assert (constraint_list(active_bounds(table, region))
            == constraint_list(reference_active_bounds(bounds, reference)))
    assert [i for i, _ in active_planes(region, len(table))[1]] == [
        i for i, _ in active_planes(reference, len(bounds))[1]]


@settings(max_examples=150, deadline=None)
@given(spec=specs(max_q=5, weights=SMALL_WEIGHTS), steps=st.none() | st.integers(1, 16))
def test_rows_first_matches_the_reference_on_small_weights(spec, steps):
    assert_rows_match_reference(outer_rows(spec) if steps is None else grid_rows(spec, steps))


@settings(max_examples=150, deadline=None)
@given(spec=specs(max_q=5, weights=MIXED_WEIGHTS), steps=st.none() | st.integers(1, 16))
def test_rows_first_matches_the_reference_on_mixed_weights(spec, steps):
    assert_rows_match_reference(outer_rows(spec) if steps is None else grid_rows(spec, steps))


# -- the float filter against the exact orientation test ----------------------------


def reference_intersect(rows):
    """(vertices, active records) of intersect(rows) for rows with c > 0, by
    the chain scan with no float filter: every orientation test an integer
    3x3 determinant, every same-direction test a cross-multiplication."""
    rows = [tuple(r) for r in rows]
    top1, top2 = geometry._axis_cap(rows, 0), geometry._axis_cap(rows, 1)
    a1, _, c1 = rows[top1[0]]
    _, b2, c2 = rows[top2[0]]
    chain = [((a1, 0, c1), None, None)]

    def push(row, i):
        a, b, c = row
        while len(chain) >= 2:
            x, y, z = chain[-1][2]
            if x * a + y * b + z * c > 0:
                break
            chain.pop()
        u, v, w = chain[-1][0]
        chain.append((row, i, (v * c - w * b, w * a - u * c, u * b - v * a)))

    for i in ratio_order([(b, a) for a, b, _ in rows])[0]:
        row = a, b, c = rows[i]
        if not (a and b):
            continue
        u, v, w = chain[-1][0]
        if a * v == b * u:
            if c * u >= w * a:
                continue
            chain.pop()
        push(row, i)
    push((0, b2, c2), None)
    points = [(F(0), F(0)), (F(c1, a1), F(0))]
    for ((a, b, c), _, _), ((u, v, w), _, _) in pairwise(chain):
        det = a * v - u * b
        points.append((F(c * v - w * b, det), F(a * w - u * c, det)))
    points.append((F(0), F(c2, b2)))
    active = [i for _, i, _ in chain[1:-1]]
    if not any(rows[i][1] for i in top1):
        active.append(top1[0])
    if not any(rows[i][0] for i in top2):
        active.append(top2[0])
    vertices = points[:1] + [p for p, prev in zip(points[1:], points)
                             if p != prev and p != points[0]]
    return tuple(vertices), tuple((i, rows[i]) for i in sorted(active))


def scan_orient_calls(rows, den=1):
    """(region, calls): intersect(rows, den) and the number of _orient calls
    its scan made.  RegionPolytope's check makes the others, one per vertex
    but the origin.  With the float test, a scan that pushes a slanted row
    calls _orient at least once; with the exact test alone, never."""
    with mock.patch.object(geometry, "_orient", wraps=geometry._orient) as orient:
        region = intersect(rows, den)
    n = len(region.vertices)
    return region, orient.call_count - (n - 1 if n >= 3 else 0)


def assert_filtered_scan_matches_the_reference(rows):
    rows = [Row(r) for r in rows]
    region, calls = scan_orient_calls(rows)
    # past the gate the float test decides first
    assert calls > 0 or not any(a and b for a, b, _ in rows)
    assert (region.vertices, active_planes(region, len(rows))[1]) == reference_intersect(rows)


def rescaled(rows, rng, bits):
    # each row times its own factor of bits + 1 bits: the same constraints,
    # with integers past the filter's gate
    return [(a * k, b * k, c * k) for a, b, c in rows
            for k in [rng.getrandbits(bits) | 1 << bits]]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), q=st.integers(3, 7), bits=st.sampled_from([0, 200, 3000]))
def test_filtered_scan_matches_the_reference_on_moderate_specs(seed, q, bits):
    # moderate specs at q 3-7 carry caps of 274-4,735 bits, past the gate
    rng = random.Random(seed)
    table = outer_rows(random_moderate_spec(rng, q))
    rows = [(a * table.den, b * table.den, c) for a, b, c in table.rows]
    assert_filtered_scan_matches_the_reference(rescaled(rows, rng, bits) if bits else rows)


@settings(max_examples=200, deadline=None)
@given(planes=pinned_planes() | slanted_planes(), seed=st.integers(0, 2 ** 32))
def test_filtered_scan_matches_the_reference_on_small_dense_sets(planes, seed):
    # few, often concurrent or parallel planes, rescaled past the gate
    rows = [(p.a, p.b, p.c) for p in planes]
    big = rescaled(rows, random.Random(seed), geometry._FILTER_BITS + 8)
    if all(c for _, _, c in big):  # else a pinned rate leaves no chain
        assert_filtered_scan_matches_the_reference(big)
    assert set(intersect([Row(r) for r in big]).vertices) == brute_vertices(planes)


def test_small_operands_keep_the_exact_scan():
    # the rows of grid mode at q 1-4 and of exact regions at q 8-16 stay
    # below the gate
    rng = random.Random(5)
    tables = [grid_rows(random_spec(rng, q), 16) for q in (1, 2, 4)]
    tables += [outer_rows(random_spec(rng, q)) for q in (8, 12, 16)]
    for table in tables:
        assert scan_orient_calls(table.rows, table.den)[1] == 0


@pytest.mark.parametrize("bits", [geometry._FILTER_BITS - 1, geometry._FILTER_BITS])
def test_the_caps_pick_the_orientation_test(bits):
    # the caps' c have `bits` bits; the slanted rows' c have more, which
    # does not move the gate
    c = 1 << (bits - 1)
    rows = [Row(r) for r in [(1, 0, c), (0, 1, c), (1, 1, 3 * c), (2, 2, 3 * c), (1, 2, 1 << 300)]]
    region, calls = scan_orient_calls(rows)
    assert (calls > 0) == (bits >= geometry._FILTER_BITS)
    assert (region.vertices, active_planes(region, len(rows))[1]) == reference_intersect(rows)


def test_colliding_keys_below_the_gate_are_cross_multiplied():
    # (s, 1, 2s) and (s + 1, 1, 2s + 1) have different directions, yet their
    # keys 1/(s + 1) and 1/(s + 2) both round to 2**-60; both carry an edge,
    # crossing at (1, s).  Each has an identical row or a multiple of itself
    # later in the order, and (1, 1, 3s) is followed by a tighter row of its
    # direction
    s = 1 << 60
    assert ratio_order([(1, s), (1, s + 1)])[1] == [2.0 ** -60] * 2
    rows = [(s, 1, 2 * s), (s + 1, 1, 2 * s + 1), (1, 0, 3), (0, 1, 4 * s), (s, 1, 2 * s),
            (2 * s, 2, 4 * s + 1), (3 * s + 3, 3, 6 * s + 3), (1, 1, 3 * s), (2, 2, 6 * s - 1)]
    region, calls = scan_orient_calls([Row(r) for r in rows])
    assert calls == 0
    assert (F(1), F(s)) in region.vertices
    assert set(region.vertices) == brute_vertices([HalfPlane(*r) for r in rows])
    assert (region.vertices, active_planes(region, len(rows))[1]) == reference_intersect(rows)


# -- rows over a common denominator ---------------------------------------------------


@st.composite
def rows_over_den(draw):
    """(rows, den): integer rows (a, b, c), each read as a*R1 + b*R2 <= c/den.

    den is 1, small, of 200-600 bits or of 3,000 bits or more.  The last
    two put the caps' c past the filter's gate; at 200-600 bits a dual
    point's float stays in range whether or not it is shifted, so the
    filter certifies its orientations, and from 3,000 bits it underflows
    unless shifted.  A row runs through one of a few points (X/den, Y/den),
    as the bounds of one piece run through its apex, so that neighbours
    cross by exact division, or has a free c; each axis has a cap, and
    c = 0 pins a rate now and then.
    """
    den = draw(st.just(1) | st.integers(2, 1000) | st.integers(1 << 200, 1 << 600)
               | st.integers(1 << 3000, 1 << 3100))
    rate = st.builds(lambda k, low: k * den + low, st.integers(0, 7), st.integers(0, den - 1))
    points = draw(st.lists(st.tuples(rate, rate), min_size=1, max_size=3))
    coeff = st.integers(1, 9) | st.integers(1, 1 << 70)

    def c_of(a, b):
        if draw(st.booleans()):
            x, y = draw(st.sampled_from(points))
            return a * x + b * y
        return draw(rate)

    rows = []
    for a, b in draw(st.lists(st.tuples(coeff | st.just(0), coeff | st.just(0)).filter(any),
                              min_size=1, max_size=8)):
        rows.append((a, b, c_of(a, b)))
    for a, b in ((draw(coeff), 0), (0, draw(coeff))):
        rows.append((a, b, c_of(a, b) or draw(st.integers(0, 1))))
    return draw(st.permutations(rows)), den


@settings(max_examples=300, deadline=None)
@given(drawn=rows_over_den())
@example(drawn=([(1, 0, 3 << 3000), (0, 1, 3 << 3000), (1, 1, 5 << 3000), (2, 1, 8 << 3000)],
                1 << 3000))
def test_rows_over_den_equal_the_rows_times_den(drawn):
    rows, den = drawn
    region = intersect(rows, den)
    reference = intersect([(a * den, b * den, c) for a, b, c in rows])
    assert region.vertices == reference.vertices
    got, want = active_planes(region, len(rows)), active_planes(reference, len(rows))
    assert got[0] == den and want[0] == 1
    assert [(i, (a * den, b * den, c)) for i, (a, b, c) in got[1]] == list(want[1])


def test_rows_over_den_match_the_halfplanes_on_a_q9_moderate_spec():
    # caps of thousands of bits: the float test decides on rows over D
    spec = random_moderate_spec(random.Random(7), 9)
    table, bounds = outer_rows(spec), outer_halfplanes(spec)
    region, calls = scan_orient_calls(table.rows, table.den)
    assert calls > 0
    reference = intersect([wb.halfplane() for wb in bounds])
    assert region.vertices == reference.vertices
    assert active_bounds(table, region) == reference_active_bounds(bounds, reference)


@settings(max_examples=100, deadline=None)
@given(planes=pinned_planes() | slanted_planes())
def test_row_and_tuple_inputs_give_equal_records(planes):
    rows = [(p.a, p.b, p.c) for p in planes]
    records = active_planes(intersect(rows), len(rows))
    assert active_planes(intersect([Row(r) for r in rows]), len(rows)) == records
    assert active_planes(intersect(planes), len(rows)) == records
    assert all(type(row) is tuple for _, row in records[1])


def exact_sign(r1, r2, r3):
    (a, b, c), (u, v, w), (x, y, z) = r1, r2, r3
    det = a * (v * z - w * y) - b * (u * z - w * x) + c * (u * y - v * x)
    return (det > 0) - (det < 0)


def filtered_sign(r1, r2, r3):
    """The sign _orient certifies for the rows' dual points; 0 if none."""
    d = geometry._orient(*((geometry._ratio(a, c), geometry._ratio(b, c)) for a, b, c in
                           (r1, r2, r3)))
    return (d > 0) - (d < 0)


def assert_filtered_sign_is_exact(rows):
    # a certified sign is the exact one, and an exact 0 is never certified
    assert filtered_sign(*rows) in (0, exact_sign(*rows))


def through(x, y, a, b):
    """The integer row a*R1 + b*R2 <= c whose line runs through (x, y)."""
    c = a * x + b * y
    return (a * c.denominator, b * c.denominator, c.numerator)


# three lines through (1/3, 1/7): the floats of their dual points are not
# collinear, so orient2d in floats reads -1.1e-16 where the exact value is 0
CONCURRENT = [through(F(1, 3), F(1, 7), 1, 2), through(F(1, 3), F(1, 7), 3, 1),
              through(F(1, 3), F(1, 7), 5, 7)]


@st.composite
def row_triples(draw):
    """Three rows (a, b, c) with a, b >= 0 and c > 0, of up to about 3,000
    bits: drawn freely, through one point, two sharing a direction at
    different scales, two whose float ratios collide, or with ratios past
    the float range or below its normal range."""
    # parts of one triple lie within a factor 2**70 of 2**scale
    scale = draw(st.sampled_from([0, 200, 3000]))
    part = st.builds(lambda k, low: k << scale | low, st.integers(1, 9) | st.integers(1, 1 << 70),
                     st.integers(0, (1 << scale) - 1))
    coefficient = st.one_of(part, part, part, st.just(0))
    row = st.tuples(coefficient, coefficient, part)
    kind = draw(st.sampled_from(["free", "concurrent", "direction", "collide", "extreme"]))
    if kind == "concurrent":
        x, y = F(draw(part), draw(part)), F(draw(part), draw(part))
        rows = [through(x, y, draw(part), draw(part)) for _ in range(3)]
    elif kind == "direction":
        (a, b, c), k = draw(row), draw(part)
        rows = [(a, b, c), (k * a, k * b, draw(st.sampled_from([k * c, draw(part)]))), draw(row)]
    elif kind == "collide":
        (a, b, c), s = draw(row), draw(st.integers(60, 400))
        rows = [(a, b, c), ((a << s) + 1, b << s, c << s), draw(row)]
    else:
        rows = [draw(row) for _ in range(3)]
        if kind == "extreme":
            for k in draw(st.lists(st.integers(0, 2), min_size=1, max_size=3)):
                a, b, c = rows[k]
                s = draw(st.integers(1000, 1100 + c.bit_length()))
                rows[k] = draw(st.sampled_from([(a << s, b, c), (a, b << s, c), (a, b, c << s)]))
    return draw(st.permutations(rows))


@settings(max_examples=400, deadline=None)
@given(rows=row_triples())
@example(rows=CONCURRENT)
@example(rows=[(1, 2, 3), (2, 4, 6), (5, 1, 2)])  # two rows, one constraint
@example(rows=[((1 << 80) + 1, 1 << 80, 3 << 80), (1, 1, 3), (1, 2, 1)])  # floats collide
@example(rows=[(1 << 1100, 1, 3), (1, 1 << 1100, 3), (1, 1, 1)])  # past the float range
@example(rows=[(1, 2, 1 << 1060), (2, 1, 1 << 1100), (1, 1, 1)])  # subnormal and 0
def test_filtered_orientation_sign_is_the_exact_sign(rows):
    assert_filtered_sign_is_exact(rows)


def test_a_zero_error_bound_certifies_a_wrong_sign(monkeypatch):
    # the mutant trusts any nonzero float: it reads the concurrent rows as a
    # strict turn, so the filter's bound is what sends them to the exact test
    assert exact_sign(*CONCURRENT) == filtered_sign(*CONCURRENT) == 0
    monkeypatch.setattr(geometry, "_ORIENT_ERR", 0.0)
    with pytest.raises(AssertionError):
        assert_filtered_sign_is_exact(CONCURRENT)


@pytest.mark.parametrize("rows", [
    # a/c past the float range on a row of the chain and on the caps
    [(1 << 1300, (1 << 1300) + 5, 1 << 200), (1, 0, 1 << 200), (0, 1, 1 << 200),
     (3 << 1250, 1 << 1250, 1 << 190)],
    [(1 << 1500, 0, 1 << 300), (0, 1 << 1500, 1 << 300), (1 << 1500, 1 << 1500, 3 << 300)],
    # a/c and b/c below the normal range, down to 0.0
    [(1, 0, 1 << 1040), (0, 1, 1 << 1040), (1, 1, 3 << 1039), (1, 2, 1 << 1100),
     (2, 1, 1 << 1200), (3, 3, (1 << 1100) + 1)],
    [(1, 0, 1 << 1080), (0, 3, 1 << 1080), (1, 1, 1 << 1081), (2, 1, 3 << 1079)],
    # three rows through one point, as dual points past both float limits
    [(1 << 2000, 0, 1 << 900), (0, 1 << 2000, 1 << 900)]
    + [(a << 2000, b << 2000, c << 900) for a, b, c in CONCURRENT],
])
def test_intersect_is_exact_where_floats_overflow_or_underflow(rows):
    planes = [HalfPlane(*r) for r in rows]
    assert_filtered_scan_matches_the_reference(rows)
    assert set(intersect([Row(r) for r in rows]).vertices) == brute_vertices(planes)


def big_rational(rng, bits):
    return F(rng.getrandbits(bits) | 1, rng.getrandbits(bits) | 1)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32), bits=st.integers(60, 2000), shift=st.integers(2, 1200),
       far=st.sampled_from([0, 1100, -1100]))
def test_region_decides_big_rational_turns_exactly(seed, bits, shift, far):
    # three staircase points on the line x/A + y/B = 1: the middle one on it
    # is collinear and rejected; moved out from the origin by a factor
    # 1 + 2**-shift (past float resolution from shift 54 on) it turns
    # strictly left and is accepted; moved in, it turns right.  A factor
    # 2**far puts the R1 coordinates past the float range or below it
    rng = random.Random(seed)
    A, B = big_rational(rng, bits) * F(2) ** far, big_rational(rng, bits)
    t = F(1, 4) + F(rng.getrandbits(bits), 1 << (bits + 1))
    origin, axis1, axis2 = (F(0), F(0)), (A, F(0)), (F(0), B)
    for scale, ok in ((1, False), (1 + F(1, 1 << shift), True), (1 - F(1, 1 << shift), False)):
        vertices = [origin, axis1, (A * t * scale, B * (1 - t) * scale), axis2]
        if ok:
            assert RegionPolytope(vertices).vertices == tuple(vertices)
        else:
            with pytest.raises(ValueError):
                RegionPolytope(vertices)
