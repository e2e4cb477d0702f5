"""Exact half-plane intersection against a brute-force vertex oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from layercap import (
    HalfPlane,
    RegionPolytope,
    UnboundedRegionError,
    intersect,
)

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
        region = intersect(planes)
        expected = RegionPolytope(brute_vertices(planes))
        assert region == expected, f"trial {trial}"


def test_vertices_satisfy_all_planes():
    rng = random.Random(7)
    for _ in range(50):
        planes = [
            HalfPlane(1, 0, rng.randint(1, 5)),
            HalfPlane(0, 1, rng.randint(1, 5)),
            HalfPlane(rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 9)),
        ]
        region = intersect(planes)
        for v in region.vertices:
            assert all(p.holds(v) for p in planes)
            assert region.contains(v)


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


@settings(max_examples=300, deadline=None)
@given(planes=planes(), data=st.data())
def test_region_is_its_canonical_vertex_tuple(planes, data):
    # any point set with the same hull rebuilds an == region with an equal hash
    region = intersect(planes)
    v = list(region.vertices)
    midpoints = [((p[0] + q[0]) / 2, (p[1] + q[1]) / 2) for p, q in zip(v, v[1:] + v[:1])]
    dups = data.draw(st.lists(st.sampled_from(v), max_size=4), label="duplicates")
    points = data.draw(st.permutations(v + midpoints + dups), label="points")
    rebuilt = RegionPolytope(points)
    assert rebuilt == region
    assert hash(rebuilt) == hash(region)


@settings(max_examples=300, deadline=None)
@given(p_planes=planes(), q_planes=planes(), nested=st.booleans())
def test_equality_is_mutual_inclusion(p_planes, q_planes, nested):
    # nested pairs add planes to p's own, so equal (redundant extras) and
    # strictly nested pairs are both common
    p = intersect(p_planes)
    q = intersect(p_planes + q_planes if nested else q_planes)
    assert (p == q) == (p.subset_of(q) and q.subset_of(p))
