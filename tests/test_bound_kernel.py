"""The integer bound kernel against a direct per-layer reference of the bounds.

The reference evaluates the three formulas of the bounds module docstring
layer by layer, with plain Fraction sums, [.]^+ and max, from tails and
difference tails alone; user 2 goes through swap_users.  Every path into
the kernel is checked against it: bound_a/b/c, the critical-weight bounds
of outer_halfplanes and the weight grid of grid_bounds, including the
half-plane each bound builds from the kernel's integers.  The critical
weights, enumerated in integers, are checked against a Fraction enumeration
through sets and sorts, and every row of outer_rows and grid_rows against
the half-plane of the bound it reads back as.  outer_rows reads each
critical-weight bound on the sweep pieces its kink indexes, and grid lines
on the pieces a walk over the kinks finds; each piece is checked against a
count of the layers below its weight, and each value against bound_a/b/c,
which read no piece.  The crossing outer_rows records for two consecutive
a- or b-family rows, the apex of the piece between them, is checked to lie on
both rows and to give intersect the region Cramer's rule gives.  Every
non-axis edge of an exact, pruned grid or one-family a or b region must lie
on a bound active_bounds reports, with c from the reference: the continuum
tests show that the region lies inside every bound, and this shows that it
reaches each of them.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from layercap import (
    FAMILIES,
    ChannelSpec,
    FadingPmf,
    HalfPlane,
    active_bounds,
    bound_a,
    bound_b,
    bound_c,
    critical_weights,
    diff_tail,
    swap_users,
    tail,
)
from layercap.bounds import (
    _kink_weights,
    _kinks,
    bound_kernel,
    grid_bounds,
    grid_rows,
    outer_halfplanes,
    outer_rows,
)
from layercap.corpus import random_moderate_spec
from layercap.geometry import active_planes, intersect
from strategies import specs, unit_rationals

F = Fraction


def _pos(x):
    return x if x > 0 else F(0)


def reference(spec, user, family, omega, mu=None):
    sp = spec if user == 1 else swap_users(spec)
    n11, n12, n21, n22 = sp.n11, sp.n12, sp.n21, sp.n22
    layers = range(1, sp.q + 1)
    clear = [diff_tail(n21, n11, l) for l in layers]
    alpha = [tail(n21, l) - c for l, c in zip(layers, clear)]
    beta = [_pos(tail(n22, l) - c) for l, c in zip(layers, clear)]
    gamma = [_pos(diff_tail(n22, n12, l) - c) for l, c in zip(layers, clear)]
    e11 = sum((tail(n11, l) for l in layers), F(0))
    e21 = sum((tail(n21, l) for l in layers), F(0))
    lift = sum(clear, F(0))
    if family == "a":
        kinks = sum((_pos(omega * b - a) for a, b in zip(alpha, beta)), F(0))
        return e11 + omega * lift + kinks
    kinks = sum((_pos(omega * g - a) for a, g in zip(alpha, gamma)), F(0))
    if family == "b":
        cross = sum((max(diff_tail(n11, n21, l), tail(n12, l)) for l in layers), F(0))
        return (1 - omega) * e11 + omega * e21 + kinks + omega * cross
    top = sum((max(mu * tail(n11, l), omega * tail(n12, l)) for l in layers), F(0))
    return e11 + omega * lift + kinks + top


def plane_of(wb):
    """The bound's half-plane built from its Fraction weights and value."""
    own = 1 if wb.mu is None else 1 + wb.mu
    if wb.family[0] == "1":
        return HalfPlane(own, wb.omega, wb.value)
    return HalfPlane(wb.omega, own, wb.value)


def layer_ratios(spec, user):
    """The per-layer ratios of each of the user's three sweeps, alpha/beta,
    alpha/gamma and P(N12 >= l)/P(N11 >= l), on the layers with a positive
    denominator."""
    sp = spec if user == 1 else swap_users(spec)
    out = {"beta": [], "gamma": [], "top": []}
    for l in range(1, sp.q + 1):
        clear = diff_tail(sp.n21, sp.n11, l)
        alpha = tail(sp.n21, l) - clear
        for key, g in (("beta", tail(sp.n22, l) - clear),
                       ("gamma", diff_tail(sp.n22, sp.n12, l) - clear)):
            if g > 0:
                out[key].append(alpha / g)
        t11, t12 = tail(sp.n11, l), tail(sp.n12, l)
        if t11 > 0:
            out["top"].append(t12 / t11)
    return out


def sweeps(spec, user):
    """{0, 1} plus the per-layer kink ratios in [0, 1] of each of the user's
    three sweeps."""
    return {key: {F(0), F(1), *(x for x in xs if x <= 1)}
            for key, xs in layer_ratios(spec, user).items()}


def pieces(ratios, family, omega, mu):
    """The pieces (i, j) the weight (omega, mu) sits at, each a count of the
    layer_ratios below it: i of the family's omega sweep below omega, j of
    the top sweep below mu/omega, 0 outside family c."""
    i = sum(x < omega for x in ratios["beta" if family == "a" else "gamma"])
    return i, sum(x * omega < mu for x in ratios["top"]) if family == "c" else 0


def bound_value(spec, user, family, omega, mu):
    """The bound through bound_a/b/c, which read no piece."""
    if family == "c":
        return bound_c(spec, user, omega, mu)
    return (bound_a if family == "a" else bound_b)(spec, user, omega)


def ratios(spec, user):
    """Every kink ratio of the user's three sweeps that lies in [0, 1]."""
    return sorted(set().union(*sweeps(spec, user).values()))


def reference_weights(spec, user, family):
    """The critical weights, enumerated in Fractions through sets and sorts:
    a sweep's ratios for families a and b; for family c every omega kink of
    the alpha/gamma sweep times every ray slope mu/omega of the top sweep."""
    kinks = sweeps(spec, user)
    if family != "c":
        return tuple(sorted(kinks["beta" if family == "a" else "gamma"]))
    return tuple(sorted({(om, s * om) for om in kinks["gamma"] for s in kinks["top"]}))


@settings(max_examples=300, deadline=None)
@given(spec=specs(), user=st.sampled_from((1, 2)))
def test_critical_weights_match_reference(spec, user):
    for family in "abc":
        assert critical_weights(spec, user, family) == reference_weights(spec, user, family)


@settings(max_examples=500, deadline=None)
@given(spec=specs(), user=st.sampled_from((1, 2)), data=st.data())
def test_bounds_match_reference(spec, user, data):
    kinks = ratios(spec, user)
    weight = st.one_of(st.sampled_from((F(0), F(1))), unit_rationals(),
                       *([st.sampled_from(kinks)] if kinks else []))
    omega = data.draw(weight, label="omega")
    # mu = omega * ratio lands on the c-family top-term boundary when the
    # ratio is one of the spec's own
    mu = omega * data.draw(weight, label="mu/omega")
    for family, fn, args in (("a", bound_a, (omega,)), ("b", bound_b, (omega,)),
                             ("c", bound_c, (omega, mu))):
        got = fn(spec, user, *args)
        assert isinstance(got, Fraction)
        assert got == reference(spec, user, family, *args)


@settings(max_examples=100, deadline=None)
@given(spec=specs())
def test_outer_halfplanes_order_and_values(spec):
    bounds = outer_halfplanes(spec)
    tags = [wb.family for wb in bounds]
    assert tags == sorted(tags, key=FAMILIES.index)
    for tag in FAMILIES:
        user, family = int(tag[0]), tag[1]
        mine = [wb for wb in bounds if wb.family == tag]
        weights = [wb.omega if family != "c" else (wb.omega, wb.mu) for wb in mine]
        assert tuple(weights) == critical_weights(spec, user, family)
        assert weights == sorted(weights)
        for wb in mine:
            assert wb.value == reference(spec, user, family, wb.omega, wb.mu)
            assert wb.halfplane() == plane_of(wb)


@settings(max_examples=150, deadline=None)
@given(spec=specs(), steps=st.none() | st.integers(1, 6))
def test_every_row_is_its_bounds_halfplane(spec, steps):
    # not only the rows active_bounds reads: each stored weight and value
    # must give back the constraint its row was built from
    rows = outer_rows(spec) if steps is None else grid_rows(spec, steps)
    assert len(rows) == len(rows.rows)
    for i, (a, b, c) in enumerate(rows.rows):
        assert HalfPlane(a * rows.den, b * rows.den, c) == rows[i].halfplane()


@settings(max_examples=150, deadline=None)
@given(spec=specs(), steps=st.integers(1, 8))
def test_grid_bounds_match_reference(spec, steps):
    bounds = grid_bounds(spec, steps)
    weights = [F(k, steps) for k in range(steps + 1)]
    expected = []
    for user in (1, 2):
        expected += [(f"{user}a", om, None) for om in weights]
        expected += [(f"{user}b", om, None) for om in weights]
        expected += [(f"{user}c", om, mu) for om in weights for mu in weights if mu <= om]
    assert [(wb.family, wb.omega, wb.mu) for wb in bounds] == expected
    for wb in bounds:
        assert isinstance(wb.value, Fraction)
        assert wb.value == reference(spec, int(wb.family[0]), wb.family[1], wb.omega, wb.mu)
        assert wb.halfplane() == plane_of(wb)


def weighted_spec(*weights):
    return ChannelSpec(*(FadingPmf([F(w, sum(ws)) for w in ws]) for ws in weights))


# each has, in some sweep of some user, two layers of one kink ratio in
# (0, 1), a layer with alpha = 0 (ratio 0) and a layer of ratio above 1
KINK_EDGE_SPECS = [
    weighted_spec([0, 3, 3, 3], [0, 3, 2, 2], [0, 2, 0, 0], [2, 0, 2, 2]),
    weighted_spec([2, 2, 3], [3, 2, 3], [2, 3, 0], [2, 2, 3]),
]


def kink_value_mismatches(spec):
    """The critical weights (tag, p, m, r) whose kink pieces (i, j) differ
    from the counts of layers below them (pieces), or at which outer_rows's
    value differs from the bound there."""
    table = outer_rows(spec)
    expected = []
    for tag in FAMILIES:
        user, family = int(tag[0]), tag[1]
        ratios = layer_ratios(spec, user)
        for p, m, r, i, j in _kink_weights(bound_kernel(spec, user), family):
            omega, mu = F(p, r), F(m, r)
            expected.append(((tag, p, m, r), (i, j) == pieces(ratios, family, omega, mu),
                             r * table.den * bound_value(spec, user, family, omega, mu)))
    assert len(expected) == len(table)
    return [weight for (weight, same, value), (_, _, c)
            in zip(expected, table.rows) if not same or c != value]


@settings(max_examples=300, deadline=None)
@given(spec=specs(max_q=6))
@example(spec=KINK_EDGE_SPECS[0])
@example(spec=KINK_EDGE_SPECS[1])
def test_kink_indexed_values_equal_the_bisected_ones(spec):
    # small weights make repeated ratios, alpha = 0 layers and ratios of 1
    # or more common
    assert kink_value_mismatches(spec) == []


@pytest.mark.parametrize("step", [-1, 1])
def test_an_off_by_one_kink_index_fails_the_value_check(monkeypatch, step):
    # a shifted index differs from the counted piece at every kink; the
    # values tell it only at some, since a bound is continuous at its kinks.
    # A sweep reduces its kinks once, when its kernel is built, so the
    # kernels are rebuilt on both sides of the patch: a cached one would
    # hand back the kinks it was built with
    bound_kernel.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr("layercap.bounds._kinks",
                          lambda keys: tuple((n, d, k + step) for n, d, k in _kinks(keys)))
            for spec in KINK_EDGE_SPECS:
                try:
                    assert kink_value_mismatches(spec)
                except IndexError:  # a piece index past the last
                    pass
    finally:
        bound_kernel.cache_clear()


def test_each_sweep_keeps_its_kinks():
    # the kinks are reduced once per sweep and kept as a tuple, which no
    # reader can change; a rebuilt kernel gives the same critical weights
    spec = KINK_EDGE_SPECS[0]
    weights = {(user, family): critical_weights(spec, user, family)
               for user in (1, 2) for family in "abc"}
    for user in (1, 2):
        kernel, ratios = bound_kernel(spec, user), layer_ratios(spec, user)
        for key, kinks in sweeps(spec, user).items():
            # each kink with the count of the sweep's ratios below it
            table = tuple((x.numerator, x.denominator, sum(y < x for y in ratios[key]))
                          for x in sorted(kinks))
            sweep = getattr(kernel, key)
            assert type(sweep.kinks) is tuple and sweep.kinks == table
    bound_kernel.cache_clear()
    assert weights == {(user, family): critical_weights(spec, user, family)
                       for user in (1, 2) for family in "abc"}


# moderate specs at q 3-5: rows of hundreds to thousands of bits
MODERATE_SPECS = st.builds(lambda seed, q: random_moderate_spec(random.Random(seed), q),
                           st.integers(0, 2 ** 32), st.integers(3, 5))


@settings(max_examples=150, deadline=None)
@given(spec=specs(max_q=6) | MODERATE_SPECS)
@example(spec=KINK_EDGE_SPECS[0])
@example(spec=KINK_EDGE_SPECS[1])
def test_recorded_crossings_are_the_vertices_cramers_rule_gives(spec):
    # outer_rows records for two consecutive a- or b-family rows the apex
    # of the bound piece between them; it must lie on both rows, and
    # intersect must give the same region and active planes with the
    # crossings as by Cramer's rule alone
    for families in (FAMILIES, *((tag,) for tag in FAMILIES if tag[1] != "c")):
        rows = outer_rows(spec, families)
        for pair, (x, y) in rows.crossings.items():
            for a, b, c in map(rows.rows.__getitem__, pair):
                assert a * x + b * y == c
        plain = intersect(rows.rows, rows.den)
        fast = intersect(rows.rows, rows.den, rows.crossings)
        assert fast.vertices == plain.vertices
        assert active_planes(fast, len(rows)) == active_planes(plain, len(rows))


def edges_off_every_reported_bound(rows, bound):
    """The non-axis edges of the region intersect gives rows, if it has 3 or
    more vertices, through whose two ends no bound active_bounds reports
    passes, each bound's c taken from bound(user, family, omega, mu)."""
    region = intersect(rows.rows, rows.den, rows.crossings)
    vertices = region.vertices
    if len(vertices) < 3:  # read off the spec, and checked elsewhere
        return []
    lines = []
    for wb in active_bounds(rows, region):
        user, own = int(wb.family[0]), 1 + (wb.mu or 0)
        a, b = (own, wb.omega) if user == 1 else (wb.omega, own)
        lines.append((a, b, bound(user, wb.family[1], wb.omega, wb.mu)))
    return [(p, q) for p, q in zip(vertices[1:], vertices[2:])
            if not any(a * p[0] + b * p[1] == c == a * q[0] + b * q[1] for a, b, c in lines)]


@settings(max_examples=100, deadline=None)
@given(spec=specs(max_q=6) | MODERATE_SPECS, steps=st.integers(1, 12))
@example(spec=KINK_EDGE_SPECS[0], steps=12)
@example(spec=KINK_EDGE_SPECS[1], steps=12)
def test_every_edge_lies_on_a_reported_bound_of_the_continuum(spec, steps):
    # the continuum tests show that the region P lies inside C, the
    # intersection of every bound at every weight.  P is the intersection
    # of the half-planes along its edges and the axes, so if each edge lies
    # on a bound, exactly as reference evaluates it, C lies inside P too.
    # Exact mode's region is then C, and pruned grid mode's contains it;
    # the same holds for each one-family a or b region
    values = {}

    def bound(*key):  # reference, read once per bound
        if key not in values:
            values[key] = reference(spec, *key)
        return values[key]

    one_family = [outer_rows(spec, (tag,)) for tag in FAMILIES if tag[1] != "c"]
    for rows in (outer_rows(spec), grid_rows(spec, steps, prune=True), *one_family):
        assert edges_off_every_reported_bound(rows, bound) == []


@settings(max_examples=100, deadline=None)
@given(spec=specs(max_q=6), steps=st.integers(1, 40))
@example(spec=KINK_EDGE_SPECS[0], steps=12)
@example(spec=KINK_EDGE_SPECS[1], steps=12)
def test_walked_grid_pieces_equal_the_bisected_ones(spec, steps):
    # small weights put grid weights on kinks often: every alpha = 0 layer
    # has its kink at omega = 0, and a top key at mu = 0 on every c line.
    # BoundKernel.lines reads the omega piece of each k off one walk along
    # omega, and the top piece of each j off one walk along each c line;
    # the weights its lines give must be the grid's, in order, with the
    # pieces counted there, and their values r*D times the bound there
    for tag in FAMILIES:
        user, family = int(tag[0]), tag[1]
        kernel, ratios = bound_kernel(spec, user), layer_ratios(spec, user)
        grid = ([(k, j, steps) for k in range(steps + 1) for j in range(k + 1)]
                if family == "c" else [(k, 0, steps) for k in range(steps + 1)])
        walked, values = [], []
        for weight, line in kernel.lines(family, steps):
            walked += map(weight, range(len(line)))
            values += line
        assert walked == [(p, m, r, *pieces(ratios, family, F(p, r), F(m, r)))
                          for p, m, r in grid]
        assert values == [r * kernel.den * bound_value(spec, user, family, F(p, r), F(m, r))
                          for p, m, r, _, _ in walked]


# outer_rows, then grid_rows in full and pruned
@pytest.mark.parametrize("steps,prune", [(None, False), (4, False), (4, True)])
def test_a_negative_bound_value_is_refused(monkeypatch, steps, prune):
    # every bound is >= 0, so BoundRows refuses a row below 0 rather than
    # hand intersect a constraint that cuts off the origin.  Piece 0 of
    # family 2b, the one omega = 0 reads, is set to -1/D: a row that is
    # both a critical weight and a grid line's end, so pruning keeps it
    spec = KINK_EDGE_SPECS[0]
    kernel = bound_kernel(spec, 2)
    pieces, top = kernel._pieces["b"]
    monkeypatch.setitem(kernel._pieces, "b", ([(-1, pieces[0][1]), *pieces[1:]], top))
    r = 1 if steps is None else steps
    with pytest.raises(ValueError, match=rf"^bound 2b at omega=0/{r}, mu=0/{r}: "
                                         r"needs a value >= 0, got -"):
        outer_rows(spec) if steps is None else grid_rows(spec, steps, prune)
