"""Fading pmf plumbing: tails, difference tails, expectations, coefficients."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from layercap import (
    ChannelSpec,
    FadingPmf,
    as_fraction,
    diff_tail,
    expect,
    expect_max,
    expect_pos_diff,
    layer_coefficients,
    pos_diff_pmf,
    swap_users,
    tail,
)
from layercap.corpus import random_spec, symmetric_bernoulli
import random

from strategies import no_int_str_digit_limit, specs

F = Fraction


def bern(p, q=1):
    return FadingPmf.bernoulli(F(p))


def test_uniform_tails():
    u = FadingPmf.uniform(2)
    assert tail(u, 0) == 1
    assert tail(u, 1) == F(2, 3)
    assert tail(u, 2) == F(1, 3)
    assert tail(u, 3) == 0
    assert expect(u) == 1


def test_point_mass_tails():
    p = FadingPmf.point(2, 3)
    assert [tail(p, l) for l in range(5)] == [1, 1, 1, 0, 0]
    assert expect(p) == 2


@pytest.mark.parametrize("levels", [[], [F(1, 2)], [F(1, 2), F(1, 3)]])
def test_pmf_rejects_bad_mass_vectors(levels):
    with pytest.raises(ValueError):
        FadingPmf(levels)


def test_pmf_rejects_negative_mass():
    with pytest.raises(ValueError):
        FadingPmf([F(3, 2), F(-1, 2)])


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.5)
    assert as_fraction("1/3") == F(1, 3)
    assert as_fraction(2) == 2


def test_tail_range_checks():
    u = FadingPmf.uniform(2)
    with pytest.raises(ValueError):
        tail(u, -1)
    with pytest.raises(ValueError):
        tail(u, 4)


def test_cached_tails_match_mass_sums():
    rng = random.Random(7)
    for _ in range(40):
        pmf = random_spec(rng, rng.randint(0, 6)).n12
        for l in range(pmf.q + 2):
            assert tail(pmf, l) == sum(pmf.masses[l:], F(0))
            assert isinstance(tail(pmf, l), Fraction)
        assert expect(pmf) == sum((n * m for n, m in enumerate(pmf.masses)), F(0))


def test_value_equal_pmfs_hash_and_compare_equal():
    built = [
        FadingPmf(["1/4", "1/2", "1/4"]),
        FadingPmf([F(2, 8), F(4, 8), F(2, 8)]),
        FadingPmf(["0.25", F(1, 2), 1 - F(3, 4)]),
        FadingPmf.from_tails([F(3, 4), F(1, 4)]),
    ]
    for pmf in built[1:]:
        assert pmf is not built[0]
        assert pmf == built[0]
        assert hash(pmf) == hash(built[0])
    assert len(set(built)) == 1
    assert FadingPmf.uniform(2) != built[0]


@st.composite
def written_pmfs(draw):
    """A small pmf whose masses k/den are written as ints where whole, and
    otherwise as unreduced "k/den" strings or unreduced Fractions."""
    q, den, scale = draw(st.integers(0, 2)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    cuts = sorted(draw(st.lists(st.integers(0, den), min_size=q, max_size=q)))
    counts = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, den])]
    forms = (lambda k: f"{k * scale}/{den * scale}", lambda k: F(k * scale, den * scale))
    return FadingPmf([k // den if k % den == 0 else draw(st.sampled_from(forms))(k)
                      for k in counts])


@settings(max_examples=300, deadline=None)
@given(a=written_pmfs(), b=written_pmfs())
def test_pmf_equality_is_mass_equality(a, b):
    assert (a == b) == (a.masses == b.masses)
    if a == b:
        assert hash(a) == hash(b)


@settings(max_examples=300, deadline=None)
@given(weights=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=6).filter(any),
       scales=st.lists(st.integers(1, 60), min_size=6, max_size=6))
def test_pmf_from_integer_pairs_equals_the_fraction_pmf(weights, scales):
    # the pairs are unreduced, each over its own multiple of the total
    total = sum(weights)
    pairs = [(w * k, total * k) for w, k in zip(weights, scales)]
    from_pairs = FadingPmf.from_pairs(pairs)
    from_fractions = FadingPmf([F(n, d) for n, d in pairs])
    # the pmf holds integers only until its masses are read
    assert from_pairs._masses is None
    assert all(type(t) is int for t in (from_pairs._den, *from_pairs._int_tails))
    masses = tuple(F(w, total) for w in weights)
    den = math.lcm(*(m.denominator for m in masses))
    tails = tuple(den * sum(masses[l:], F(0)) for l in range(len(masses) + 1))
    for pmf in (from_pairs, from_fractions):
        assert pmf._den == den and pmf._int_tails == tails
        assert pmf.masses == masses
        assert repr(pmf) == "FadingPmf([%s])" % ", ".join(map(str, masses))
    assert from_pairs == from_fractions and hash(from_pairs) == hash(from_fractions)


def test_diff_tail_pinned_values():
    # P(U - 1 >= 1) for U uniform on {0,1,2} is P(U = 2) = 1/3
    u = FadingPmf.uniform(2)
    one = FadingPmf.point(1, 2)
    assert diff_tail(u, one, 1) == F(1, 3)
    # independent Bernoulli levels: P(A=1, B=0) = (9/10)(7/10)
    assert diff_tail(bern("9/10"), bern("3/10"), 1) == F(63, 100)


def test_diff_tail_rejects_mismatched_supports():
    with pytest.raises(ValueError):
        diff_tail(FadingPmf.uniform(1), FadingPmf.uniform(2), 1)


@pytest.mark.parametrize("l", [0, 3])
def test_diff_tail_rejects_layers_outside_1_to_q(l):
    with pytest.raises(ValueError, match="outside"):
        diff_tail(FadingPmf.uniform(2), FadingPmf.point(1, 2), l)


def test_expect_max_pinned():
    assert expect_max(bern("1/2"), bern("1/3")) == F(2, 3)


def test_expectation_identities_random():
    rng = random.Random(20260819)
    for _ in range(60):
        spec = random_spec(rng, rng.randint(0, 3))
        a, b = spec.n11, spec.n21
        q = spec.q
        assert expect(a) == sum(tail(a, l) for l in range(1, q + 1))
        if q >= 1:
            assert expect_pos_diff(a, b) == sum(
                diff_tail(a, b, l) for l in range(1, q + 1)
            )
            total = sum(
                1 - (1 - tail(a, l)) * (1 - tail(b, l)) for l in range(1, q + 1)
            )
            assert expect_max(a, b) == total
        d = pos_diff_pmf(a, b)
        assert sum(d.masses) == 1
        for l in range(1, q + 1):
            assert tail(d, l) == diff_tail(a, b, l)


def test_pos_diff_pmf_point_masses():
    three = FadingPmf.point(3, 3)
    one = FadingPmf.point(1, 3)
    assert pos_diff_pmf(three, one) == FadingPmf.point(2, 3)
    assert pos_diff_pmf(one, three) == FadingPmf.point(0, 3)


def test_moderate_example_coefficients():
    spec = symmetric_bernoulli(F(4, 5), F(1, 2))
    co = layer_coefficients(spec)
    assert co.alpha1 == (F(2, 5),)
    assert co.beta1 == (F(7, 10),)
    assert co.gamma1 == (F(3, 10),)
    # the channel is symmetric, so user 2 sees the same coefficients
    assert co.alpha2 == co.alpha1
    assert co.beta2 == co.beta1
    assert co.gamma2 == co.gamma1


def test_constant_channel_coefficients():
    spec = ChannelSpec(
        n11=FadingPmf.point(3, 3),
        n12=FadingPmf.point(2, 3),
        n21=FadingPmf.point(2, 3),
        n22=FadingPmf.point(3, 3),
    )
    co = layer_coefficients(spec)
    assert co.alpha1 == (1, 1, 0)
    assert co.beta1 == (1, 1, 1)
    assert co.gamma1 == (1, 0, 0)


def test_coefficient_ranges_random():
    rng = random.Random(11)
    for _ in range(40):
        spec = random_spec(rng, rng.randint(1, 3))
        co = layer_coefficients(spec)
        for seq in (co.alpha1, co.beta1, co.gamma1, co.alpha2, co.beta2, co.gamma2):
            assert len(seq) == spec.q
            assert all(0 <= v <= 1 for v in seq)
        # beta dominates gamma: the cross tail is at least the tail of the
        # cross-minus-direct difference
        assert all(b >= g for b, g in zip(co.beta1, co.gamma1))
        assert all(b >= g for b, g in zip(co.beta2, co.gamma2))


def test_swap_users_involution():
    rng = random.Random(5)
    for _ in range(20):
        spec = random_spec(rng, rng.randint(0, 2))
        flipped = swap_users(spec)
        assert swap_users(flipped) == spec
        a = layer_coefficients(spec)
        b = layer_coefficients(flipped)
        assert a.alpha1 == b.alpha2 and a.beta1 == b.beta2 and a.gamma1 == b.gamma2


def test_channel_spec_rejects_mixed_support():
    with pytest.raises(ValueError):
        ChannelSpec(
            n11=FadingPmf.uniform(1),
            n12=FadingPmf.uniform(2),
            n21=FadingPmf.uniform(1),
            n22=FadingPmf.uniform(1),
        )


# distinct primes near 10^9 and 2^61: the four links' lattice denominators
# are large and pairwise coprime, so products never cancel by accident
PRIMES = (1_000_000_007, 998_244_353, 2_305_843_009_213_693_951, 1_000_000_009)


@st.composite
def coprime_specs(draw):
    q = draw(st.integers(1, 8))
    links = []
    for prime in PRIMES:
        cuts = sorted(draw(st.lists(st.integers(0, prime), min_size=q, max_size=q)))
        bounds = [0] + cuts + [prime]
        links.append(FadingPmf([F(hi - lo, prime) for lo, hi in zip(bounds, bounds[1:])]))
    return ChannelSpec(*links)


def _check_integer_view(spec):
    # every vector of ints, over den, is the per-mass Fraction definition of
    # its key, and each coefficient property reads its vector as Fractions
    links = spec.links()
    q = spec.q

    def at_least(pmf, l):
        return sum(pmf.masses[l:], F(0))

    def diff(a, b, l):
        # P(N_a - N_b >= l) = sum_m P(N_b = m) P(N_a >= l + m)
        return sum((b.masses[m] * at_least(a, l + m) for m in range(q + 1)), F(0))

    co = layer_coefficients(spec)
    assert co.den > 0
    got = {key: tuple(F(n, co.den) for n in nums) for key, nums in co.ints.items()}
    layers = range(1, q + 1)
    for name, pmf in links.items():
        assert got.pop(name) == tuple(at_least(pmf, l) for l in layers), name
    for x, y in (("n11", "n21"), ("n21", "n11"), ("n22", "n12"), ("n12", "n22")):
        vec = got.pop(f"{x}-{y}")
        assert vec == tuple(diff(links[x], links[y], l) for l in layers), (x, y)
        assert vec == tuple(diff_tail(links[x], links[y], l) for l in layers), (x, y)
    for user, (n11, n12, n21, n22) in ((1, ("n11", "n12", "n21", "n22")),
                                       (2, ("n22", "n21", "n12", "n11"))):
        n11, n12, n21, n22 = (links[n] for n in (n11, n12, n21, n22))
        clear = [diff(n21, n11, l) for l in layers]
        alpha = tuple(at_least(n21, l) - c for l, c in zip(layers, clear))
        beta = tuple(max(at_least(n22, l) - c, 0) for l, c in zip(layers, clear))
        gamma = tuple(max(diff(n22, n12, l) - c, 0) for l, c in zip(layers, clear))
        for name, vec in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
            key = f"{name}{user}"
            assert got.pop(key) == vec, key
            assert getattr(co, key) == vec, key
    assert not got, sorted(got)


@settings(max_examples=100, deadline=None)
@given(spec=coprime_specs(), swap=st.booleans())
def test_layer_coefficients_match_definition(spec, swap):
    _check_integer_view(swap_users(spec) if swap else spec)


@settings(max_examples=300, deadline=None)
@given(spec=specs())
def test_integer_view_matches_the_fraction_view(spec):
    _check_integer_view(spec)


def test_integer_view_matches_past_the_int_str_digit_limit():
    # masses of 4,394 to 5,001 digits, kept out of hypothesis, whose report
    # would print them outside the lifted limit
    with no_int_str_digit_limit():
        spec = ChannelSpec(*(FadingPmf([1 - 3 * x, x, 2 * x]) for x in (
            F(1, 3 ** 10000), F(1, 10 ** 5000), F(1, 7 ** 5200), F(1, 2 ** 15000))))
        assert min(len(str(pmf.masses[1].denominator)) for pmf in spec.links().values()) > 4300
        _check_integer_view(spec)
