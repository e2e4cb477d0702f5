"""The named examples and the seeded regime-specific generators."""

import random
from fractions import Fraction

from layercap import classify
from layercap.corpus import (
    examples,
    random_moderate_spec,
    random_pmf,
    random_spec,
    random_strong_spec,
    random_weak_spec,
)

F = Fraction


def test_examples_cover_the_regimes():
    ex = examples()
    # the Monte Carlo suite prints the examples in this order
    assert list(ex) == ["det", "strong", "weak", "moderate"]
    assert {label: {link: pmf.masses for link, pmf in spec.links().items()}
            for label, spec in ex.items()} == {
        "det": {"n11": (0, 0, 0, 1), "n12": (0, 0, 1, 0),
                "n21": (0, 0, 1, 0), "n22": (0, 0, 0, 1)},
        "strong": {"n11": (F(1, 2), F(1, 2)), "n12": (F(1, 5), F(4, 5)),
                   "n21": (F(1, 5), F(4, 5)), "n22": (F(1, 2), F(1, 2))},
        "weak": {"n11": (F(1, 10), F(9, 10)), "n12": (F(7, 10), F(3, 10)),
                 "n21": (F(7, 10), F(3, 10)), "n22": (F(1, 10), F(9, 10))},
        "moderate": {"n11": (F(1, 5), F(4, 5)), "n12": (F(1, 2), F(1, 2)),
                     "n21": (F(1, 2), F(1, 2)), "n22": (F(1, 5), F(4, 5))},
    }
    assert ex["det"].q == 3
    assert classify(ex["strong"]).regime == "strong"
    assert classify(ex["weak"]).regime == "weak"
    assert classify(ex["moderate"]).regime == "moderate"


def test_random_pmf_shape_and_denominators():
    rng = random.Random(1)
    for _ in range(100):
        q = rng.randint(0, 3)
        pmf = random_pmf(rng, q, max_denominator=8)
        assert len(pmf.masses) == q + 1
        assert sum(pmf.masses) == 1
        assert all(m.denominator <= 8 for m in pmf.masses)


def test_random_spec_is_reproducible():
    a = random_spec(random.Random(42), 2)
    b = random_spec(random.Random(42), 2)
    assert a == b


def test_strong_generator():
    rng = random.Random(17)
    for _ in range(50):
        spec = random_strong_spec(rng, rng.randint(0, 3))
        rep = classify(spec)
        assert rep.regime == "strong"
        for pmf in spec.links().values():
            assert all(m.denominator <= 8 for m in pmf.masses)


def test_weak_generator():
    # the label can come out "strong" when both condition sets hold at once,
    # so assert the weak per-layer flags rather than the label
    rng = random.Random(23)
    for _ in range(50):
        spec = random_weak_spec(rng, rng.randint(1, 3))
        assert classify(spec).holds("weak")


def test_moderate_generator_both_branches():
    rng = random.Random(29)
    for _ in range(30):
        spec = random_moderate_spec(rng, 1)
        assert classify(spec).regime == "moderate"
    for _ in range(30):
        spec = random_moderate_spec(rng, rng.randint(2, 3))
        assert classify(spec).regime == "moderate"
