import numpy as np
import pytest

from uncond.action import holder_bound_check, multiply
from uncond.seqspace import EPS_NUM, ExponentTriple, FinSeq, norm


class TestMultiply:
    def test_examples(self):
        assert multiply(FinSeq.of([1, 2]), FinSeq.of([3, 4])) == FinSeq.of([3, 8])
        assert multiply(FinSeq.of([0, 0]), FinSeq.of([5, -7])) == FinSeq.of([0, 0])
        # squared +-1 row is all ones
        row = FinSeq.of([1, -1])
        assert multiply(row, row) == FinSeq.of([1, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            multiply(FinSeq.of([1]), FinSeq.of([1, 2]))

    def test_bilinear(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            a, b, x = (FinSeq(rng.standard_normal(n)) for _ in range(3))
            alpha, beta = (float(c) for c in rng.standard_normal(2))
            left = multiply(FinSeq(alpha * a.entries + beta * b.entries), x).entries
            right = alpha * multiply(a, x).entries + beta * multiply(b, x).entries
            assert np.allclose(left, right, rtol=EPS_NUM, atol=1e-12)


class TestHolderBoundCheck:
    def test_tight_case(self):
        t = ExponentTriple.of(2, 2, 1)
        assert holder_bound_check(FinSeq.of([1, 1]), FinSeq.of([1, 1]), t)
        assert norm([1, 1], 1) == pytest.approx(norm([1, 1], 2) ** 2, rel=1e-15)

    def test_zero_multiplier(self):
        t = ExponentTriple.of(2, 2, 1)
        assert holder_bound_check(FinSeq.of([0, 0]), FinSeq.of([3, 4]), t)

    def test_invalid_triple_rejected(self):
        with pytest.raises(ValueError):
            holder_bound_check(FinSeq.of([1]), FinSeq.of([1]), ExponentTriple.of(3, 3, 1))

    def test_always_holds_on_random_draws(self):
        # the inequality always holds for valid triples; check rather than assume
        rng = np.random.default_rng(1)
        t_sup = ExponentTriple.of("inf", 1, 1)
        for _ in range(10_000):
            n = int(rng.integers(1, 10))
            a = FinSeq(rng.standard_normal(n) * 3)
            x = FinSeq(rng.standard_normal(n) * 3)
            assert holder_bound_check(a, x, t_sup)

    def test_always_holds_across_triples(self):
        rng = np.random.default_rng(2)
        triples = [
            ExponentTriple.of(2, 2, 1),
            ExponentTriple.of(3, 6, 2),
            ExponentTriple.of(1.5, 3.0, 1.0),
            ExponentTriple.of(4, 4, 4),
            ExponentTriple.of(2, "inf", 2),
        ]
        for _ in range(2500):
            n = int(rng.integers(1, 10))
            a = FinSeq(rng.standard_normal(n) * 3)
            x = FinSeq(rng.standard_normal(n) * 3)
            t = triples[int(rng.integers(0, len(triples)))]
            assert holder_bound_check(a, x, t)
