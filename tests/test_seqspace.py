import math
import operator
import warnings

import numpy as np
import pytest

from uncond.seqspace import (
    EPS_NUM,
    INF,
    Exponent,
    ExponentTriple,
    FinSeq,
    dual_exponent,
    norm,
    norm_sandwich_check,
    row_norms,
)

from uncond.lemma_lab import complex_subset_ratio, real_subset_ratio
from uncond.unconditionality import Family

from _oracles import direct_norm


class TestExponent:
    def test_parse_and_reciprocal(self):
        assert Exponent.of(2).value == 2.0
        assert Exponent.of("inf").is_infinite
        assert Exponent.of(float("inf")).is_infinite
        assert Exponent.of("2.5").value == 2.5
        assert INF.reciprocal == 0.0
        assert Exponent.of(4).reciprocal == 0.25

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Exponent(0.5)
        with pytest.raises(ValueError):
            Exponent(float("nan"))
        with pytest.raises(ValueError):
            Exponent.of("bogus")

    def test_ordering(self):
        assert Exponent.of(1) < Exponent.of(2) < INF
        assert INF <= INF
        assert not INF < INF
        assert Exponent.of(3) >= Exponent.of(3)

    def test_order_table(self):
        values = (1, 1.5, 2, 64, "inf")
        # a second list of equal but distinct objects, so equality is by value
        left = [Exponent.of(v) for v in values]
        right = [Exponent.of(v) for v in values]
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                got = (a < b, a <= b, a > b, a >= b, a == b)
                assert got == (i < j, i <= j, i > j, i >= j, i == j), (a, b)

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_no_order_against_numbers(self, op):
        with pytest.raises(TypeError):
            op(Exponent(1), 1)
        with pytest.raises(TypeError):
            op(1.5, INF)

    def test_tokens_and_json(self):
        assert INF.token() == "inf"
        assert Exponent.of(2).token() == "2.0"
        assert INF.to_json() == "inf"
        assert Exponent.of(1.5).to_json() == 1.5


class TestDualExponent:
    def test_fixed_points_and_boundaries(self):
        assert dual_exponent(2) == Exponent(2.0)
        assert dual_exponent(1).is_infinite
        assert dual_exponent("inf") == Exponent(1.0)

    def test_four_thirds(self):
        # solve 1/4 + 1/p* = 1
        assert abs(dual_exponent(4).value - 4.0 / 3.0) < 1e-15

    def test_involution(self):
        assert dual_exponent(dual_exponent("inf")).is_infinite
        assert dual_exponent(dual_exponent(1)).value == 1.0
        for p in (1.5, 2.0, 3.0, 7.5, 64.0):
            back = dual_exponent(dual_exponent(p))
            assert abs(back.value - p) < 1e-12


class TestFinSeq:
    def test_basics(self):
        v = FinSeq.of([1, 2, 3])
        assert v.ambient_len == 3
        assert len(v) == 3
        assert v[1] == 2.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            FinSeq.of([1.0, float("nan")])
        with pytest.raises(ValueError):
            FinSeq.of([float("inf")])

    def test_read_only(self):
        v = FinSeq.of([1.0, 2.0])
        with pytest.raises(ValueError):
            v.entries[0] = 5.0

    def test_json_round_trip(self):
        v = FinSeq.of([1.5, -2.0, 0.0])
        assert FinSeq.of(v.to_json()) == v


class TestNorm:
    def test_examples(self):
        assert norm([3, 4], 2) == 5.0
        assert norm([3, 4], "inf") == 4.0
        assert norm([1, 1, 1], 1) == 3.0

    def test_empty_and_zero(self):
        assert norm([], 2) == 0.0
        assert norm([0.0, 0.0], 3) == 0.0
        assert norm([], "inf") == 0.0

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            v = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
            for p in (1.0, 1.5, 2.0, 3.0, 7.0, "inf"):
                got = norm(v, p)
                want = direct_norm(v, p)
                assert got == pytest.approx(want, rel=1e-12)

    def test_large_p_no_overflow(self):
        v = [1e200, 5e199]
        got = norm(v, 300)
        assert math.isfinite(got)
        assert got == pytest.approx(1e200, rel=1e-9)

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            v = rng.standard_normal(int(rng.integers(1, 10)))
            c = float(rng.standard_normal()) * 3.0
            p = float(rng.choice([1.0, 2.0, 2.5, 5.0]))
            assert norm(c * v, p) == pytest.approx(abs(c) * norm(v, p), rel=1e-12, abs=1e-300)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            for p in (1.0, 1.7, 2.0, 4.0, "inf"):
                assert norm(u + v, p) <= (norm(u, p) + norm(v, p)) * (1 + EPS_NUM)

    def test_row_norms_matches_scalar_norm_bitwise(self):
        rng = np.random.default_rng(7)
        mat = rng.standard_normal((64, 9))
        for p in (1.0, 1.5, 2.0, 3.0, "inf"):
            block = row_norms(mat, p)
            single = np.array([norm(row, p) for row in mat])
            assert np.array_equal(block, single)


class TestSandwich:
    def test_tight_upper(self):
        # constant vector: ||v||_p = n^(1/p - 1/q) ||v||_q exactly
        lower_ok, upper_ok = norm_sandwich_check([1.0, 1.0], 1, 2)
        assert lower_ok and upper_ok
        assert norm([1.0, 1.0], 1) == pytest.approx(
            2 ** (1 - 0.5) * norm([1.0, 1.0], 2), rel=1e-15
        )

    def test_single_support(self):
        for p, q in ((1, 2), (2, 4), (1.5, 3)):
            assert norm_sandwich_check([1.0, 0.0], p, q) == (True, True)

    def test_alternating(self):
        assert norm_sandwich_check([1, -1, 1, -1], 2, 4) == (True, True)

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            norm_sandwich_check([1.0], 3, 2)
        with pytest.raises(ValueError):
            norm_sandwich_check([1.0], 2, "inf")
        with pytest.raises(ValueError):
            norm_sandwich_check([], 1, 2)

    def test_random_sweep(self):
        rng = np.random.default_rng(8)
        for _ in range(400):
            n = int(rng.integers(1, 20))
            v = rng.standard_normal(n)
            p = float(rng.uniform(1, 6))
            q = p + float(rng.uniform(0, 6))
            assert norm_sandwich_check(v, p, q) == (True, True)


class TestExponentTriple:
    def test_holder_validity(self):
        assert ExponentTriple.of(2, 2, 1).holder_valid
        assert ExponentTriple.of(2, 2, 2).holder_valid
        assert not ExponentTriple.of(3, 3, 1).holder_valid
        assert ExponentTriple.of("inf", "inf", "inf").holder_valid
        assert not ExponentTriple.of("inf", 2, 1).holder_valid

    def test_boundary_is_valid(self):
        # 1/r = 1/p + 1/q exactly
        assert ExponentTriple.of(2, 2, 1).holder_valid
        assert ExponentTriple.of(4, 4, 2).holder_valid


class TestNonFiniteEntries:
    BAD = [[math.inf, 1.0], [1.0, math.nan], [-math.inf]]

    @pytest.mark.parametrize("v", BAD)
    def test_norm_rejects(self, v):
        # the unchecked kernel gives nan for [inf, 1.0] at p = 2
        for p in (1, 2, 3, "inf"):
            with pytest.raises(ValueError, match="^entries must be finite numbers$"):
                norm(v, p)

    @pytest.mark.parametrize("v", BAD)
    def test_sandwich_check_rejects(self, v):
        # unchecked, both comparisons come out False for [inf, 1.0]
        with pytest.raises(ValueError, match="^entries must be finite numbers$"):
            norm_sandwich_check(v, 1, 2)

    def test_one_message_for_every_input(self):
        for call in (
            lambda: FinSeq.of([1.0, math.nan]),
            lambda: Family.of([[1.0, math.inf]]),
            lambda: Family(np.array([[math.nan]])),
            lambda: real_subset_ratio([1.0, -math.inf]),
            lambda: complex_subset_ratio([1.0, complex(0.0, math.nan)]),
            lambda: complex_subset_ratio([complex(math.inf, 1.0)]),
        ):
            with pytest.raises(ValueError, match="^entries must be finite numbers$"):
                call()

    def test_row_norms_leaves_checking_to_its_callers(self):
        assert row_norms(np.array([[math.inf, 1.0]]), "inf")[0] == math.inf


class TestComplexEntries:
    @pytest.mark.parametrize("call", [
        lambda: Family(np.array([[1 + 5j, 2]])),
        lambda: Family.of([np.array([1 + 5j, 2.0])]),
        lambda: Family.of([[1 + 5j, 2.0]]),
        lambda: FinSeq(np.array([1j, 2])),
        lambda: FinSeq.of([1j, 2]),
        lambda: norm(np.array([3 + 4j]), 2),
        lambda: norm([3 + 4j], 2),
        lambda: norm_sandwich_check(np.array([1 + 1j, 2.0]), 1, 2),
        lambda: real_subset_ratio(np.array([1 + 1j, -1.0])),
    ], ids=range(9))
    def test_real_inputs_reject_complex(self, call):
        # cast to float64, these kept only the real part, with a ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^entries must be real numbers$"):
                call()

    def test_complex_inputs_keep_both_parts(self):
        rep = complex_subset_ratio(np.array([1 + 5j, 2.0]))
        assert rep.witness.tolist() == [1 + 5j, 2 + 0j]
        assert rep.ratio == pytest.approx((abs(1 + 5j) + 2.0) / abs(3 + 5j), rel=1e-12)
