import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncond import unconditionality as U
from uncond.lemma_lab import complex_subset_max, grothendieck_search
from uncond.seqspace import EPS_NUM, ExponentTriple, FinSeq
from uncond.unconditionality import (
    Family,
    main1_bound_check,
    quotient_lower_bound_search,
    sign_max_norm,
    subset_max_norm,
    unconditionality_quotient,
)
from uncond.witness import sylvester

from uncond.seqspace import row_norms

import _oracles
from _oracles import (
    column_inf_max,
    direct_quotient,
    dual_l1_max,
    exact_l2_sq,
    exact_l2_sq_max,
    exact_norm,
    gram_form_max,
    main1_sides,
    naive_sign_max,
    naive_subset_max,
    public_quotient_search,
    public_refine,
    scratch_sum,
    sequential_scratch_max,
)

SQRT2 = math.sqrt(2.0)


class TestFamily:
    def test_construction(self):
        fam = Family.of([[1, 0], [0, 1]])
        assert fam.size == 2
        assert fam.ambient_len == 2
        assert fam[0] == FinSeq.of([1, 0])
        assert len(fam) == 2

    def test_empty(self):
        fam = Family.of([])
        assert fam.size == 0

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Family.of([[1, 0], [1]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Family.of([[1.0, float("nan")]])


class TestSubsetMaxNorm:
    def test_orthonormal_pair(self):
        res = subset_max_norm(Family.of([[1, 0], [0, 1]]), 2)
        assert res.value == pytest.approx(SQRT2, rel=1e-15)
        assert res.argmax_subset == 0b11
        assert res.certified

    def test_cancellation(self):
        # full set cancels; first singleton in Gray order wins the tie
        res = subset_max_norm(Family.of([[1], [-1]]), 1)
        assert res.value == 1.0
        assert res.argmax_subset == 0b01

    def test_hadamard_rows(self):
        res = subset_max_norm(sylvester(1).rows_family(), 2)
        assert res.value == pytest.approx(2.0, rel=1e-15)
        assert res.argmax_subset == 0b11

    def test_empty_family(self):
        res = subset_max_norm(Family.of([]), 2)
        assert res.value == 0.0 and res.argmax_subset == 0

    def test_matches_naive_reenumeration(self):
        rng = np.random.default_rng(42)
        for trial in range(60):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(1, 6))
            if trial % 2 == 0:
                X = rng.integers(-1, 2, size=(n, d)).astype(float)
                if not X.any():
                    X[0, 0] = 1.0
            else:
                X = rng.standard_normal((n, d))
            q = (1, 1.5, 2, 3, "inf")[trial % 5]
            want_val, want_mask = naive_subset_max(X, q)
            got = subset_max_norm(Family(X), q)
            assert got.argmax_subset == want_mask
            assert got.value == pytest.approx(want_val, rel=1e-12)

    def test_exhaustive_cap(self):
        fam = Family(np.ones((5, 2)))
        with pytest.raises(ValueError, match="randomized"):
            subset_max_norm(fam, 2, n_exh=4)
        # explicit cap override admits it again
        assert subset_max_norm(fam, 2, n_exh=5).value == pytest.approx(5 * SQRT2)

    def test_cap_messages(self):
        # only subset_max_norm has a mode, so only it suggests the randomized one
        fam = Family(np.ones((5, 2)))
        plain = "family size 5 exceeds the exhaustive cap 4 (2^5 subsets)"
        with pytest.raises(ValueError) as err:
            subset_max_norm(fam, 2, n_exh=4)
        assert str(err.value) == plain + "; use mode='randomized' with a budget"
        t = ExponentTriple.of(2, 2, 2)
        for call in (
            lambda: sign_max_norm(fam, 2, n_exh=4),
            lambda: main1_bound_check(fam, fam, 2, 1.8, n_exh=4),
            lambda: complex_subset_max(np.ones(5), n_exh=4),
            lambda: quotient_lower_bound_search(t, 5, 2, 3, 0, n_exh=4),
            lambda: grothendieck_search(5, 2, 3, 0, n_exh=4),
        ):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == plain

    def test_only_the_two_mode_names(self):
        fam = Family.of([[1.0]])
        for mode in ("exh", "rand", "random", "Exhaustive", " randomized"):
            with pytest.raises(ValueError, match="unknown mode"):
                subset_max_norm(fam, 2, mode, budget=1, seed=0)

    def test_threads_bit_identical(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((17, 3))  # a narrow family: the branch and bound runs
        one = subset_max_norm(Family(X), 2.5, threads=1)
        four = subset_max_norm(Family(X), 2.5, threads=4)
        assert one.value == four.value
        assert one.argmax_subset == four.argmax_subset

    def test_randomized_lower_bound(self):
        rng = np.random.default_rng(9)
        for trial in range(25):
            n = int(rng.integers(1, 17))
            X = rng.standard_normal((n, 4))
            exact = subset_max_norm(Family(X), 2)
            rand = subset_max_norm(Family(X), 2, "randomized", budget=8, seed=trial)
            assert rand.value <= exact.value * (1 + EPS_NUM)
            assert not rand.certified
            assert rand.mode == "randomized" and rand.seed == trial

    def test_randomized_deterministic(self):
        X = np.random.default_rng(1).standard_normal((10, 4))
        a = subset_max_norm(Family(X), 2, "randomized", budget=5, seed=11)
        b = subset_max_norm(Family(X), 2, "randomized", budget=5, seed=11)
        assert a == b

    def test_randomized_beyond_64_vectors(self):
        res = subset_max_norm(Family(np.ones((70, 2))), 2, "randomized", budget=1, seed=0)
        assert res.value == 70 * SQRT2
        assert res.argmax_subset == (1 << 70) - 1

    def test_random_mask_draws_63_bits_at_a_time(self):
        for n in (1, 5, 62, 63):
            want = int(np.random.default_rng(3).integers(0, 1 << n))
            assert U._random_mask(np.random.default_rng(3), n) == want
        rng = np.random.default_rng(3)
        low = int(rng.integers(0, 1 << 63))
        high = int(rng.integers(0, 1 << 7))
        assert U._random_mask(np.random.default_rng(3), 70) == low | high << 63

    def test_randomized_requires_budget(self):
        with pytest.raises(ValueError, match="empty budget"):
            subset_max_norm(Family.of([[1.0]]), 2, "randomized")
        with pytest.raises(ValueError, match="empty budget"):
            subset_max_norm(Family.of([[1.0]]), 2, "randomized", budget=0)

    def test_json_shape(self):
        res = subset_max_norm(Family.of([[1, 0], [0, 1]]), 2)
        out = res.to_json()
        assert out == {
            "value": res.value,
            "subset_bitmask": "0x3",
            "certified": True,
            "mode": "exhaustive",
        }


class TestSignMaxNorm:
    def test_examples(self):
        res = sign_max_norm(Family.of([[1, 1], [1, -1]]), 1)
        assert res.value == pytest.approx(2.0, rel=1e-15)
        res = sign_max_norm(Family.of([[1]]), 1)
        assert res.value == 1.0
        res = sign_max_norm(Family.of([[1, 0], [1, 0]]), 1)
        assert res.value == pytest.approx(2.0)
        assert res.argmax_subset == 0  # all signs +1

    def test_matches_naive_on_lattice(self):
        # integer entries keep every running sum exact, so the complement tie
        # between a sign pattern and its negation resolves identically
        rng = np.random.default_rng(17)
        for trial in range(40):
            n = int(rng.integers(1, 8))
            d = int(rng.integers(1, 5))
            X = rng.integers(-2, 3, size=(n, d)).astype(float)
            if not X.any():
                X[0, 0] = 1.0
            q = (1, 2, "inf")[trial % 3]
            want_val, want_mask = naive_sign_max(X, q)
            got = sign_max_norm(Family(X), q)
            assert got.argmax_subset == want_mask
            assert got.value == want_val

    def test_matches_naive_value_on_continuous(self):
        rng = np.random.default_rng(18)
        for trial in range(30):
            n = int(rng.integers(1, 8))
            d = int(rng.integers(1, 5))
            X = rng.standard_normal((n, d))
            q = (1, 2, "inf")[trial % 3]
            want_val, _ = naive_sign_max(X, q)
            got = sign_max_norm(Family(X), q)
            assert got.value == pytest.approx(want_val, rel=1e-12)
            # the reported mask attains the reported value
            signs = np.array([-1.0 if (got.argmax_subset >> k) & 1 else 1.0 for k in range(n)])
            recomputed = float(row_norms((signs[:, None] * X).sum(axis=0).reshape(1, -1), q)[0])
            assert recomputed == pytest.approx(got.value, rel=1e-12)

    def test_cap(self):
        with pytest.raises(ValueError):
            sign_max_norm(Family(np.ones((5, 1))), 1, n_exh=4)


class TestKernel:
    """The block walk against from-scratch enumeration, across blocks, exponents and scales."""

    def test_many_blocks_match_naive_on_lattice(self):
        # d = 256 makes blocks of 2^9 positions: the subset walk spans 32
        # blocks, the sign walk 16, half of them mirrored.  A zero row makes
        # every subset tie with a partner, so the first-in-Gray-order rule
        # decides the mask.
        rng = np.random.default_rng(41)
        for q in (1, 2, "inf"):
            X = rng.integers(-1, 2, size=(14, 256)).astype(float)
            X[5] = 0.0
            for fn, naive in ((subset_max_norm, naive_subset_max), (sign_max_norm, naive_sign_max)):
                want_val, want_mask = naive(X, q)
                got = fn(Family(X), q)
                assert got.argmax_subset == want_mask
                assert got.value == want_val

    def test_matches_sequential_scratch_enumeration(self):
        # the oracle adds every sum row by row, like the reported values, so
        # value and mask agree exactly, also at d = 1 and at extreme scales
        rng = np.random.default_rng(47)
        qs = (1, 1.5, 2, 2.5, 3, "inf", 100)
        for trial in range(21):
            n = int(rng.integers(9, 17))
            d = int(rng.choice([1, 2, 5, 40]))
            if trial % 3 == 0:
                X = rng.integers(-2, 3, size=(n, d)).astype(float)
                X[int(rng.integers(0, n))] = 0.0
            else:
                X = rng.standard_normal((n, d)) * 10.0 ** float(rng.choice([-250, 0, 250]))
            q = qs[trial % len(qs)]
            for signs, fn in ((False, subset_max_norm), (True, sign_max_norm)):
                got = fn(Family(X), q)
                assert (got.value, got.argmax_subset) == sequential_scratch_max(X, q, signs)

    def test_decimal_lattice_ties(self):
        # multiples of 0.1 give many subsets with equal exact sums whose
        # floating sums differ in the last bits, depending on the order of
        # addition: the walk must still pick the oracle's first maximum
        rng = np.random.default_rng(61)
        for trial in range(30):
            n = int(rng.integers(9, 15))
            X = rng.integers(-3, 4, size=(n, int(rng.choice([1, 2, 3, 6])))) * 0.1
            q = (1, 2, 3, "inf", 1.5)[trial % 5]
            for signs, fn in ((False, subset_max_norm), (True, sign_max_norm)):
                got = fn(Family(X), q)
                assert (got.value, got.argmax_subset) == sequential_scratch_max(X, q, signs)

    def test_value_is_scratch_norm_of_mask(self):
        rng = np.random.default_rng(43)
        cases = [(16, 2, 1), (17, 4, 2), (18, 8, 3), (19, 2, "inf"), (20, 4, 2), (16, 8, "inf"), (17, 8, 1), (18, 4, 3)]
        for n, d, q in cases:
            X = rng.standard_normal((n, d))
            for signs, fn in ((False, subset_max_norm), (True, sign_max_norm)):
                res = fn(Family(X), q)
                recomputed = row_norms(scratch_sum(X, res.argmax_subset, signs).reshape(1, -1), q)[0]
                assert res.value == recomputed

    def test_sign_argmax_has_last_bit_clear(self):
        rng = np.random.default_rng(53)
        for trial in range(40):
            n = int(rng.integers(1, 15))
            d = int(rng.integers(1, 6))
            if trial % 2:
                X = rng.integers(-1, 2, size=(n, d)).astype(float)
            else:
                X = rng.standard_normal((n, d))
            res = sign_max_norm(Family(X), (1, 2, 3, "inf")[trial % 4])
            assert (res.argmax_subset >> (n - 1)) & 1 == 0

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n=st.integers(8, 12),
        d=st.integers(1, 4),
        span=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_maximum_on_integer_families(self, n, d, span, seed):
        # integer sums of at most 12 terms are exact in floats, so value == the Fraction oracle
        X = np.random.default_rng(seed).integers(-span, span + 1, size=(n, d)).astype(float)
        for q, oracle in ((1, dual_l1_max), ("inf", column_inf_max)):
            for signs, fn in ((False, subset_max_norm), (True, sign_max_norm)):
                want = oracle(X, signs)
                got = fn(Family(X), q)
                assert got.value == want
                assert exact_norm(X, got.argmax_subset, q, signs) == want

    def test_threads_identical_at_wide_d(self):
        X = np.random.default_rng(59).standard_normal((14, 256))
        for fn in (subset_max_norm, sign_max_norm):
            assert fn(Family(X), 2, threads=1) == fn(Family(X), 2, threads=2)

    def test_threads_below_one_rejected(self):
        fam = Family.of([[1.0, 0.0]])
        for fn in (subset_max_norm, sign_max_norm):
            with pytest.raises(ValueError, match="threads"):
                fn(fam, 2, threads=0)


class TestGramRoute:
    """q = 2 walks on the n x n Gram factor: the same (value, mask) as the walk on the d wide rows."""

    @staticmethod
    def _counting(mp):
        # counts the Gram factorizations, so each test knows the route ran
        calls = []
        factor = U._gram_factor

        def counting(Xs):
            calls.append(Xs.shape)
            return factor(Xs)

        mp.setattr(U, "_gram_factor", counting)
        return calls

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(8, 11),
        wide=st.integers(1, 3),
        span=st.integers(1, 4),
        zero_rows=st.integers(0, 2),
        duplicate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_maximum_on_integer_families(self, n, wide, span, zero_rows, duplicate, seed):
        # n < d <= 4n; zero and duplicated rows make the Gram matrix singular
        rng = np.random.default_rng(seed)
        d = n + int(rng.integers(1, wide * n + 1))
        X = rng.integers(-span, span + 1, size=(n, d)).astype(float)
        X[:zero_rows] = 0.0
        if duplicate:
            X[n - 1] = X[n - 2]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(U, "_GRAM_MIN_RATIO", 0)
            mp.setattr(U, "_GRAM_MIN_POSITIONS", 0)
            calls = self._counting(mp)
            for signs, fn in ((False, subset_max_norm), (True, sign_max_norm)):
                got = fn(Family(X), 2)
                assert exact_l2_sq(X, got.argmax_subset, signs) == exact_l2_sq_max(X, signs)
                assert (got.value, got.argmax_subset) == sequential_scratch_max(X, 2, signs)
            assert calls == [(n, d), (n, d)]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 10),
        wide=st.integers(1, 4),
        kind=st.sampled_from(["normal", "integer", "rank-one", "duplicate"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_eta_bounds_every_gram_form(self, n, wide, kind, seed):
        rng = np.random.default_rng(seed)
        d = n + int(rng.integers(0, wide * n + 1))
        if kind == "integer":
            X = rng.integers(-3, 4, size=(n, d)).astype(float)
        elif kind == "rank-one":
            X = np.outer(rng.standard_normal(n), rng.standard_normal(d))
        else:
            X = rng.standard_normal((n, d))
            if kind == "duplicate":
                X[0] = X[-1]
        if not X.any():
            return
        # scaled by a power of two as the walk scales it, every subset sum below 1
        Xs = np.ldexp(X, -(math.frexp(float(np.abs(X).max()))[1] + n.bit_length()))
        W, eta = U._gram_factor(Xs)
        assert W.shape == (n, n) and not np.triu(W, 1).any()
        # eta bounds max_c |c^T (WW^T - XsXs^T) c|, and is not vacuous
        assert gram_form_max(W, Xs) <= eta
        assert eta <= 1e-12 * float(np.square(np.abs(Xs).sum(axis=0)).sum())

    @pytest.mark.parametrize("scale", [-900, 900])
    def test_matches_sequential_scratch_at_extreme_scales(self, scale, monkeypatch):
        # d >= 2n and at least 2^12 positions: the route runs by default
        calls = self._counting(monkeypatch)
        rng = np.random.default_rng(67)
        for n, d in ((13, 26), (13, 40), (14, 64)):
            X = np.ldexp(rng.standard_normal((n, d)), scale)
            for signs, fn in ((False, subset_max_norm), (True, sign_max_norm)):
                got = fn(Family(X), 2)
                assert (got.value, got.argmax_subset) == sequential_scratch_max(X, 2, signs)
        assert len(calls) == 6

    def test_near_tie_within_the_slack_is_recomputed(self, monkeypatch):
        # the last row is -1e-12 times the best subset sum S of the others, so
        # adding it to that subset lowers the squared norm by about 2e-12 of
        # it: more than 2 eta (about 6e-13 here), less than the slack (about
        # 6e-12), and later in Gray order, so only the slack keeps it
        calls = self._counting(monkeypatch)
        X = np.random.default_rng(113).standard_normal((13, 120))
        mask = sequential_scratch_max(X[:12], 2)[1]
        X[12] = -1e-12 * scratch_sum(X[:12], mask)
        seen = set()
        first_best = U._first_best

        def recording(*args):
            # args[3] holds the Gray ranks of the candidates; record their masks
            seen.update(int(p ^ (p >> 1)) for part in args[3] for p in part)
            return first_best(*args)

        monkeypatch.setattr(U, "_first_best", recording)
        got = subset_max_norm(Family(X), 2)
        assert calls == [(13, 120)]
        assert {mask, mask | 1 << 12} <= seen
        assert (got.value, got.argmax_subset) == sequential_scratch_max(X, 2)

    def test_route_rule(self, monkeypatch):
        # q = 2 only, d >= 2n, and at least 2^12 positions (signs walk half)
        calls = self._counting(monkeypatch)
        rng = np.random.default_rng(71)
        for n, d, q, signs, taken in (
            (12, 24, 2, False, True),
            (12, 24, 2, True, False),
            (13, 25, 2, False, False),
            (13, 26, 3, False, False),
            (13, 26, 2, True, True),
        ):
            before = len(calls)
            U._exhaustive_best(rng.standard_normal((n, d)), U.Exponent.of(q), signs)
            assert (len(calls) > before) == taken


class TestBranchAndBound:
    """Narrow families (n >= 2d): the same (value, mask) as the walk, from the surviving leaves."""

    @staticmethod
    def _counting(mp):
        # records each run's shape and whether it finished, so each test knows the route ran
        runs = []
        candidates = U._bnb_candidates

        def counting(Xs, *args):
            ranks, peak = candidates(Xs, *args)
            runs.append((Xs.shape, ranks is not None))
            return ranks, peak

        mp.setattr(U, "_bnb_candidates", counting)
        return runs

    @pytest.mark.parametrize("q", [1, 1.5, 2, 3, "inf"])
    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(
        n=st.integers(17, 19),
        span=st.integers(1, 4),
        zero_rows=st.integers(0, 2),
        duplicate=st.booleans(),
        negated=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_sequential_scratch_on_integer_families(self, q, n, span, zero_rows, duplicate, negated, seed):
        # zero, duplicated and negated rows make exact ties, which the first-in-Gray-order rule decides
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, n // 2 + 1))
        X = rng.integers(-span, span + 1, size=(n, d)).astype(float)
        X[:zero_rows] = 0.0
        if duplicate:
            X[n - 1] = X[n - 2]
        if negated:
            X[n - 3] = -X[n - 4]
        with pytest.MonkeyPatch.context() as mp:
            runs = self._counting(mp)
            for signs, fn in ((False, subset_max_norm), (True, sign_max_norm)):
                got = fn(Family(X), q)
                assert (got.value, got.argmax_subset) == sequential_scratch_max(X, q, signs)
        assert runs == [((n, d), True), ((n, d), True)]

    def test_decimal_lattice_near_ties(self, monkeypatch):
        # multiples of 0.1: equal exact sums whose float sums differ in the last
        # bits with the order of addition, which differs between the levels and
        # the scratch recompute, so a floor with no allowance for rounding
        # would prune the first maximum
        runs = self._counting(monkeypatch)
        rng = np.random.default_rng(97)
        for trial in range(10):
            n = int(rng.integers(16, 18))
            X = rng.integers(-3, 4, size=(n, int(rng.integers(1, 5)))) * 0.1
            q = (1, 2, 3, "inf", 1.5)[trial % 5]
            for signs, fn in ((False, subset_max_norm), (True, sign_max_norm)):
                got = fn(Family(X), q)
                assert (got.value, got.argmax_subset) == sequential_scratch_max(X, q, signs)
        assert len(runs) == 20 and all(done for _, done in runs)

    @pytest.mark.parametrize("scale", [-900, 900])
    def test_matches_sequential_scratch_at_extreme_scales(self, scale, monkeypatch):
        runs = self._counting(monkeypatch)
        rng = np.random.default_rng(79)
        for n, d, q in ((16, 8, 1.5), (17, 3, 3), (16, 5, "inf"), (17, 8, 100)):
            X = np.ldexp(rng.standard_normal((n, d)), scale)
            for signs, fn in ((False, subset_max_norm), (True, sign_max_norm)):
                got = fn(Family(X), q)
                assert (got.value, got.argmax_subset) == sequential_scratch_max(X, q, signs)
        assert len(runs) == 8 and all(done for _, done in runs)

    def test_tie_heavy_family_falls_back_to_the_walk(self, monkeypatch):
        # three unit rows and fifteen zero rows: each best pattern ties with 2^15
        # others, so the sign frontier outgrows _FRONTIER_BYTES
        runs = self._counting(monkeypatch)
        X = np.zeros((18, 3))
        X[:3] = np.eye(3)
        for signs, fn in ((False, subset_max_norm), (True, sign_max_norm)):
            got = fn(Family(X), 2)
            assert (got.value, got.argmax_subset) == sequential_scratch_max(X, 2, signs)
        assert runs == [((18, 3), True), ((18, 3), False)]

    def test_walk_on_narrow_families_with_the_route_off(self, monkeypatch):
        # the fallback's walk, across several 2^15-position blocks, keeps its own check
        monkeypatch.setattr(U, "_BNB_MIN_POSITIONS", 1 << 62)
        runs = self._counting(monkeypatch)
        rng = np.random.default_rng(101)
        for q in (1, 2.5, "inf"):
            X = rng.standard_normal((17, 3))
            for signs, fn in ((False, subset_max_norm), (True, sign_max_norm)):
                got = fn(Family(X), q)
                assert (got.value, got.argmax_subset) == sequential_scratch_max(X, q, signs)
        assert runs == []

    def test_route_rule(self, monkeypatch):
        # n >= 2d and at least 2^15 positions (signs walk half); never on the Gram route's shapes
        runs = self._counting(monkeypatch)
        grams = TestGramRoute._counting(monkeypatch)
        rng = np.random.default_rng(73)
        for n, d, q, signs, taken in (
            (15, 7, 2, False, True),
            (15, 8, 2, False, False),
            (14, 7, 2, False, False),
            (16, 8, 3, True, True),
            (15, 7, 1, True, False),
            (16, 8, "inf", False, True),
            (12, 24, 2, False, False),
            (13, 26, 2, True, False),
        ):
            before = len(runs)
            U._exhaustive_best(rng.standard_normal((n, d)), U.Exponent.of(q), signs)
            assert (len(runs) > before) == taken
        assert grams == [(12, 24), (13, 26)]


class TestRouteLog:
    LINE = re.compile(r"exact route (.+): (\d+) positions, frontier peak (\d+), (\d+) candidates recomputed")

    def test_debug_line_names_each_route(self, caplog):
        rng = np.random.default_rng(83)
        ties = np.zeros((18, 3))
        ties[:3] = np.eye(3)
        cases = (
            (rng.standard_normal((4, 2)), False, "scratch", 16),
            (rng.standard_normal((12, 8)), False, "walk", 4096),
            (rng.standard_normal((12, 24)), False, "Gram walk", 4096),
            (rng.standard_normal((16, 4)), True, "branch and bound", 32768),
            (ties, True, "branch-and-bound fallback", 131072),
        )
        for X, signs, route, positions in cases:
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger=U.logger.name):
                U._exhaustive_best(X, U.Exponent.of(2), signs)
            [record] = caplog.records
            name, seen, peak, recomputed = self.LINE.fullmatch(record.getMessage()).groups()
            assert (name, int(seen)) == (route, positions)
            assert (int(peak) > 0) == route.startswith("branch")
            assert 1 <= int(recomputed) <= positions

    def test_pinned_frontiers_and_candidates(self, caplog):
        # frontier peaks and candidate counts of three narrow families and one
        # wide one, pinned at the walk's slack: a looser floor keeps more nodes,
        # a tighter one can lose the first maximum
        rng = np.random.default_rng(109)
        cases = (
            (rng.standard_normal((17, 4)), 2, False),
            (rng.integers(-3, 4, size=(18, 3)) * 0.1, 1, True),
            (rng.integers(-3, 4, size=(16, 6)) * 0.1, 3, True),
            (rng.integers(-3, 4, size=(13, 40)) * 0.1, 2, False),
        )
        lines = []
        for X, q, signs in cases:
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger=U.logger.name):
                U._exhaustive_best(X, U.Exponent.of(q), signs)
            [record] = caplog.records
            lines.append(record.getMessage())
        assert lines == [
            "exact route branch and bound: 131072 positions, frontier peak 26, 1 candidates recomputed",
            "exact route branch and bound: 131072 positions, frontier peak 239, 10 candidates recomputed",
            "exact route branch and bound: 32768 positions, frontier peak 26, 1 candidates recomputed",
            "exact route Gram walk: 8192 positions, frontier peak 0, 1 candidates recomputed",
        ]

    def test_off_by_default(self, caplog):
        U._exhaustive_best(np.random.default_rng(89).standard_normal((16, 4)), U.Exponent.of(2), False)
        assert not U.logger.isEnabledFor(logging.DEBUG)
        assert caplog.records == []


class TestQuotient:
    def test_hadamard_pair(self):
        fam = sylvester(1).rows_family()
        res = unconditionality_quotient(fam, fam, ExponentTriple.of("inf", 2, 2))
        assert res.numerator == pytest.approx(2.0 ** 1.5, rel=1e-15)
        assert res.denominator == pytest.approx(2.0, rel=1e-15)
        assert res.quotient == pytest.approx(SQRT2, rel=1e-15)
        assert res.certified

    def test_single_pair(self):
        one = Family.of([[1.0]])
        res = unconditionality_quotient(one, one, ExponentTriple.of(1, 1, 1))
        assert res.quotient == 1.0

    def test_orthonormal_family(self):
        eye = Family(np.eye(4))
        res = unconditionality_quotient(eye, eye, ExponentTriple.of(2, 2, 2))
        assert res.numerator == pytest.approx(2.0, rel=1e-15)
        assert res.denominator == pytest.approx(2.0, rel=1e-15)
        assert res.quotient == pytest.approx(1.0, rel=1e-15)

    def test_degenerate_families(self):
        zeros = Family(np.zeros((2, 2)))
        ones = Family(np.ones((2, 2)))
        t = ExponentTriple.of(2, 2, 1)
        with pytest.raises(ValueError, match="degenerate"):
            unconditionality_quotient(zeros, ones, t)
        with pytest.raises(ValueError, match="degenerate"):
            unconditionality_quotient(ones, zeros, t)

    def test_invalid_triple(self):
        fam = Family.of([[1.0]])
        with pytest.raises(ValueError, match="not valid"):
            unconditionality_quotient(fam, fam, ExponentTriple.of(3, 3, 1))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            unconditionality_quotient(
                Family.of([[1.0]]), Family.of([[1.0], [2.0]]), ExponentTriple.of(1, 1, 1)
            )

    def test_invariances(self):
        rng = np.random.default_rng(23)
        t = ExponentTriple.of(2, 3, 2)
        for _ in range(30):
            n, d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            A = rng.standard_normal((n, d))
            X = rng.standard_normal((n, d))
            base = unconditionality_quotient(Family(A), Family(X), t).quotient
            # permute the family index
            perm = rng.permutation(n)
            permuted = unconditionality_quotient(Family(A[perm]), Family(X[perm]), t).quotient
            assert permuted == pytest.approx(base, rel=EPS_NUM)
            # positive scaling of either side
            c, dscale = float(rng.uniform(0.1, 5)), float(rng.uniform(0.1, 5))
            scaled = unconditionality_quotient(Family(c * A), Family(dscale * X), t).quotient
            assert scaled == pytest.approx(base, rel=EPS_NUM)
            # common coordinate permutation
            cperm = rng.permutation(d)
            swapped = unconditionality_quotient(
                Family(A[:, cperm]), Family(X[:, cperm]), t
            ).quotient
            assert swapped == pytest.approx(base, rel=EPS_NUM)

    def test_sup_norm_quotient_bounded_by_four(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            n, d = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            p = float(rng.uniform(1, 5))
            q = float(rng.uniform(1, 5))
            t = ExponentTriple.of(p, q, "inf")
            A = rng.standard_normal((n, d))
            X = rng.standard_normal((n, d))
            res = unconditionality_quotient(Family(A), Family(X), t)
            assert res.quotient <= 4.0 + EPS_NUM


class TestMain1BoundCheck:
    def test_hadamard_pair(self):
        fam = sylvester(1).rows_family()
        assert main1_bound_check(fam, fam, 2, 1.8)

    @pytest.mark.parametrize("K", [float("nan"), np.nan, np.float64("nan")])
    def test_nan_constant_is_rejected_before_any_work(self, K, monkeypatch):
        # False would read as "the 2K inequality failed"
        monkeypatch.setattr(U, "_quotient_parts", lambda *a, **k: pytest.fail("evaluated"))
        fam = sylvester(1).rows_family()
        with pytest.raises(ValueError, match="^K cannot be NaN$"):
            main1_bound_check(fam, fam, 2, K)
        # rejected before the families are read
        with pytest.raises(ValueError, match="^K cannot be NaN$"):
            main1_bound_check([[1.0]], [[1.0], [2.0]], 2, K)

    def test_zero_family_holds_vacuously(self):
        zeros = Family(np.zeros((2, 2)))
        assert main1_bound_check(zeros, zeros, 2, 1.8)

    def test_random_families(self):
        rng = np.random.default_rng(31)
        for trial in range(500):
            n, d = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            A = rng.standard_normal((n, d))
            X = rng.standard_normal((n, d))
            q = (1, 1.5, 2, 3)[trial % 4]
            assert main1_bound_check(Family(A), Family(X), q, 1.8)

    def test_violation_at_conservative_k_logs_critical(self, caplog):
        import logging

        fam = Family.of([[1, 1], [1, -1]])
        with caplog.at_level(logging.CRITICAL, logger="uncond.unconditionality"):
            assert main1_bound_check(fam, fam, 2, 1.8)
            assert not caplog.records
            # tiny K fails quietly: failing below the envelope is not a finding
            assert not main1_bound_check(fam, fam, 2, 0.01)
            assert not caplog.records

    def test_boundary_matches_the_oracle_bit_for_bit(self):
        # K puts lhs at rhs * (1 + EPS_NUM); the check must flip where the oracle flips
        rng = np.random.default_rng(43)
        for trial in range(60):
            n, d = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            q = (1, 1.5, 2, 3, "inf")[trial % 5]
            A, X = rng.standard_normal((n, d)), rng.standard_normal((n, d))
            lhs, rhs = main1_sides(A, X, q, 1.0)
            K = lhs / (rhs * (1.0 + EPS_NUM))
            for _ in range(16):
                K = np.nextafter(K, 0.0)
            verdicts = set()
            for _ in range(33):
                lhs, rhs = main1_sides(A, X, q, K)
                want = lhs <= rhs * (1.0 + EPS_NUM)
                assert main1_bound_check(Family(A), Family(X), q, K) == want
                verdicts.add(want)
                K = np.nextafter(K, np.inf)
            assert verdicts == {False, True}

    @pytest.mark.parametrize("K", [1.8, 3.0])
    def test_critical_message_at_conservative_k(self, K, caplog, monkeypatch):
        # no honest family fails at K >= 1.8, so the product norm is inflated
        real = U._product_norm
        monkeypatch.setattr(U, "_product_norm", lambda A, X, r: 100.0 * real(A, X, r))
        A = np.array([[1.0, 1.0], [1.0, -1.0], [0.5, 2.0]])
        X = np.array([[2.0, -1.0], [1.0, 1.0], [-0.5, 0.25]])
        lhs, rhs = main1_sides(A, X, 2, K)
        with caplog.at_level(logging.CRITICAL, logger="uncond.unconditionality"):
            assert not main1_bound_check(Family(A), Family(X), 2, K)
        assert [r.getMessage() for r in caplog.records] == [
            f"2K inequality violated at conservative K={K:.3g}: lhs {100.0 * lhs:.12g} > "
            f"rhs {rhs:.12g} on a 3-vector family; this should be impossible"
        ]


class TestQuotientOracle:
    """unconditionality_quotient against a quotient recomputed from scratch."""

    @pytest.mark.parametrize("triple", [
        (2, 2, 2), (3, 3, 3), (1, 3, 1), ("inf", 2, 2), (2, "inf", 2),
        (1.5, 2, "inf"), ("inf", "inf", "inf"),
    ])
    def test_matches_direct_quotient(self, triple):
        t = ExponentTriple.of(*triple)
        rng = np.random.default_rng(29)
        for _ in range(12):
            n, d = int(rng.integers(1, 9)), int(rng.integers(1, 7))
            A, X = rng.standard_normal((n, d)), rng.standard_normal((n, d))
            got = unconditionality_quotient(Family(A), Family(X), t)
            numerator, denominator = direct_quotient(A, X, *triple)
            assert got.numerator == pytest.approx(numerator, rel=1e-12)
            assert got.denominator == pytest.approx(denominator, rel=1e-12)
            assert got.quotient == pytest.approx(numerator / denominator, rel=1e-12)

    def test_empty_family(self):
        with pytest.raises(ValueError, match="degenerate"):
            unconditionality_quotient([], [], ExponentTriple.of(2, 2, 2))
        assert main1_bound_check([], [], 2, 1.8) is True


class TestSearchArguments:
    @pytest.mark.parametrize("n, dim, budget, n_exh", [
        (2, 2, 0, 24), (0, 2, 3, 24), (2, 0, 3, 24), (5, 2, 3, 4),
        (2, U.DRAW_MAX_ENTRIES // 2 + 1, 3, 24), (3, 10**9, 1, 24),
    ])
    def test_both_searches_raise_the_same_error(self, n, dim, budget, n_exh):
        with pytest.raises(ValueError) as quotient_err:
            quotient_lower_bound_search(ExponentTriple.of(2, 2, 2), n, dim, budget, 0, n_exh=n_exh)
        with pytest.raises(ValueError) as sign_err:
            grothendieck_search(n, dim, budget, 0, n_exh=n_exh)
        assert str(quotient_err.value) == str(sign_err.value)


class TestQuotientSearch:
    def test_rediscovers_hadamard_level(self):
        t = ExponentTriple.of("inf", 2, 2)
        res = quotient_lower_bound_search(t, 2, 2, budget=60, seed=2024)
        assert res.quotient >= SQRT2 - 1e-9

    def test_empty_budget(self):
        with pytest.raises(ValueError, match="empty budget"):
            quotient_lower_bound_search(ExponentTriple.of(2, 2, 2), 2, 2, budget=0, seed=0)

    def test_deterministic(self):
        t = ExponentTriple.of(2, 2, 2)
        a = quotient_lower_bound_search(t, 2, 3, budget=20, seed=5)
        b = quotient_lower_bound_search(t, 2, 3, budget=20, seed=5)
        assert a.quotient == b.quotient

    def test_l2_triple_stays_bounded(self):
        # consistent with preservation: quotients must stay under 2 * 1.8
        t = ExponentTriple.of(2, 2, 2)
        for seed in (0, 1, 2):
            res = quotient_lower_bound_search(t, 3, 4, budget=40, seed=seed)
            assert res.quotient <= 2 * 1.8 + EPS_NUM

    def test_invalid_triple(self):
        with pytest.raises(ValueError, match="not valid"):
            quotient_lower_bound_search(ExponentTriple.of(3, 3, 1), 2, 2, budget=5, seed=0)


SEARCH_TRIPLES = [(3, 3, 3), (2, 2, 4), (4, 4, 4), (1.5, 2, "inf")]


def _parts(res):
    """Every field of a QuotientResult, for exact comparison."""
    return (res.quotient, res.numerator, res.denominator, res.certified, res.subset)


class TestSearchTrajectory:
    """The coordinate ascent retraces the public-call search exactly, float for float."""

    @pytest.mark.parametrize("triple", SEARCH_TRIPLES)
    def test_search_matches_public_oracle(self, triple):
        t = ExponentTriple.of(*triple)
        # budget 5 draws lattice families at even trials and normal ones at odd trials
        for n in (3, 4):
            for seed in (0, 1, 2):
                got = quotient_lower_bound_search(t, n, 4, 5, seed)
                want = public_quotient_search(t, n, 4, 5, seed)
                assert _parts(got) == _parts(want)
                assert got.to_json() == want.to_json()

    @pytest.mark.parametrize("triple", SEARCH_TRIPLES)
    def test_refine_matches_public_oracle(self, triple):
        t = ExponentTriple.of(*triple)
        rng = np.random.default_rng(17)
        for A, X in (
            (rng.integers(-1, 2, (3, 4)).astype(float), rng.integers(-1, 2, (3, 4)).astype(float)),
            (rng.standard_normal((4, 4)), rng.standard_normal((4, 4))),
        ):
            start = unconditionality_quotient(Family(A), Family(X), t)
            want_A, want_X, want = public_refine(A, X, t, start)
            got_A, got_X = A.copy(), X.copy()
            got = U._refine_families(got_A, got_X, t, U._quotient_parts(A, X, t))
            assert (got.quotient, got.numerator, got.denominator) == _parts(want)[:3]
            assert got.sub == (want.subset.value, want.subset.argmax_subset)
            assert np.array_equal(got_A, want_A) and np.array_equal(got_X, want_X)

    def test_move_that_zeroes_the_denominator_is_rejected(self, monkeypatch):
        t = ExponentTriple.of(2, 2, 2)
        # the first move, -0.5 + 0.5 * max(1, 0.5), makes A all zero
        A = np.array([[-0.5, 0.0]])
        X = np.array([[1.0, 1.0]])
        batches = []
        parts = U._quotient_parts

        def spy(*args, **kwargs):
            batches.append(parts(*args, **kwargs))
            return batches[-1]

        monkeypatch.setattr(U, "_quotient_parts", spy)
        got_A = A.copy()
        got = U._refine_families(got_A, X.copy(), t, parts(A, X, t))
        # the first batch scores row 0 of A; its first move scores the degenerate marker
        first = batches[0]
        assert first.denominator[0] == 0.0
        assert first.quotient[0] == -np.inf and first.at(0) is None
        assert got_A.any()  # the all-zero a-family was not kept
        start = unconditionality_quotient(Family(A), Family(X), t)
        _, _, want = public_refine(A, X, t, start)
        assert (got.quotient, got.numerator, got.denominator) == _parts(want)[:3]
        assert got.denominator > 0

    def test_degenerate_draws_are_skipped(self):
        t = ExponentTriple.of(2, 2, 2)
        # seed 3 draws a = 0, x = 0 at trial 0 (a lattice draw)
        child = np.random.SeedSequence(3).spawn(1)[0]
        rng = np.random.default_rng(child)
        A, X = rng.integers(-1, 2, (1, 1)), rng.integers(-1, 2, (1, 1))
        with pytest.raises(ValueError, match="degenerate"):
            unconditionality_quotient(Family(A), Family(X), t)
        with pytest.raises(ValueError, match="only degenerate"):
            quotient_lower_bound_search(t, 1, 1, 1, 3)
        for budget in (2, 4):
            got = quotient_lower_bound_search(t, 1, 1, budget, 3)
            assert _parts(got) == _parts(public_quotient_search(t, 1, 1, budget, 3))


def _moved_stack(M, i, deltas):
    """The stack a refinement batch of row i scores: one copy of M per delta, entries in order, + and - each."""
    cols = np.repeat(np.arange(M.shape[1]), 2)[: deltas.size]
    stack = np.repeat(M[None], deltas.size, axis=0)
    stack[np.arange(deltas.size), i, cols] += deltas
    return stack


class TestStackedQuotient:
    """A stack of families scores each family exactly as a stack of one does."""

    # 2^n n d <= 2048 takes the scratch route on the whole stack (n = 8, d = 1 is
    # its edge); (7, 4) and (9, 1) enumerate each family alone
    SHAPES = [(3, 1), (3, 4), (3, 8), (3, 9), (8, 1), (7, 4), (9, 1)]

    @staticmethod
    def _stacks(n, dim, rng):
        for A, X in (
            (rng.integers(-1, 2, (n, dim)).astype(float), rng.integers(-1, 2, (n, dim)).astype(float)),
            (rng.standard_normal((n, dim)), rng.standard_normal((n, dim))),
        ):
            for m in sorted({1, 2, 2 * dim}):
                deltas = np.tile([0.5, -0.5], dim)[:m] * np.repeat(np.maximum(1.0, np.abs(A[n - 1])), 2)[:m]
                yield A, X, _moved_stack(A, n - 1, deltas), _moved_stack(X, n - 1, deltas)

    @pytest.mark.parametrize("q", [1, 1.5, 2, 3, "inf"])
    @pytest.mark.parametrize("n, dim", SHAPES)
    def test_every_family_matches_a_stack_of_one(self, n, dim, q):
        t = ExponentTriple.of(1.5, q, 3)
        rng = np.random.default_rng(n * 100 + dim)
        for A, X, As, Xs in self._stacks(n, dim, rng):
            sub = U._quotient_parts(A, X, t).sub
            a_max = float(row_norms(A, t.p).max())
            moved_a = U._quotient_parts(As, X[None], t, sub=sub)
            moved_x = U._quotient_parts(A[None], Xs, t, a_max=a_max)
            for k in range(len(As)):
                one = U._quotient_parts(As[k], X, t, sub=sub)
                assert tuple(moved_a.at(k)) == tuple(one)
                assert one.a_max == float(row_norms(As[k], t.p).max())
                assert moved_a.quotient[k] == one.quotient
            for k in range(len(Xs)):
                one = U._quotient_parts(A, Xs[k], t, a_max=a_max)
                assert tuple(moved_x.at(k)) == tuple(one)
                assert one.sub == sequential_scratch_max(Xs[k], t.q) == U._exhaustive_best(Xs[k], t.q, False)
                assert moved_x.quotient[k] == one.quotient

    def test_zero_denominator_scores_minus_inf(self):
        t = ExponentTriple.of(2, 2, 2)
        A = np.array([[1.0, -1.0], [0.5, 2.0]])
        X = np.array([[1.0, 1.0], [-1.0, 0.5]])
        As = np.stack([A, np.zeros_like(A), 2.0 * A])
        res = U._quotient_parts(As, X[None], t, sub=U._quotient_parts(A, X, t).sub)
        assert res.quotient[1] == -np.inf and res.denominator[1] == 0.0
        assert res.at(1) is None
        assert tuple(res.at(2)) == tuple(U._quotient_parts(2.0 * A, X, t))
        assert U._quotient_parts(np.zeros_like(A), X, t) is None

    @pytest.mark.parametrize("q", [1, 1.5, 2, 3, "inf", 100])
    def test_scratch_route_matches_the_sequential_oracle(self, q):
        # lattice families with zero, repeated and negated rows tie often
        q = U.Exponent.of(q)
        rng = np.random.default_rng(61)
        for _ in range(40):
            n, dim = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            stack = rng.integers(-2, 3, (3, n, dim)) * 0.1
            stack[0, rng.integers(0, n)] = 0.0
            stack[1, -1] = -stack[1, 0]
            for signs in (False, True):
                values, masks = U._scratch_maxima(stack, q, signs)
                for k, X in enumerate(stack):
                    assert (values[k], masks[k]) == sequential_scratch_max(X, q, signs)


class TestRefinementBatches:
    @pytest.mark.parametrize("triple", SEARCH_TRIPLES)
    @pytest.mark.parametrize("n, dim", [(7, 4), (3, 9)])
    def test_refine_matches_public_oracle(self, triple, n, dim):
        # (7, 4) is past the scratch route: each moved x-family is enumerated alone
        t = ExponentTriple.of(*triple)
        rng = np.random.default_rng(n * dim)
        for A, X in (
            (rng.integers(-1, 2, (n, dim)).astype(float), rng.integers(-1, 2, (n, dim)).astype(float)),
            (rng.standard_normal((n, dim)), rng.standard_normal((n, dim))),
        ):
            start = unconditionality_quotient(Family(A), Family(X), t)
            want_A, want_X, want = public_refine(A, X, t, start)
            got_A, got_X = A.copy(), X.copy()
            got = U._refine_families(got_A, got_X, t, U._quotient_parts(A, X, t))
            assert (got.quotient, got.numerator, got.denominator) == _parts(want)[:3]
            assert got.sub == (want.subset.value, want.subset.argmax_subset)
            assert np.array_equal(got_A, want_A) and np.array_equal(got_X, want_X)

    def test_debug_line_counts_the_climb(self, caplog, monkeypatch):
        rng = np.random.default_rng(2026)
        A, X = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        t = ExponentTriple.of(3, 3, 3)
        with caplog.at_level(logging.DEBUG, logger=U.logger.name):
            U._refine_families(A.copy(), X.copy(), t, U._quotient_parts(A, X, t))
        [line] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("refinement")]
        assert line == (
            "refinement: 2 sweeps, 74 batches, 404 moves scored, 192 tried in order, 51 kept, 30 reverse moves scored"
        )
        # "tried in order" counts what the one-move-at-a-time oracle evaluates
        evaluations = []
        real = _oracles._public_quotient_or_none
        monkeypatch.setattr(_oracles, "_public_quotient_or_none", lambda *a: evaluations.append(1) or real(*a))
        public_refine(A, X, t, unconditionality_quotient(Family(A), Family(X), t))
        assert len(evaluations) == 192

    def test_no_line_by_default(self, caplog):
        t = ExponentTriple.of(3, 3, 3)
        A = X = np.eye(2)
        U._refine_families(A.copy(), X.copy(), t, U._quotient_parts(A, X, t))
        assert caplog.records == []


class TestPairedShapes:
    @pytest.mark.parametrize("check", [
        lambda a, x: unconditionality_quotient(a, x, ExponentTriple.of(2, 2, 2)),
        lambda a, x: main1_bound_check(a, x, 2, 1.8),
    ])
    def test_shape_mismatches_rejected(self, check):
        with pytest.raises(ValueError, match="same size"):
            check([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="share the ambient length"):
            check([[1.0, 0.0]], [[1.0, 0.0, 0.0]])
