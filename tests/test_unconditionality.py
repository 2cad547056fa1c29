import logging
import math
import re
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uncond import lemma_lab
from uncond import unconditionality as U
from uncond.lemma_lab import KG_UPPER, grothendieck_search
from uncond.seqspace import _TINY, EPS_NUM, ExponentTriple
from uncond.unconditionality import (
    Family,
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
    cumsum_scratch_norms,
    direct_quotient,
    dual_l1_max,
    exact_l2_sq,
    exact_l2_sq_max,
    exact_norm,
    gram_form_max,
    naive_sign_max,
    naive_subset_max,
    per_draw_quotient_bests,
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
        assert fam[0].tolist() == [1.0, 0.0] and fam[0].dtype == np.float64
        with pytest.raises(ValueError):
            fam[0][0] = 5.0
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

    @pytest.mark.parametrize("bad, message", [
        (5, "family matrix must be 2-d"),
        (None, "entries must be finite numbers"),
        ({}, "entries must be finite numbers"),
        ([[{}]], "entries must be finite numbers"),
        ([[10**400]], "entries must be finite numbers"),
        ([[1.0, 0.0], [1.0]], "inhomogeneous"),
        ([[[1.0]]], "family matrix must be 2-d"),
    ])
    def test_malformed_input_is_a_value_error(self, bad, message):
        # numpy's TypeError and OverflowError, and its ragged-row error, all reach the caller as ValueError
        with pytest.raises(ValueError, match=message):
            Family.of(bad)

    def test_an_empty_sequence_is_the_empty_family(self):
        for empty in ([], (), np.zeros(0)):
            assert Family.of(empty).matrix.shape == (0, 0)
        assert Family.of([[]]).matrix.shape == (1, 0)

    def test_of_keeps_a_family_and_builds_anything_else(self):
        fam = Family(np.eye(2))
        assert Family.of(fam) is fam
        for rows in ([[1, 0], [0, 1]], ((1, 0), (0, 1)), [np.array([1, 0]), np.array([0, 1])], np.eye(2, dtype=int)):
            assert Family.of(rows) == fam

    def test_both_families_of_a_quotient_are_checked(self):
        # each a-family column sums to 2/3 of the largest float; the quotient used to be 1.0
        third = float(np.finfo(np.float64).max) / 3.0
        A, X = [[third], [third]], [[1e-300], [1e-300]]
        for call in (
            lambda: unconditionality_quotient(A, X, ExponentTriple.of(2, 2, 2)),
            lambda: Family.of(A),
        ):
            with pytest.raises(ValueError, match=TestOverflowingFamilies.FAMILY_ERROR):
                call()
        # at 0.4 of the largest float the column is kept, and the quotient is the exact 1.0
        fifth = [[0.6 * third], [0.6 * third]]
        assert unconditionality_quotient(fifth, X, ExponentTriple.of(2, 2, 2)).quotient == 1.0


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
        res = subset_max_norm(sylvester(1), 2)
        assert res.value == pytest.approx(2.0, rel=1e-15)
        assert res.argmax_subset == 0b11

    def test_empty_family(self):
        res = subset_max_norm(Family.of([]), 2)
        assert res.value == 0.0 and res.argmax_subset == 0

    def test_empty_family_sign_maximum(self):
        # no rows, so no row n-1 to fix: a family gives (0.0, 0), and so does each family of a stack
        q = U.Exponent.of(2)
        for shape in ((0, 0), (0, 3)):
            res = sign_max_norm(Family(np.zeros(shape)), q)
            assert (res.value, res.argmax_subset) == (0.0, 0)
            assert U._exhaustive_best(np.zeros(shape), q, True) == (0.0, 0)
        for d in (0, 3):
            for signs in (False, True):
                values, masks = U._exhaustive_best(np.zeros((4, 0, d)), q, signs)
                assert values.tolist() == [0.0] * 4 and masks.tolist() == [0] * 4

    @pytest.mark.parametrize("n", [5, 12, 40, 62, 100])
    def test_vectors_of_length_zero_at_any_size(self, n):
        # every sum is the empty vector: no table of 2^n positions is built
        q = U.Exponent.of(2)
        for signs in (False, True):
            values, masks = U._exhaustive_best(np.zeros((2, n, 0)), q, signs)
            assert values.tolist() == [0.0, 0.0] and masks.tolist() == [0, 0]
        with pytest.raises(ValueError, match="^degenerate family: denominator is zero$"):
            unconditionality_quotient(np.zeros((n, 0)), np.zeros((n, 0)), ExponentTriple.of(2, 2, 2))

    @pytest.mark.parametrize("shape", [(0, 3, 2), (0, 8, 4)], ids=["scratch", "per-family"])
    def test_empty_stack(self, shape):
        # 2^3 * 3 * 2 terms per family take the one-pass scratch route; (0, 8, 4) is past it, 2^7 * 8 * 4 even for signs
        for signs in (False, True):
            values, masks = U._exhaustive_best(np.zeros(shape), U.Exponent.of(2), signs)
            assert values.shape == masks.shape == (0,)
            assert values.dtype == np.float64 and masks.dtype == np.int64

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

    def test_exhaustive_cap(self, monkeypatch):
        # the walk's reach is the one cap
        fam = Family(np.ones((5, 40)))  # 2^5 * 5 * 40 terms: past the scratch route, so it walks
        monkeypatch.setattr(U, "WALK_MAX_LOG", 4)
        with pytest.raises(ValueError, match="past the reach"):
            subset_max_norm(fam, 2)
        monkeypatch.setattr(U, "WALK_MAX_LOG", 5)
        assert subset_max_norm(fam, 2).value == pytest.approx(5 * math.sqrt(40))

    def test_cap_messages(self, monkeypatch):
        # every exact entry point raises the kernel's reach error, and names no mode
        monkeypatch.setattr(U, "WALK_MAX_LOG", 4)
        reach = (
            "an exact maximum over 2^{} positions needs a walk past the reach of "
            "2^4 positions (branch-and-bound frontier peak 0)"
        )
        fam, signed = Family(np.ones((5, 40))), Family(np.ones((6, 40)))
        for call, log in (
            (lambda: subset_max_norm(fam, 2), 5),
            (lambda: sign_max_norm(signed, 2), 5),
            (lambda: unconditionality_quotient(fam, fam, ExponentTriple.of(2, 2, 2)), 5),
            (lambda: U._exhaustive_best(lemma_lab._planar(np.ones(8))[1], U.Exponent.of(2), False), 8),
        ):
            with pytest.raises(U.ReachError) as err:
                call()
            assert str(err.value) == reach.format(log)
        # the searches keep their own bound on the families they draw
        t = ExponentTriple.of(2, 2, 2)
        for call in (
            lambda: quotient_lower_bound_search(t, U.SEARCH_MAX_N + 1, 2, 3, 0),
            lambda: grothendieck_search(U.SEARCH_MAX_N + 1, 2, 3, 0),
        ):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == "family size 25 exceeds the exhaustive cap 24 (2^25 subsets)"

    def test_threads_bit_identical(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((17, 3))  # a narrow family: the branch and bound runs
        one = subset_max_norm(Family(X), 2.5, threads=1)
        four = subset_max_norm(Family(X), 2.5, threads=4)
        assert one.value == four.value
        assert one.argmax_subset == four.argmax_subset

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

    def test_cap(self, monkeypatch):
        # 2^4 patterns of 5 rows are within a reach of 2^4, 2^5 of 6 rows are not
        monkeypatch.setattr(U, "WALK_MAX_LOG", 4)
        assert sign_max_norm(Family(np.ones((5, 40))), 1).value == 200.0
        with pytest.raises(ValueError, match=r"over 2\^5 positions"):
            sign_max_norm(Family(np.ones((6, 40))), 1)


class TestKernel:
    """The block walk against from-scratch enumeration, across blocks, exponents and scales."""

    def test_many_blocks_match_naive_on_lattice(self):
        # d = 256 makes blocks of 2^9 positions: the subset walk spans 32
        # blocks, the sign walk 16, half of them odd (their Gray positions run
        # through the low table backwards).  A zero row makes
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

    def test_blocks_below_the_smallest_ufunc_buffer(self):
        # d > 8192 makes blocks of 8 positions, which numpy refuses as a buffer
        # size, so these walks keep the caller's buffer
        X = np.random.default_rng(151).standard_normal((5, 8200))
        assert U._block_rows(8200, 1 << 5) == 8 < U._MIN_BUFSIZE
        for signs, fn in ((False, subset_max_norm), (True, sign_max_norm)):
            got = fn(Family(X), 1)
            assert (got.value, got.argmax_subset) == sequential_scratch_max(X, 1, signs)

    def test_rows_shorter_than_the_family(self):
        # d = 1000 makes blocks of 128 positions, so every scratch recompute runs
        # with a ufunc buffer shorter than the rows it sums
        X = np.random.default_rng(157).standard_normal((12, 1000))
        assert U._block_rows(1000, 1 << 12) == 128
        for q in (1, 3):
            for signs, fn in ((False, subset_max_norm), (True, sign_max_norm)):
                got = fn(Family(X), q)
                assert (got.value, got.argmax_subset) == sequential_scratch_max(X, q, signs)

    @staticmethod
    def _buffer_sizes(mp):
        # records numpy's ufunc buffer size at each scratch recompute of a walk
        seen = []
        first_best = U._first_best

        def recording(*args):
            seen.append(np.getbufsize())
            return first_best(*args)

        mp.setattr(U, "_first_best", recording)
        return seen

    def test_walk_restores_the_callers_numpy_state(self, monkeypatch):
        # a walk of several blocks sets the ufunc buffer to one block row and
        # restores the caller's buffer size and error handling, also on error
        X = np.random.default_rng(163).standard_normal((14, 20))
        q = U.Exponent.of(1)
        rows = U._block_rows(20, 1 << 14)
        seen = self._buffer_sizes(monkeypatch)
        before = (np.getbufsize(), np.geterr())
        want = U._exhaustive_best(X, q, False)
        assert seen and set(seen) == {rows} and (np.getbufsize(), np.geterr()) == before
        with np.errstate(over="raise", under="warn"):
            np.setbufsize(4096)
            mine = (np.getbufsize(), np.geterr())
            assert U._exhaustive_best(X, q, False) == want
            assert (np.getbufsize(), np.geterr()) == mine

        def failing(*args):
            raise _Stop

        monkeypatch.setattr(U, "_first_best", failing)
        for setup in ((), (4096,)):
            with np.errstate(divide="raise"):
                if setup:
                    np.setbufsize(*setup)
                mine = (np.getbufsize(), np.geterr())
                with pytest.raises(_Stop):
                    U._exhaustive_best(X, q, False)
                assert (np.getbufsize(), np.geterr()) == mine
        assert (np.getbufsize(), np.geterr()) == before

    def test_walk_follows_the_callers_buffer_size(self, monkeypatch):
        # blocks of 8192 positions fill numpy's default buffer, so this walk keeps it;
        # under a caller's buffer of 2^14 the same walk sets one block row and restores 2^14
        X = np.random.default_rng(173).standard_normal((14, 16))
        q = U.Exponent.of(1)
        assert U._block_rows(16, 1 << 14) == 8192 == np.getbufsize()
        seen = self._buffer_sizes(monkeypatch)
        want = U._exhaustive_best(X, q, False)
        assert want == sequential_scratch_max(X, 1) and set(seen) == {8192}
        seen.clear()
        with np.errstate():
            np.setbufsize(1 << 14)
            assert U._exhaustive_best(X, q, False) == want
            assert np.getbufsize() == 1 << 14
        assert seen and set(seen) == {8192} and np.getbufsize() == 8192

    def test_one_block_walk_keeps_the_callers_buffer(self, monkeypatch):
        seen = self._buffer_sizes(monkeypatch)
        X = np.random.default_rng(167).standard_normal((10, 20))
        assert U._block_rows(20, 1 << 10) == 1 << 10
        U._exhaustive_best(X, U.Exponent.of(1), False)
        assert seen == [np.getbufsize()]


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
        # records the shape of each run's free rows (n - 1 of them for signs, whose
        # all-plus sum is always on) and whether it finished, so each test knows the route ran
        runs = []
        candidates = U._bnb_candidates

        def counting(free, *args):
            ranks, peak = candidates(free, *args)
            runs.append((free.shape, ranks is not None))
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
        assert runs == [((n, d), True), ((n - 1, d), True)]

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
        assert runs == [((18, 3), True), ((17, 3), False)]

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


class TestWalkReach:
    """No walk of more than 2^WALK_MAX_LOG positions starts; the call fails at once instead."""

    def test_fallback_past_the_reach_raises_within_a_second(self):
        fam = Family(np.random.default_rng(60).standard_normal((60, 4)))
        start = time.perf_counter()
        with pytest.raises(ValueError) as err:
            subset_max_norm(fam, 3)
        assert time.perf_counter() - start < 1.0
        match = re.fullmatch(
            r"an exact maximum over 2\^(\d+) positions needs a walk past the reach of "
            r"2\^30 positions \(branch-and-bound frontier peak (\d+)\)",
            str(err.value),
        )
        assert match and int(match[1]) == 60 and int(match[2]) > 0

    def test_wide_family_past_the_reach_raises_before_the_walk(self, monkeypatch):
        monkeypatch.setattr(U, "_low_walk", None)  # a walk would fail on this, not on the cap
        fam = Family(np.random.default_rng(31).standard_normal((32, 32)))
        with pytest.raises(ValueError, match=r"over 2\^31 positions .* frontier peak 0\)"):
            sign_max_norm(fam, 2)

    @pytest.mark.parametrize("q", [1, 3])
    def test_a_refusal_no_branch_and_bound_can_settle_scales_nothing(self, q):
        # 1024 x 1024 and 31 x 64 are too wide for the branch and bound and past 2^30 positions
        families = [sylvester(10).matrix, np.random.default_rng(64).standard_normal((31, 64))]
        refusal = r"past the reach of 2\^30 positions \(branch-and-bound frontier peak 0\)$"
        with mock.patch.object(U, "_below_one", wraps=U._below_one) as spy:
            for X in families:
                with pytest.raises(U.ReachError, match=refusal):
                    U._exhaustive_best(X, U.Exponent.of(q), False)
            assert spy.call_count == 0

    def test_huge_family_names_its_positions_as_a_power_of_two(self):
        # a decimal 2^20000 would exceed Python's int-to-str digit limit
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^an exact maximum over 2\^20000 positions needs a walk"):
            subset_max_norm(Family(np.ones((20000, 1))), 2)
        assert time.perf_counter() - start < 1.0

    def test_wide_family_past_the_work_reach_raises_within_a_second(self, monkeypatch):
        # 2^24 positions of 4096 columns is 2^36 position-columns; the 2^23 sign patterns,
        # 2^35 of them, are admitted, so that walk starts (and fails on the patched table)
        fam = Family(np.random.default_rng(24).standard_normal((24, 4096)))
        start = time.perf_counter()
        with pytest.raises(ValueError) as err:
            subset_max_norm(fam, 3)
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == (
            "an exact maximum over 2^24 positions needs a walk of 4096 columns, past the reach of "
            "2^35 positions times columns (branch-and-bound frontier peak 0)"
        )
        monkeypatch.setattr(U, "_low_walk", None)
        with pytest.raises(TypeError):
            sign_max_norm(fam, 3)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_forty_rows_are_exact(self, seed):
        # a narrow family past the searches' SEARCH_MAX_N vectors is settled by the branch and bound
        X = np.random.default_rng(seed).standard_normal((40, 3))
        for q, oracle in ((1, dual_l1_max), ("inf", column_inf_max)):
            for signs, fn in ((False, subset_max_norm), (True, sign_max_norm)):
                want = oracle(X, signs)
                got = fn(Family(X), q)
                assert got.value == pytest.approx(float(want), rel=1e-12)
                assert exact_norm(X, got.argmax_subset, q, signs) == want

    def test_a_walk_of_exactly_the_reach_runs(self, monkeypatch):
        # 2^n n d > 2048 at d = 40, so these take the walk, not the scratch route
        monkeypatch.setattr(U, "WALK_MAX_LOG", 4)
        X = np.random.default_rng(5).standard_normal((5, 40))
        for got, (value, mask) in (
            (sign_max_norm(X, 3), naive_sign_max(X, 3)),
            (subset_max_norm(X[:4], 3), naive_subset_max(X[:4], 3)),
        ):
            assert got.argmax_subset == mask and got.value == pytest.approx(value, rel=1e-12)
        with pytest.raises(ValueError, match=r"over 2\^5 positions"):
            subset_max_norm(X, 3)


_EDGE_ENTRIES = [0.0, -0.0, _TINY, -_TINY, 3 * _TINY, 2.0**-1060, 1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0, 0.1, 3.0]


def _gray_masks(n: int, signs: bool = False) -> np.ndarray:
    j = np.arange(1 << (n - 1 if signs else n))
    return j ^ (j >> 1)


class TestScratchEvaluator:
    """The one scratch evaluator gives every norm of the per-candidate cumsum formula, bit for bit."""

    EXPONENTS = [1, 1.5, 2, 3, 70, "inf"]

    @staticmethod
    def _family(rng, kind, n, d):
        if kind == "edge":
            return rng.choice(_EDGE_ENTRIES, size=(n, d))
        if kind == "lattice":
            # repeated and negated rows make exact ties
            X = rng.integers(-2, 3, size=(n, d)) * 0.1
            half = n // 2
            X[n - half :] = X[:half] * rng.choice([-1.0, 1.0], size=(half, 1))
            return X
        return rng.standard_normal((n, d)) * 10.0 ** rng.integers(-300, 300, size=(n, 1))

    @staticmethod
    def _norms(X, masks, q, signs):
        coef = U._mask_coefs(masks, X.shape[-2], signs, np.float64)
        return U._scratch_norms(X if X.ndim == 3 else X[None], coef, U.Exponent.of(q))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 62),
        d=st.integers(1, 12),
        count=st.integers(1, 40),
        q=st.sampled_from(EXPONENTS),
        signs=st.booleans(),
        kind=st.sampled_from(["normal", "edge", "lattice"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_cumsum_formula(self, n, d, count, q, signs, kind, seed):
        rng = np.random.default_rng(seed)
        X = self._family(rng, kind, n, d)
        # any masks below 2^n, so up to bit 61, the full and the empty one included
        masks = rng.integers(0, 1 << n, size=count, dtype=np.int64)
        masks[0], masks[-1] = (1 << n) - 1, 0
        got = self._norms(X, masks, q, signs)
        assert got.shape == (1, count)
        assert got[0].tobytes() == cumsum_scratch_norms(X, masks, q, signs).tobytes()

    @pytest.mark.parametrize("d", range(1, 13))
    def test_every_width(self, d):
        # both sides of the 8-entry layout rule, each kind of entry, up to bit 61
        rng = np.random.default_rng(239 + d)
        for n in (1, 7, 8, 30, 62):
            for kind in ("normal", "edge", "lattice"):
                X = self._family(rng, kind, n, d)
                masks = rng.integers(0, 1 << n, size=17, dtype=np.int64)
                masks[0] = (1 << n) - 1
                for q in self.EXPONENTS:
                    for signs in (False, True):
                        got = self._norms(X, masks, q, signs)[0]
                        assert got.tobytes() == cumsum_scratch_norms(X, masks, q, signs).tobytes()

    @pytest.mark.parametrize("q", EXPONENTS)
    @pytest.mark.parametrize("signs", [False, True])
    def test_lone_candidates_of_one_coordinate(self, q, signs):
        # at d = 1 a lone candidate's n terms are one contiguous run, which a
        # plain reduce over the rows adds pairwise from n = 8 on
        rng = np.random.default_rng(211)
        pairwise = 0
        for n in (8, 9, 13, 22, 40, 62):
            X = rng.standard_normal((n, 1)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
            for mask in rng.integers(0, 1 << n, size=12, dtype=np.int64):
                one = np.array([mask])
                want = cumsum_scratch_norms(X, one, q, signs)
                assert self._norms(X, one, q, signs)[0].tobytes() == want.tobytes()
                coef = U._mask_coefs(one, n, signs, np.float64)
                pairwise += np.add.reduce(X[:, :, None] * coef[:, None, :], axis=0)[0, 0] != np.cumsum(coef[:, 0] * X[:, 0])[-1]
        # the data reaches the trap: a plain reduce differs on some of these sums
        assert pairwise > 0

    @pytest.mark.parametrize("q", EXPONENTS)
    @pytest.mark.parametrize("d", [1, 2, 7, 8, 12])
    def test_first_best_in_chunks(self, q, d):
        # every chunk size, single candidates included, merges to the oracle's first maximum
        rng = np.random.default_rng(223 + d)
        for n in (8, 11):
            X = rng.integers(-2, 3, size=(n, d)) * 0.1 if n == 8 else rng.standard_normal((n, d))
            for signs in (False, True):
                ranks = np.arange(1 << (n - signs))
                masks = _gray_masks(n, signs)
                vals = cumsum_scratch_norms(X, masks, q, signs)
                k = int(np.argmax(vals))
                want = (float(vals[k]), int(masks[k]))
                assert want == sequential_scratch_max(X, q, signs)
                for chunk in (1, 3, ranks.size):
                    got = U._first_best(X, U.Exponent.of(q), signs, [ranks[:5], ranks[5:]], chunk, (-1.0, 0))
                    assert got == want

    @pytest.mark.parametrize("q", EXPONENTS)
    def test_stacks_in_chunks_of_families(self, q, monkeypatch):
        # a stack past _BLOCK_BYTES of terms is evaluated a few families at a time
        rng = np.random.default_rng(227)
        stack = rng.integers(-2, 3, size=(7, 5, 3)) * 0.1
        stack[1] = -stack[0]
        masks = _gray_masks(5)
        whole = self._norms(stack, masks, q, False)
        monkeypatch.setattr(U, "_BLOCK_BYTES", 2 * 8 * 5 * 3 * masks.size)
        assert self._norms(stack, masks, q, False).tobytes() == whole.tobytes()
        for k, X in enumerate(stack):
            assert whole[k].tobytes() == cumsum_scratch_norms(X, masks, q).tobytes()

    @pytest.mark.parametrize("signs", [False, True])
    def test_gray_table(self, signs):
        # column j holds the coefficients of the j-th Gray position, one read-only table per (n, signs, dtype)
        for n in range(0, 7):
            table = U._gray_coefs(n, signs, np.float64)
            free = n - 1 if signs and n else n
            want = [[(-1.0 if g >> k & 1 else 1.0) if signs else float(g >> k & 1) for g in _gray_masks(free)] for k in range(n)]
            assert table.shape == (n, 1 << free) and table.tolist() == want
            assert not table.flags.writeable and table is U._gray_coefs(n, signs, np.float64)
            assert np.array_equal(U._gray_coefs(n, signs, np.float32), table)
            assert U._gray_coefs(n, signs, np.float32).dtype == np.float32

    def test_binary64_low_table_is_the_promoted_binary32_product(self):
        # a binary64 walk reads the cached binary64 table: the same floats as
        # promoting the binary32 table on every call
        rng = np.random.default_rng(229)
        for k in range(0, U._BLOCK_MAX_LOG + 1):
            Xs = rng.standard_normal((k + 2, 9))
            got = U._low_walk(Xs, k)
            assert got.dtype == np.float64
            assert got.tobytes() == (Xs[:k].T @ U._gray_coefs(k, False, np.float32)).tobytes()


class TestTieHeavyRoutes:
    """Exact ties decided alike on every route: the first largest scratch norm in Gray order."""

    OFF = 1 << 62
    #: (route logged, thresholds that force it)
    ROUTES = [
        ("scratch", {"_SCRATCH_ALL_TERMS": OFF}),
        ("branch and bound", {"_SCRATCH_ALL_TERMS": 0, "_BNB_MIN_RATIO": 0, "_BNB_MIN_POSITIONS": 0}),
        ("walk", {"_SCRATCH_ALL_TERMS": 0, "_BNB_MIN_POSITIONS": OFF, "_GRAM_MIN_POSITIONS": OFF}),
        ("Gram walk", {"_SCRATCH_ALL_TERMS": 0, "_BNB_MIN_POSITIONS": OFF, "_GRAM_MIN_RATIO": 0, "_GRAM_MIN_POSITIONS": 0}),
    ]

    @staticmethod
    def _families():
        rng = np.random.default_rng(233)
        families = [np.eye(n) for n in (1, 2, 5, 9, 14)] + [sylvester(3).matrix.copy()]
        for shape in ((5, 3), (4, 8)):
            rows = rng.integers(-2, 3, size=shape).astype(float)
            families += [np.concatenate([rows, rows]), np.concatenate([rows, -rows[::-1]])]
        return families

    @pytest.mark.parametrize("route, thresholds", ROUTES, ids=[r for r, _ in ROUTES])
    def test_every_route_matches_sequential_scratch(self, route, thresholds, monkeypatch):
        for name, value in thresholds.items():
            monkeypatch.setattr(U, name, value)
        routes = TestBinary32Keys._routes(monkeypatch)
        exponents = [2] if route == "Gram walk" else [1, 2, 3, 40, "inf"]
        for X in self._families():
            if route == "Gram walk" and X.shape[1] < X.shape[0]:
                continue  # the factor of a narrow family is narrower than n: the route needs d >= n
            for q in exponents:
                for signs in (False, True):
                    got = U._exhaustive_best(X, U.Exponent.of(q), signs)
                    assert got == sequential_scratch_max(X, q, signs), (X.shape, q, signs)
        assert routes and {r.split(" (")[0] for r in routes} == {route}
        if route == "walk":
            assert {"walk (binary32 keys)", "walk (binary64 keys)"} <= set(routes)


class TestSignRoutes:
    """A sign maximum is a subset maximum of the rows -2 x_k with the all-plus sum always on:
    on every route it is the first largest signed sum in Gray order, added in index order."""

    @pytest.mark.parametrize("scale", [-900, 900])
    def test_every_route_matches_sequential_scratch_at_extreme_scales(self, scale, monkeypatch):
        routes = TestBinary32Keys._routes(monkeypatch)
        ties = np.zeros((18, 3))
        ties[:3] = np.eye(3)
        rng = np.random.default_rng(179)
        cases = (
            (rng.standard_normal((6, 5)), 1.5, "scratch"),
            (rng.standard_normal((17, 9)), 3, "walk (binary32 keys)"),
            (rng.standard_normal((12, 5)), 17, "walk (binary64 keys)"),
            (rng.standard_normal((13, 27)), 2, "Gram walk (binary32 keys)"),
            (rng.standard_normal((17, 3)), "inf", "branch and bound"),
            (ties, 2, "branch-and-bound fallback (binary32 keys)"),
        )
        for X, q, _ in cases:
            X = np.ldexp(X, scale)
            got = sign_max_norm(Family(X), q)
            assert (got.value, got.argmax_subset) == sequential_scratch_max(X, q, True)
        assert routes == [route for _, _, route in cases]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 6),
        d=st.integers(1, 5),
        q=st.sampled_from([1, 1.5, 2, 3, 17, 100, "inf"]),
        kind=st.sampled_from(["normal", "decimal", "zero rows", "2^900", "2^-900"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scratch_route_matches_sequential_scratch(self, n, d, q, kind, seed):
        # 2^(n-1) n d <= _SCRATCH_ALL_TERMS: every pattern is summed at once by _scratch_norms
        rng = np.random.default_rng(seed)
        if kind in ("decimal", "zero rows"):
            X = rng.integers(-3, 4, size=(n, d)) * 0.1
            if kind == "zero rows":
                X[rng.integers(0, n, size=n // 2)] = 0.0
            X[-1, 0] = 0.1
        else:
            X = np.ldexp(rng.standard_normal((n, d)), {"normal": 0, "2^900": 900, "2^-900": -900}[kind])
        with pytest.MonkeyPatch.context() as mp:
            routes = TestBinary32Keys._routes(mp)
            got = sign_max_norm(Family(X), q)
        assert routes == ["scratch"]
        assert (got.value, got.argmax_subset) == sequential_scratch_max(X, q, True)


class TestRouteLog:
    LINE =re.compile(r"exact route (.+): (\d+) positions, frontier peak (\d+), (\d+) candidates recomputed")

    def test_debug_line_names_each_route(self, caplog):
        rng = np.random.default_rng(83)
        ties = np.zeros((18, 3))
        ties[:3] = np.eye(3)
        cases = (
            (rng.standard_normal((4, 2)), False, "scratch", 16),
            (rng.standard_normal((12, 8)), False, "walk (binary32 keys)", 4096),
            (rng.standard_normal((12, 8)), False, "walk (binary64 keys)", 4096),
            (rng.standard_normal((12, 24)), False, "Gram walk (binary32 keys)", 4096),
            (rng.standard_normal((16, 4)), True, "branch and bound", 32768),
            (ties, True, "branch-and-bound fallback (binary32 keys)", 131072),
        )
        for X, signs, route, positions in cases:
            caplog.clear()
            # keys are binary64 only above _BINARY32_MAX_Q
            q = 17 if "binary64" in route else 2
            with caplog.at_level(logging.DEBUG, logger=U.logger.name):
                U._exhaustive_best(X, U.Exponent.of(q), signs)
            [record] = caplog.records
            name, seen, peak, recomputed = self.LINE.fullmatch(record.getMessage()).groups()
            assert (name, int(seen)) == (route, positions)
            assert (int(peak) > 0) == route.startswith("branch")
            assert 1 <= int(recomputed) <= positions

    def test_pinned_frontiers_and_candidates(self, caplog):
        # frontier peaks and candidate counts of three narrow families and three
        # wide ones, pinned at the binary64 slack of the branch and bound and the
        # binary32 slacks of the walks: a looser floor keeps more nodes, a
        # tighter one can lose the first maximum.  The last two walk four
        # blocks of 2^12 positions; in the lattice one a zero row ties each
        # subset with a partner in its block, and the first maximum lies in
        # block 1, whose Gray positions run through the low table backwards.
        rng = np.random.default_rng(109)
        ties = np.random.default_rng(3).integers(-1, 2, size=(14, 20)).astype(float)
        ties[3] = 0.0
        cases = (
            (rng.standard_normal((17, 4)), 2, False),
            (rng.integers(-3, 4, size=(18, 3)) * 0.1, 1, True),
            (rng.integers(-3, 4, size=(16, 6)) * 0.1, 3, True),
            (rng.integers(-3, 4, size=(13, 40)) * 0.1, 2, False),
            (rng.standard_normal((14, 20)), 1, False),
            (ties, 1, False),
        )
        lines = []
        for X, q, signs in cases:
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger=U.logger.name):
                got = U._exhaustive_best(X, U.Exponent.of(q), signs)
            [record] = caplog.records
            lines.append(record.getMessage())
        assert got == sequential_scratch_max(ties, 1)
        rank = got[1]
        for step in (1, 2, 4, 8):
            rank ^= rank >> step
        assert U._block_rows(20, 1 << 14) == 1 << 12 and rank >> 12 == 1
        assert lines == [
            "exact route branch and bound: 131072 positions, frontier peak 26, 1 candidates recomputed",
            "exact route branch and bound: 131072 positions, frontier peak 239, 10 candidates recomputed",
            "exact route branch and bound: 32768 positions, frontier peak 26, 1 candidates recomputed",
            "exact route Gram walk (binary32 keys): 8192 positions, frontier peak 0, 1 candidates recomputed",
            "exact route walk (binary32 keys): 16384 positions, frontier peak 0, 1 candidates recomputed",
            "exact route walk (binary32 keys): 16384 positions, frontier peak 0, 2 candidates recomputed",
        ]

    def test_a_stack_counts_the_positions_of_every_family(self, caplog):
        # one scratch pass over 5 tiny families logs one line of 5 * 2^free positions;
        # a stack past the scratch route logs each family's own line
        rng = np.random.default_rng(97)
        q = U.Exponent.of(2)
        for stack, signs, want in (
            (rng.standard_normal((5, 4, 2)), False, ["scratch: 80 positions, frontier peak 0, 80"]),
            (rng.standard_normal((5, 4, 2)), True, ["scratch: 40 positions, frontier peak 0, 40"]),
            (rng.standard_normal((2, 12, 8)), False, ["walk (binary32 keys): 4096 positions, frontier peak 0, 1"] * 2),
        ):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger=U.logger.name):
                U._exhaustive_best(stack, q, signs)
            lines = [r.getMessage() for r in caplog.records]
            assert lines == [f"exact route {w} candidates recomputed" for w in want]

    def test_off_by_default(self, caplog):
        U._exhaustive_best(np.random.default_rng(89).standard_normal((16, 4)), U.Exponent.of(2), False)
        assert not U.logger.isEnabledFor(logging.DEBUG)
        assert caplog.records == []


class TestBinary32Keys:
    """Walks rank positions by binary32 keys and recompute every candidate in binary64."""

    @staticmethod
    def _routes(mp):
        # records each walk's route name, so each test knows which walk ran
        routes = []
        mp.setattr(U, "_log_route", lambda route, *counts: routes.append(route))
        return routes

    @staticmethod
    def _candidates(mp):
        # records the mask of every candidate _first_best recomputes
        seen = set()
        first_best = U._first_best

        def recording(*args):
            # args[3] holds the Gray ranks of the candidates
            seen.update(int(p ^ (p >> 1)) for part in args[3] for p in part)
            return first_best(*args)

        mp.setattr(U, "_first_best", recording)
        return seen

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        gram=st.booleans(),
        q=st.sampled_from([1, 1.5, 3, 16, 17, 40, 100, "inf"]),
        kind=st.sampled_from(["normal", "lattice", "decimal", "2^600", "2^-600", "mixed"]),
        n=st.integers(9, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_walks_match_sequential_scratch(self, gram, q, kind, n, seed):
        # both walks, q on both sides of _BINARY32_MAX_Q = 16 and of
        # _POWER_MAX_Q = 64, q = inf, and families whose scaled entries span
        # binary32's whole exponent range; multiples of 0.1 make near ties
        # that binary32 keys order wrongly
        rng = np.random.default_rng(seed)
        d = n + int(rng.integers(1, 2 * n)) if gram else int(rng.integers(1, 2 * n))
        if kind in ("lattice", "decimal"):
            X = rng.integers(-1, 2, size=(n, d)).astype(float)
            X[0, 0] = 1.0
            if kind == "decimal":
                X *= rng.integers(1, 4, size=(n, d)) * 0.1
        elif kind == "mixed":
            X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-30.0, 0.0, size=(n, d))
        else:
            X = np.ldexp(rng.standard_normal((n, d)), {"normal": 0, "2^600": 600, "2^-600": -600}[kind])
        q = 2 if gram else q
        if gram:
            want_route = "Gram walk (binary32 keys)"
        elif q == "inf" or q <= U._BINARY32_MAX_Q:
            want_route = "walk (binary32 keys)"
        else:
            want_route = "walk (binary64 keys)"
        with pytest.MonkeyPatch.context() as mp:
            if gram:
                mp.setattr(U, "_GRAM_MIN_RATIO", 0)
                mp.setattr(U, "_GRAM_MIN_POSITIONS", 0)
            routes = self._routes(mp)
            for signs in (False, True):
                got = U._exhaustive_best(X, U.Exponent.of(q), signs)
                assert got == sequential_scratch_max(X, q, signs)
        assert routes == [want_route, want_route]

    @pytest.mark.parametrize(
        "q, d, route",
        [(1, 20, "walk (binary32 keys)"), (3, 20, "walk (binary32 keys)"), (2, 120, "Gram walk (binary32 keys)")],
    )
    def test_near_tie_below_binary32_resolution_is_recomputed(self, q, d, route, monkeypatch):
        # the last row is -1e-9 times the best subset sum S of the others, so
        # adding it to that subset lowers the key by about 1e-9 of it: below
        # binary32's resolution, so only the binary64 recompute tells the two
        # apart, and the later one in Gray order must still be a candidate
        routes = self._routes(monkeypatch)
        seen = self._candidates(monkeypatch)
        X = np.random.default_rng(137).standard_normal((13, d))
        mask = sequential_scratch_max(X[:12], q)[1]
        X[12] = -1e-9 * scratch_sum(X[:12], mask)
        got = U._exhaustive_best(X, U.Exponent.of(q), False)
        assert routes == [route]
        assert {mask, mask | 1 << 12} <= seen
        assert got == sequential_scratch_max(X, q) and got[1] == mask

    @pytest.mark.parametrize(
        "shape, q, signs",
        [((16, 64), 3, False), ((18, 20), 1, False), ((18, 18), 1, True)],
    )
    def test_few_candidates_on_normal_families(self, shape, q, signs, caplog):
        # the binary32 slack is about 1e-3; a floor that loose must still leave
        # only the near-maximal positions to recompute, or the walk gains nothing
        X = np.random.default_rng(139).standard_normal(shape)
        with caplog.at_level(logging.DEBUG, logger=U.logger.name):
            U._exhaustive_best(X, U.Exponent.of(q), signs)
        [record] = caplog.records
        name, _, _, recomputed = TestRouteLog.LINE.fullmatch(record.getMessage()).groups()
        assert name == "walk (binary32 keys)"
        assert 1 <= int(recomputed) <= 4

    @pytest.mark.parametrize("q", [1, 1.5, 2, 3, 16, 17, 100, "inf"])
    def test_default_slack_is_binary64(self, q):
        # the branch and bound and the flip screen prune at this slack: eps = 2^-52, written out
        e = U.Exponent.of(q)
        power = 1.0 if q == "inf" or q > U._POWER_MAX_Q else float(q)
        for n, d in ((16, 4), (18, 3), (11, 10)):
            assert U._slack(e, n, d) == 4.0 * power * (2.0 * (2 * n + d + 2) * 2.0**-52 * d**e.reciprocal)
            assert U._slack(e, n, d, U._U32) == U._slack(e, n, d) * 2.0**29


class TestQuotient:
    def test_hadamard_pair(self):
        fam = sylvester(1)
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


class TestTwoKInequality:
    """The 2K inequality behind the Preserves clause p in [1, 2], q <= r, read off the quotient evaluator."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 7),
        d=st.integers(1, 7),
        lattice=st.booleans(),
        p=st.floats(1.0, 2.0),
        q=st.one_of(st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]), st.floats(1.0, 6.0)),
        r_past_q=st.one_of(st.just(math.inf), st.floats(0.0, 4.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_nested_clause_quotients_stay_under_the_2_q_q_quotient(self, n, d, lattice, p, q, r_past_q, seed):
        # ||v||_r <= ||v||_q for r >= q and max ||a_k||_p >= max ||a_k||_2 for p <= 2, so the
        # quotient at (2, q, q) bounds every nested-clause quotient, and 2 K_G bounds it
        rng = np.random.default_rng(seed)
        if lattice:
            A, X = (rng.integers(-1, 2, (n, d)).astype(float) for _ in range(2))
        else:
            A, X = rng.standard_normal((n, d)), rng.standard_normal((n, d))
        assume(A.any() and X.any())  # an all-zero family has a zero denominator
        got = unconditionality_quotient(Family(A), Family(X), ExponentTriple.of(p, q, q + r_past_q)).quotient
        bound = unconditionality_quotient(Family(A), Family(X), ExponentTriple.of(2, q, q)).quotient
        if bound == 0.0:
            assert got == 0.0
        else:
            assert got <= bound + 4 * math.ulp(bound)
        assert bound <= 2 * KG_UPPER * (1 + EPS_NUM)


class TestOverflowingFamilies:
    """Families whose subset or signed sums could overflow binary64 are rejected up front."""

    QUARTER = float(np.finfo(np.float64).max) / 4.0
    FAMILY_ERROR = (
        "^family entries too large: a column's absolute sum exceeds half the "
        "largest binary64 value, so subset sums could overflow$"
    )

    @staticmethod
    def _shapes():
        # one family per route at q = 2 or 17, as in TestRouteLog
        rng = np.random.default_rng(151)
        ties = np.zeros((18, 3))
        ties[:3] = np.eye(3)
        return (
            (rng.standard_normal((5, 2)), 2, False, "scratch"),
            (rng.standard_normal((12, 8)), 2, False, "walk (binary32 keys)"),
            (rng.standard_normal((12, 8)), 17, False, "walk (binary64 keys)"),
            (rng.standard_normal((12, 24)), 2, False, "Gram walk (binary32 keys)"),
            (rng.standard_normal((16, 4)), 2, False, "branch and bound"),
            (rng.standard_normal((16, 8)), 2, True, "branch and bound"),
            (ties, 2, True, "branch-and-bound fallback (binary32 keys)"),
        )

    def test_every_route_rejects_before_enumerating(self, monkeypatch, caplog):
        for X, q, signs, route in self._shapes():
            # unchanged, the family takes the route it is named for
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger=U.logger.name):
                (sign_max_norm if signs else subset_max_norm)(Family(X), q)
            assert TestRouteLog.LINE.fullmatch(caplog.records[-1].getMessage())[1] == route
        monkeypatch.setattr(U, "_exhaustive_best", lambda *a, **k: pytest.fail("enumerated"))
        for X, q, _, _ in self._shapes():
            big = X.copy()
            # column 0 sums to n/4 of the largest float, above half of it for n >= 3
            big[:, 0] = self.QUARTER
            for call in (
                lambda: subset_max_norm(Family(big), q),
                lambda: sign_max_norm(Family(big), q),
                lambda: unconditionality_quotient(Family(X), Family(big), ExponentTriple.of(2, q, 2)),
            ):
                with pytest.raises(ValueError, match=self.FAMILY_ERROR):
                    call()

    def test_a_family_below_the_bound_is_kept(self):
        # column 0 sums to about 0.45 of the largest float: every sum stays finite
        X = np.random.default_rng(157).standard_normal((12, 1))
        X[3, 0] = 1.8 * self.QUARTER
        for signs, fn in ((False, subset_max_norm), (True, sign_max_norm)):
            got = fn(Family(X), 2)
            assert (got.value, got.argmax_subset) == sequential_scratch_max(X, 2, signs)
            assert math.isfinite(got.value) and got.value > 0.0

    def test_an_overflowing_maximum_raises(self):
        # column sums 0.45 of the largest float are admitted, but at q = 1 and 2 the
        # full subset's norm overflows; a numpy overflow warning would fail the suite
        X = np.full((16, 8), 1.8 * self.QUARTER / 16)
        for q in (1, 2):
            for call in (
                lambda: subset_max_norm(Family(X), q),
                lambda: sign_max_norm(Family(X), q),
            ):
                with pytest.raises(ValueError, match=r"^the maximum norm overflows binary64: inf$"):
                    call()
            # the quotient takes the subset max as a part, and names the parts that overflow
            with pytest.raises(ValueError, match=r"^quotient overflows binary64: numerator nan, denominator inf$"):
                unconditionality_quotient(Family(X), Family(X), ExponentTriple.of(2, q, 2))
            with pytest.raises(ValueError, match=r"^quotient overflows binary64: numerator 228808981\.\d+, denominator inf$"):
                unconditionality_quotient(Family(np.full((16, 8), 1e-300)), Family(X), ExponentTriple.of(2, q, 2))
        got = subset_max_norm(Family(X), "inf")
        assert (got.value, got.argmax_subset) == sequential_scratch_max(X, "inf", False)

    def test_complex_and_sign_ratio_entry_points_reject(self, monkeypatch):
        monkeypatch.setattr(lemma_lab, "_exhaustive_best", lambda *a, **k: pytest.fail("enumerated"))
        z = np.full(16, 1.0 + 0.5j)
        # the entries are rejected before the kernel is asked, at a lowered reach and at the default one
        for reach in (8, 30):
            monkeypatch.setattr(U, "WALK_MAX_LOG", reach)
            for column in (z.real, z.imag):
                column[:] = self.QUARTER
                for call in (
                    lambda: lemma_lab._exhaustive_best(lemma_lab._planar(z)[1], U.Exponent.of(2), False),
                    lambda: lemma_lab.complex_subset_ratio(z),
                    lambda: lemma_lab._halfplane_max(lemma_lab._planar(z)[0]),
                ):
                    with pytest.raises(ValueError, match=self.FAMILY_ERROR):
                        call()
                column[:] = 1.0
            # 30 moduli of 1e307 sum past the largest float; this gave ratio nan on the arc scan
            with pytest.raises(ValueError, match=self.FAMILY_ERROR):
                lemma_lab.complex_subset_ratio(np.full(30, 1e307))
        with pytest.raises(ValueError, match=self.FAMILY_ERROR):
            lemma_lab.grothendieck_ratio(np.full((16, 8), self.QUARTER))

    def test_overflowing_quotient_parts_raise(self):
        big = 1e200
        # the numerator ||a x||_1 overflows, and so does the denominator
        with pytest.raises(ValueError, match=r"^quotient overflows binary64: numerator inf, denominator inf$"):
            unconditionality_quotient([[big, 0.0]], [[big, 0.0]], ExponentTriple.of(2, 2, 1))
        # at r = 2 the overflowing product norm is nan
        with pytest.raises(ValueError, match=r"^quotient overflows binary64: numerator nan, denominator inf$"):
            unconditionality_quotient([[big, 0.0]], [[big, 0.0]], ExponentTriple.of(2, 2, 2))
        # the numerator is 0 but max ||a_k||_2 times the subset max overflows
        with pytest.raises(ValueError, match=r"^quotient overflows binary64: numerator 0\.0, denominator inf$"):
            unconditionality_quotient([[big, 0.0]], [[0.0, big]], ExponentTriple.of(2, 2, 2))


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


class TestSearchArguments:
    @pytest.mark.parametrize("n, dim, budget, search_max_n", [
        (2, 2, 0, 24), (0, 2, 3, 24), (2, 0, 3, 24), (5, 2, 3, 4),
        (2, U.DRAW_MAX_ENTRIES // 2 + 1, 3, 24), (3, 10**9, 1, 24),
    ])
    def test_both_searches_raise_the_same_error(self, n, dim, budget, search_max_n, monkeypatch):
        monkeypatch.setattr(U, "SEARCH_MAX_N", search_max_n)
        with pytest.raises(ValueError) as quotient_err:
            quotient_lower_bound_search(ExponentTriple.of(2, 2, 2), n, dim, budget, 0)
        with pytest.raises(ValueError) as sign_err:
            grothendieck_search(n, dim, budget, 0)
        assert str(quotient_err.value) == str(sign_err.value)


class _Stop(Exception):
    pass


class TestTrialSeeds:
    """Trial k's generator is spawn(budget)[k]'s, made only when trial k starts."""

    @pytest.mark.parametrize("seed", [0, 7, 2**40, [1, 2]], ids=str)
    def test_first_trials_match_spawn(self, seed):
        rngs = list(U._trial_rngs(seed, 64))
        children = np.random.SeedSequence(seed).spawn(64)
        assert len(rngs) == 64
        for rng, child in zip(rngs, children):
            assert rng.bit_generator.state == np.random.default_rng(child).bit_generator.state

    def test_unseeded_trials_share_one_root(self):
        rngs = list(U._trial_rngs(None, 64))
        seqs = [rng.bit_generator.seed_seq for rng in rngs]
        assert len({ss.entropy for ss in seqs}) == 1
        children = np.random.SeedSequence(seqs[0].entropy).spawn(64)
        for rng, child in zip(rngs, children):
            assert rng.bit_generator.state == np.random.default_rng(child).bit_generator.state

    @staticmethod
    def _peak_bytes_until_stop(run):
        """Peak traced allocation of ``run()``, which must raise _Stop."""
        tracemalloc.start()
        try:
            with pytest.raises(_Stop):
                run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_restarts_with_a_large_budget_cost_nothing_up_front(self):
        calls = []

        def climb(arrays, best):
            calls.append(arrays)
            if len(calls) == 3:
                raise _Stop
            return (float(len(calls)),)

        def run():
            U._seeded_restarts(2, 2, 10**5, 0, lambda rng, lattice: rng.standard_normal((2, 2)), climb)

        assert self._peak_bytes_until_stop(run) < 1 << 20


def _result_bits(res) -> tuple:
    return (res.quotient.hex(), res.numerator.hex(), res.denominator.hex(), res.subset.argmax_subset)


class TestStackedRestarts:
    """A block of restart draws scored in one stacked pass gives the per-draw loop's result, bit for bit."""

    TRIPLES = [(3, 3, 3), (2, 2, 4), ("inf", 2, 2), (1.5, 2, "inf"), (4, 4, 4)]
    BUDGETS = (1, 2, 8, 33)
    #: shapes of n * dim >= SLOW_ENTRIES, whose searches take a tenth of a second
    #: or more, run on every tenth seed
    SLOW_ENTRIES = 24

    @staticmethod
    def _check(want, t, n, dim, budget, seed):
        if want is None:
            with pytest.raises(ValueError, match="^search drew only degenerate families; increase the budget$"):
                quotient_lower_bound_search(t, n, dim, budget, seed)
        else:
            assert _result_bits(quotient_lower_bound_search(t, n, dim, budget, seed)) == _result_bits(want)

    @pytest.mark.parametrize("dim", [1, 4, 7, 8])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
    def test_blocks_match_the_per_draw_loop(self, n, dim, monkeypatch):
        for seed in range(0, 30, 10 if n * dim >= self.SLOW_ENTRIES else 1):
            t = ExponentTriple.of(*self.TRIPLES[seed % len(self.TRIPLES)])
            want = per_draw_quotient_bests(t, n, dim, max(self.BUDGETS), seed)
            for budget in self.BUDGETS:
                self._check(want[budget - 1], t, n, dim, budget, seed)
            with monkeypatch.context() as patch:
                # four trials per block, so budget 9 runs as blocks of 4, 4 and 1; climb
                # batches and scratch stacks are split into chunks as well
                patch.setattr(U, "_BLOCK_BYTES", 16 * n * dim * 4)
                self._check(want[8], t, n, dim, 9, seed)

    def test_all_degenerate_draws_raise(self):
        # a 1 x 1 lattice draw is degenerate unless both entries are nonzero
        t = ExponentTriple.of(2, 2, 2)
        degenerate = [seed for seed in range(30) if per_draw_quotient_bests(t, 1, 1, 1, seed) == [None]]
        assert degenerate
        for seed in degenerate:
            self._check(None, t, 1, 1, 1, seed)

    def test_one_stacked_score_per_block(self, monkeypatch):
        calls = []
        parts = U._quotient_parts

        def counted(A, X, t, a_max=None, sub=None):
            if a_max is None and sub is None:
                calls.append(len(A))
            return parts(A, X, t, a_max, sub)

        monkeypatch.setattr(U, "_quotient_parts", counted)
        t = ExponentTriple.of(3, 3, 3)
        quotient_lower_bound_search(t, 3, 4, 8, 0)
        assert calls == [8]
        calls.clear()
        quotient_lower_bound_search(t, 3, 4, 2 * U._RESTART_BLOCK + 1, 0)
        assert calls == [U._RESTART_BLOCK, U._RESTART_BLOCK, 1]
        calls.clear()
        # three trials' draws per block
        monkeypatch.setattr(U, "_BLOCK_BYTES", 16 * 3 * 4 * 3)
        quotient_lower_bound_search(t, 3, 4, 8, 0)
        assert calls == [3, 3, 2]


class TestIntegerSearchArguments:
    """n, dim and budget must be integers; numpy integers are accepted."""

    @pytest.mark.parametrize("n, dim, budget, name, value", [
        (3, 4, 2.5, "budget", 2.5),
        (3.0, 4, 2, "n", 3.0),
        (3, "4", 2, "dim", "4"),
        (3, 4, None, "budget", None),
        (2, 4.0, 1, "dim", 4.0),
    ])
    def test_non_integers_are_named(self, n, dim, budget, name, value):
        with pytest.raises(ValueError) as err:
            quotient_lower_bound_search(ExponentTriple.of(2, 2, 2), n, dim, budget, 0)
        assert str(err.value) == f"{name} must be an integer >= 1, got {value!r}"

    def test_checked_before_anything_is_drawn(self, monkeypatch):
        monkeypatch.setattr(U, "_trial_rngs", mock.Mock(side_effect=AssertionError("drew")))
        with pytest.raises(ValueError, match="^n must be an integer"):
            quotient_lower_bound_search(ExponentTriple.of(2, 2, 2), 2.0, 2, 1, 0)

    def test_numpy_integers_accepted(self):
        t = ExponentTriple.of(2, 2, 2)
        want = quotient_lower_bound_search(t, 3, 4, 2, 0)
        got = quotient_lower_bound_search(t, np.int64(3), np.int32(4), np.uint8(2), 0)
        assert _result_bits(got) == _result_bits(want)


class TestClimbBatchBytes:
    def test_batch_stacks_are_bounded(self):
        # one 1 x 512 draw: its 1024 moved copies once held 4 MB per batch, and 20 MB at peak
        t = ExponentTriple.of(2, 2, 2)
        tracemalloc.start()
        try:
            res = quotient_lower_bound_search(t, 1, 512, 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * U._BLOCK_BYTES
        assert res.quotient.hex() == "0x1.6c97a77cd508cp-5"


class TestQuotientSearch:
    def test_rediscovers_hadamard_level(self):
        t = ExponentTriple.of("inf", 2, 2)
        res = quotient_lower_bound_search(t, 2, 2, budget=60, seed=2024)
        assert res.quotient >= SQRT2 - 1e-9

    def test_empty_budget(self):
        with pytest.raises(ValueError, match=r"^budget must be an integer >= 1, got 0$"):
            quotient_lower_bound_search(ExponentTriple.of(2, 2, 2), 2, 2, budget=0, seed=0)

    def test_bad_seed_is_named(self):
        # numpy raised TypeError for 1.5 and "expected non-negative integer" for -1
        t = ExponentTriple.of(2, 2, 2)
        for seed in (-1, 1.5, np.int64(-2), "3"):
            with pytest.raises(ValueError) as err:
                quotient_lower_bound_search(t, 2, 2, 1, seed)
            assert str(err.value) == f"seed must be an integer >= 0, got {seed!r}"
        for seed in (None, 0, np.int64(5)):
            assert quotient_lower_bound_search(t, 2, 2, 1, seed).quotient > 0.0

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


def r_inf_allowance(n: int, d: int) -> float:
    """The largest computed quotient at r = inf that C <= 2 admits, for n rows of length d.

    In exact arithmetic every quotient at r = inf is at most 2: coordinate j
    gives |sum_k a_kj x_kj| <= max_k ||a_k||_p sum_k |x_kj|, and
    sum_k |x_kj| <= 2 max_F |sum_F x_kj| <= 2 S, for S the exact subset max.
    In binary64 (u = 2^-53) the numerator is at most 1 + (n + 1) u times
    its exact bound, and each computed ||a_k||_p at least 1 - (d + 7) u
    times its own.  A scratch sum is within gamma_n sum_k |x_kj| <= 2 gamma_n S
    of its subset's exact sum in coordinate j, so the reported maximum, at
    least the computed norm of the exact maximizer's sum, is at least
    1 - (2dn + d + 7) u times S.  The product and the division round once
    each.  To first order the quotient exceeds 2 by a relative
    (2dn + n + 2d + 17) u at most; 4 (n + 2)(d + 2) u covers that and the
    second-order terms.
    """
    return 2.0 * (1.0 + 4 * (n + 2) * (d + 2) * (np.finfo(np.float64).eps / 2))


class TestQuotientAtRInfinity:
    """Every quotient at r = inf is at most 2, up to ``r_inf_allowance``."""

    EXPONENTS = (1, 1.5, 2, 3, "inf")

    def test_the_bound_is_sharp(self):
        fam = Family.of([[1.0], [-1.0]])
        for p in self.EXPONENTS:
            for q in self.EXPONENTS:
                assert unconditionality_quotient(fam, fam, ExponentTriple.of(p, q, "inf")).quotient == 2.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 6),
        d=st.integers(1, 5),
        p=st.sampled_from(EXPONENTS),
        q=st.sampled_from(EXPONENTS),
        lattice=st.booleans(),
        shared=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_quotients(self, n, d, p, q, lattice, shared, seed):
        rng = np.random.default_rng(seed)
        A, X = (
            rng.integers(-1, 2, size=(2, n, d)).astype(np.float64) if lattice else rng.standard_normal((2, n, d))
        )
        if shared:
            A = X
        if not (A.any() and X.any()):
            return  # a zero family is degenerate: its denominator vanishes
        res = unconditionality_quotient(A, X, ExponentTriple.of(p, q, "inf"))
        assert res.quotient <= r_inf_allowance(n, d)

    @pytest.mark.parametrize("triple", [("inf", "inf", "inf"), (3, 3, "inf"), (1.5, 2, "inf"), (1, "inf", "inf")], ids=str)
    def test_searches(self, triple):
        t = ExponentTriple.of(*triple)
        for seed in range(4):
            assert quotient_lower_bound_search(t, 4, 4, 8, seed).quotient <= r_inf_allowance(4, 4)

    def test_the_largest_seen_lies_within_the_allowance(self):
        # `uncond search --p inf --q inf --r inf --n 6 --dim 6 --budget 24 --seed 3` rounds one ulp past 2
        res = quotient_lower_bound_search(ExponentTriple.of("inf", "inf", "inf"), 6, 6, 24, 3)
        assert res.quotient == 2.0000000000000004
        assert res.quotient <= r_inf_allowance(6, 6)


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
    def test_scratch_route_matches_the_sequential_oracle(self, q, monkeypatch):
        # lattice families with zero, repeated and negated rows tie often; a
        # tiny stack or family, subsets or signs, is one _scratch_norms pass
        # and never reaches _first_best.  The last stack (n = 7, d = 4) is past
        # the scratch route for subsets, so each family walks alone, and tiny
        # for its 2^6 sign patterns.
        q = U.Exponent.of(q)
        rng = np.random.default_rng(61)
        ranked = []
        first_best = U._first_best
        monkeypatch.setattr(U, "_first_best", lambda *args: ranked.append(args) or first_best(*args))
        for trial in range(41):
            n, dim = (7, 4) if trial == 40 else (int(rng.integers(1, 7)), int(rng.integers(1, 5)))
            stack = rng.integers(-2, 3, (3, n, dim)) * 0.1
            stack[0, rng.integers(0, n)] = 0.0
            stack[1, -1] = -stack[1, 0]
            for signs in (False, True):
                values, masks = U._exhaustive_best(stack, q, signs)
                for k, X in enumerate(stack):
                    assert (values[k], masks[k]) == sequential_scratch_max(X, q, signs)
                    assert U._exhaustive_best(X, q, signs) == sequential_scratch_max(X, q, signs)
                tiny = (1 << (n - signs)) * n * dim <= U._SCRATCH_ALL_TERMS
                assert tiny == ((n, dim) != (7, 4) or signs)
                assert bool(ranked) == (not tiny)
                ranked.clear()


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
        assert line == "refinement: 3 sweeps, 36 batches, 288 moves scored, 33 kept"
        # one batch per row visit: 3 sweeps x 2 scales x 2 families x 3 rows, and
        # every move scored is one the public oracle evaluates
        sweeps, batches, scored = (int(w) for w in re.findall(r"\d+", line)[:3])
        assert batches == sweeps * 4 * A.shape[0]
        evaluations = []
        real = _oracles._public_quotient_or_none
        monkeypatch.setattr(_oracles, "_public_quotient_or_none", lambda *a: evaluations.append(1) or real(*a))
        public_refine(A, X, t, unconditionality_quotient(Family(A), Family(X), t))
        assert len(evaluations) == scored

    def test_no_line_by_default(self, caplog):
        t = ExponentTriple.of(3, 3, 3)
        A = X = np.eye(2)
        U._refine_families(A.copy(), X.copy(), t, U._quotient_parts(A, X, t))
        assert caplog.records == []


class TestClimbProperties:
    """Each kept move is the first best of its batch, the held quotient never falls, and the climb is the oracle's."""

    @staticmethod
    def _recorded_refine(A, X, t, start):
        """``_refine_families`` on copies of A and X, with each batch's held score, scores and kept move."""
        batches = []
        ascent = U._coordinate_ascent

        def recording(best, moves, evaluate, sweeps, name):
            def scored(M, i, cols, deltas, cur):
                scores, pick = evaluate(M, i, cols, deltas, cur)
                batch = {"held": cur[0], "scores": list(scores), "kept": None}
                batches.append(batch)

                def kept(k):
                    batch["kept"] = k
                    return pick(k)

                return scores, kept

            return ascent(best, moves, scored, sweeps, name)

        got_A, got_X = A.copy(), X.copy()
        with mock.patch.object(U, "_coordinate_ascent", recording):
            got = U._refine_families(got_A, got_X, t, start)
        return got_A, got_X, got, batches

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 5),
        dim=st.integers(1, 4),
        lattice=st.booleans(),
        triple=st.sampled_from(SEARCH_TRIPLES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kept_moves_are_first_maxima_and_match_the_oracle(self, n, dim, lattice, triple, seed):
        t = ExponentTriple.of(*triple)
        rng = np.random.default_rng(seed)
        if lattice:
            A, X = (rng.integers(-1, 2, (n, dim)).astype(float) for _ in range(2))
        else:
            A, X = rng.standard_normal((n, dim)), rng.standard_normal((n, dim))
        start = U._quotient_parts(A, X, t)
        assume(start is not None)
        got_A, got_X, got, batches = self._recorded_refine(A, X, t, start)
        assert len(batches) % (4 * n) == 0
        held = start.quotient
        for batch in batches:
            # every batch is scored from the entries the last kept move left
            assert batch["held"] == held
            scores, k = batch["scores"], batch["kept"]
            top = max(scores)
            if k is None:
                assert not top > held
            else:
                assert scores[k] == top > held
                assert all(s < top for s in scores[:k])
                held = top
        assert got.quotient == held >= start.quotient
        want_A, want_X, want = public_refine(A, X, t, unconditionality_quotient(Family(A), Family(X), t))
        assert (got.quotient, got.numerator, got.denominator) == _parts(want)[:3]
        assert got.sub == (want.subset.value, want.subset.argmax_subset)
        assert np.array_equal(got_A, want_A) and np.array_equal(got_X, want_X)


class TestPairedShapes:
    def test_shape_mismatches_rejected(self):
        t = ExponentTriple.of(2, 2, 2)
        with pytest.raises(ValueError, match="same size"):
            unconditionality_quotient([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], t)
        with pytest.raises(ValueError, match="share the ambient length"):
            unconditionality_quotient([[1.0, 0.0]], [[1.0, 0.0, 0.0]], t)
