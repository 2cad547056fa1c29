import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uncond import witness
from uncond.seqspace import EPS_CMP, ExponentTriple
from uncond.unconditionality import subset_max_norm, unconditionality_quotient
from uncond.witness import (
    MATERIALIZE_MAX_LOG,
    TAIL_MAX_TERMS,
    WITNESS_MAX_LOG,
    _harmonic,
    hadamard_witness,
    second_clause_gap,
    witness_size,
    divergent_tail_norm,
    sylvester,
    tail_q_bound,
    tail_witness,
)

from _oracles import (
    harmonic_crossing,
    harmonic_sum,
    harmonic_ulps,
    minimal_witness_n,
    power_tail_norm,
    sylvester_entries,
)

SQRT2 = math.sqrt(2.0)


class TestSylvester:
    def test_base_case(self):
        H = sylvester(0)
        assert H.matrix.tolist() == [[1]]

    def test_one_doubling(self):
        H = sylvester(1)
        assert H.matrix.tolist() == [[1, 1], [1, -1]]

    def test_column_sums_concentrate(self):
        H = sylvester(2)
        col_sums = H.matrix.astype(int).sum(axis=0)
        assert col_sums.tolist() == [4, 0, 0, 0]

    def test_first_row_and_column_all_ones(self):
        for n in range(0, 7):
            H = sylvester(n).matrix
            assert np.all(H[0] == 1)
            assert np.all(H[:, 0] == 1)

    def test_exact_orthogonality_and_entries(self):
        for n in range(0, 11):
            H = sylvester(n)
            E = H.matrix.astype(np.int64)
            gram = E @ E.T
            assert np.array_equal(gram, (1 << n) * np.eye(1 << n, dtype=np.int64))
            assert set(np.unique(E)) <= {-1, 1}
            # sum of all rows is 2^n times the first coordinate vector
            total = E.sum(axis=0)
            assert total[0] == 1 << n and np.all(total[1:] == 0)

    def test_size_cap(self):
        with pytest.raises(ValueError, match=r"\[0, 10\]"):
            sylvester(11)
        with pytest.raises(ValueError, match=r"\[0, 10\]"):
            sylvester(-1)

    def test_one_shared_family_per_n(self):
        fams = [sylvester(n) for n in range(MATERIALIZE_MAX_LOG + 1)]
        for n, fam in enumerate(fams):
            assert sylvester(n) is fam
            assert sylvester(np.int64(n)) is fam
            assert not fam.matrix.flags.writeable
        # the memory bound of the module docstring: (4^11 - 1)/3 float64 entries in all
        assert sum(f.matrix.nbytes for f in fams) == 8 * (4**11 - 1) // 3 <= 11.2e6
        assert witness._sylvester.cache_info().currsize <= MATERIALIZE_MAX_LOG + 1

    def test_a_bad_n_raises_with_the_cache_warm(self):
        for n in range(MATERIALIZE_MAX_LOG + 1):
            sylvester(n)
        for bad in (-1, MATERIALIZE_MAX_LOG + 1, 1 << 20):
            with pytest.raises(ValueError, match=r"\[0, 10\]"):
                sylvester(bad)
        # 2.0 hashes like the cached 2, yet is no count of doublings
        for bad in (2.0, 2.5):
            with pytest.raises(ValueError, match=r"\[0, 10\]"):
                sylvester(bad)

    @pytest.mark.parametrize("bad", [2.0, "3", None])
    def test_anything_but_a_count_in_range_is_a_value_error_naming_it(self, bad):
        # 2.0 and "3" raised TypeError
        with pytest.raises(ValueError) as info:
            sylvester(bad)
        assert str(info.value) == f"n must be an integer in [0, 10] (size cap 2^10), got {bad!r}"

    @pytest.mark.parametrize("n", range(11))
    def test_rows_family_is_a_read_only_float64_copy(self, n):
        # checked against the closed form (-1)^popcount(i & j), built without doubling
        M = sylvester(n).matrix
        assert M.dtype == np.float64 and M.shape == (1 << n, 1 << n)
        assert not M.flags.writeable
        with pytest.raises(ValueError):
            M[0, 0] = -1
        assert np.array_equal(M, sylvester_entries(n))


class TestHadamardWitness:
    def test_c10_needs_n7(self):
        rep = hadamard_witness(ExponentTriple.of("inf", 2, 2), 10.0)
        assert rep.n == 7
        assert rep.family_size == 128
        assert rep.certified_ratio_log2 == pytest.approx(3.5, abs=1e-15)
        assert 2.0 ** rep.certified_ratio_log2 == pytest.approx(11.313708498984761, rel=1e-12)
        assert 2.0 ** rep.certified_ratio_log2 > 10.0
        assert rep.exhaustive_quotient is None  # 128 > default exhaustive cap
        assert rep.minimality_checked

    def test_c1_gives_base_family(self):
        rep = hadamard_witness(ExponentTriple.of("inf", 2, 2), 1.0)
        assert rep.n == 1
        assert rep.family is not None
        assert rep.family.matrix.tolist() == [[1.0, 1.0], [1.0, -1.0]]
        assert rep.exhaustive_quotient == pytest.approx(SQRT2, rel=1e-12)
        assert rep.exhaustive_quotient >= 2.0 ** rep.certified_ratio_log2 - 1e-9

    def test_minimal_n_matches_oracle(self):
        cases = [
            (("inf", 2, 2), 1.0),
            (("inf", 2, 2), 10.0),
            (("inf", 2, 2), 100.0),
            ((3, 2, 2), 7.0),
            ((4, 3, 2), 2.5),
            ((6, 1.5, 1.2), 30.0),
        ]
        for (p, q, r), C in cases:
            t = ExponentTriple.of(p, q, r)
            rep = hadamard_witness(t, C)
            want = minimal_witness_n(t.p.reciprocal, t.q.reciprocal, t.r.reciprocal, C)
            assert rep.n == want
            # minimality: n-1 fails the strict log2 inequality
            if rep.n > 1:
                m = rep.n - 1
                rq2 = max(0.5, t.q.reciprocal)
                lhs = m * (1.0 + t.r.reciprocal)
                rhs = math.log2(C) + m * (t.p.reciprocal + 0.5 + rq2)
                assert not (lhs - rhs > 1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        rp=st.floats(0.0, 0.5),
        rq=st.floats(0.0, 1.0),
        gap=st.floats(1e-3, 0.5),
        steps=st.integers(-20, 900),
        offset=st.sampled_from([0.0, 1e-13, -1e-13, 0.37]),
    )
    def test_closed_form_size_matches_margin_oracle(self, rp, rq, gap, steps, offset):
        # log2(C) = steps * gap + offset puts many cases on the margin boundary
        rr = rp + max(0.5, rq) - 0.5 + gap
        assume(rr <= 1.0 and (rq >= 0.5 or gap <= rq))
        t = ExponentTriple.of(*(1.0 / x if x > 0 else "inf" for x in (rp, rq, rr)))
        g = second_clause_gap(t)
        log2C = steps * gap + offset
        assume(t.holder_valid and g > 1e-3 and log2C / g < 990)
        C = 2.0 ** log2C
        want = minimal_witness_n(t.p.reciprocal, t.q.reciprocal, t.r.reciprocal, C)
        assert witness_size(t, C) == want

    @pytest.mark.parametrize("triple, C", [
        (("inf", 2, 2), math.inf),
        ((4, 2, 3), math.inf),
        ((4, 2, 3), 1e300),
        (("inf", 1, 1), 1e300),
    ])
    def test_beyond_desk_scale(self, triple, C):
        with pytest.raises(ValueError, match="^C too large for desk scale$"):
            witness_size(ExponentTriple.of(*triple), C)

    def test_sizes_at_the_cap(self):
        # gap 1/2: n passes when n/2 - log2(C) > EPS_CMP
        t = ExponentTriple.of("inf", 2, 2)
        assert witness_size(t, 2.0 ** 510.75) == WITNESS_MAX_LOG - 1
        assert witness_size(t, 2.0 ** 511) == WITNESS_MAX_LOG  # n = 1022 ties exactly
        with pytest.raises(ValueError, match="desk scale"):
            witness_size(t, 2.0 ** 511.5)

    def test_gap_just_above_the_margin(self):
        t = ExponentTriple.of("inf", 2, 5e11)  # gap about 2e-12
        assert EPS_CMP < second_clause_gap(t) < 3 * EPS_CMP
        assert witness_size(t, 1.0) == 1
        assert witness_size(t, 1.0) == minimal_witness_n(0.0, 0.5, t.r.reciprocal, 1.0)
        with pytest.raises(ValueError, match="desk scale"):
            witness_size(t, 2.0)
        with pytest.raises(ValueError, match="second-clause condition"):
            witness_size(ExponentTriple.of("inf", 2, 2e12), 1.0)  # gap about 5e-13

    def test_log2_certificate_fields(self):
        t = ExponentTriple.of("inf", 2, 2)
        rep = hadamard_witness(t, 10.0)
        assert rep.log2_numerator == rep.n * (1.0 + t.r.reciprocal)
        assert rep.log2_denominator_bound == rep.n * (t.p.reciprocal + 0.5 + 0.5)
        assert rep.certified_ratio_log2 > math.log2(rep.C)

    def test_product_vector_is_constant(self):
        # independent integer check of the constructed family's product
        for n in (1, 2, 3, 4):
            H = sylvester(n).matrix.astype(np.int64)
            prod = (H * H).sum(axis=0)
            assert np.all(prod == 1 << n)

    def test_claim_bound_on_subset_max(self):
        # subset sums of the rows stay under 2^(n(1/2+1/q'')); equality 2^n for q >= 2
        for n in (1, 2, 3):
            fam = sylvester(n)
            for q in (1.0, 1.5, 2.0, 3.0, 4.0):
                rq2 = max(0.5, 1.0 / q)
                bound = 2.0 ** (n * (0.5 + rq2))
                res = subset_max_norm(fam, q)
                assert res.value <= bound * (1 + 1e-9)
                if q >= 2.0:
                    assert res.value == float(1 << n)

    def test_boundary_triple_rejected(self):
        with pytest.raises(ValueError, match="second-clause condition"):
            hadamard_witness(ExponentTriple.of(2, 2, 2), 1.0)

    def test_sup_output_triple_rejected(self):
        # r = inf never satisfies the strict condition
        with pytest.raises(ValueError, match="second-clause condition"):
            hadamard_witness(ExponentTriple.of(2, 2, "inf"), 1.0)

    def test_invalid_triple_rejected(self):
        with pytest.raises(ValueError, match="not valid"):
            hadamard_witness(ExponentTriple.of("inf", 2, 1), 1.0)

    def test_huge_constant_rejected(self):
        with pytest.raises(ValueError, match="desk scale"):
            hadamard_witness(ExponentTriple.of("inf", 2, 2), 2.0 ** 1000)

    def test_nonpositive_constant_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            hadamard_witness(ExponentTriple.of("inf", 2, 2), 0.0)

    def test_materialization_threshold(self):
        # n = 11 needs 2^22 entries, above the 2^20 materialization cap
        t = ExponentTriple.of("inf", 2, 2)
        C = 2.0 ** (10.2 * 0.5)  # forces n = 11
        rep = hadamard_witness(t, C)
        assert rep.n == 11
        assert rep.family is None
        assert rep.exhaustive_quotient is None

    def test_json_schema(self):
        rep = hadamard_witness(ExponentTriple.of("inf", 2, 2), 1.0)
        out = rep.to_json()
        assert set(out) == {
            "p", "q", "r", "C", "n", "family_size", "log2_numerator",
            "log2_denominator_bound", "certified_ratio_log2",
            "minimality_checked", "exhaustive_quotient",
        }
        rep_big = hadamard_witness(ExponentTriple.of("inf", 2, 2), 10.0)
        assert "exhaustive_quotient" not in rep_big.to_json()


class TestHarmonicSum:
    """H_N: left-to-right float sums below N = 256, the Euler-Maclaurin closed form from there."""

    #: N on both sides of the switch, around 2^16 and 2^17, at the pinned CLI crossings and at the cap.
    SAMPLED = [
        255, 256, 257, 1000, 65535, 65536, 65537, 131073, 150661, 835415, 866991, TAIL_MAX_TERMS - 1, TAIL_MAX_TERMS,
    ]

    @pytest.mark.parametrize("N", range(256))
    def test_equals_the_loop_sum(self, N):
        # every N below the switch, bit for bit
        assert _harmonic(N)[1].hex() == harmonic_sum(N).hex()
        assert _harmonic(N) == (N, harmonic_sum(N))
        assert divergent_tail_norm(1, N) == harmonic_sum(N)
        assert divergent_tail_norm(2, N) == harmonic_sum(N) ** 0.5

    @pytest.mark.parametrize("N", SAMPLED)
    def test_sampled_N_within_four_ulps_of_mpmath(self, N):
        assert _harmonic(N)[0] == N
        assert harmonic_ulps(N, _harmonic(N)[1]) <= 4.0
        assert divergent_tail_norm(1, N) == _harmonic(N)[1]
        assert divergent_tail_norm(2, N) == _harmonic(N)[1] ** 0.5

    def test_drawn_N_within_four_ulps_of_mpmath(self):
        drawn = np.exp(np.random.default_rng(31).uniform(0.0, math.log(TAIL_MAX_TERMS), size=400)).astype(int)
        for N in [*range(1, 300), *map(int, drawn)]:
            assert harmonic_ulps(N, _harmonic(N)[1]) <= 4.0, N

    def test_increases_with_N(self):
        for N in [*range(1, 2000), *self.SAMPLED[:-1]]:
            assert _harmonic(N + 1)[1] > _harmonic(N)[1]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(target=st.floats(-1.0, _harmonic(TAIL_MAX_TERMS)[1]))
    def test_the_crossing_is_the_first_N_at_or_above_the_target(self, target):
        with mock.patch.object(witness, "_harmonic_number", wraps=witness._harmonic_number) as spy:
            N, s = _harmonic(TAIL_MAX_TERMS, target)
        # H_(N-1) and H_N, and one more for a step down
        assert spy.call_count <= 3
        assert 1 <= N <= TAIL_MAX_TERMS
        assert s == _harmonic(N)[1] and s >= target
        assert N == 1 or _harmonic(N - 1)[1] < target

    @pytest.mark.parametrize("N", [1, 2, 255, 256, 257, 65535, 65536, 65537, 131072, 835415, TAIL_MAX_TERMS])
    def test_a_target_equal_to_H_N_is_crossed_at_N(self, N):
        s = _harmonic(N)[1]
        assert _harmonic(TAIL_MAX_TERMS, s) == (N, s)
        if N < TAIL_MAX_TERMS:
            assert _harmonic(TAIL_MAX_TERMS, math.nextafter(s, math.inf)) == (N + 1, _harmonic(N + 1)[1])

    def test_empty_sum(self):
        assert _harmonic(0) == (0, 0.0)
        assert _harmonic(0, 0.0) == (0, 0.0)
        assert divergent_tail_norm(3, 0) == 0.0

    def test_zero_target_is_crossed_at_the_first_term(self):
        assert _harmonic(10, 0.0) == (1, 1.0)
        assert _harmonic(10, -1.0) == (1, 1.0)
        assert _harmonic(TAIL_MAX_TERMS, -math.inf) == (1, 1.0)
        assert _harmonic(TAIL_MAX_TERMS, 1.0) == (1, 1.0)

    def test_limit_stops_short_of_the_target(self):
        s = harmonic_sum(100)
        assert _harmonic(100, s + 1e-9) == (100, s)
        s = _harmonic(10**6)[1]
        assert _harmonic(10**6, s + 1e-9) == (10**6, s)
        assert _harmonic(TAIL_MAX_TERMS, math.inf) == _harmonic(TAIL_MAX_TERMS)

    def test_a_limit_past_the_cap_raises_before_any_work(self):
        with mock.patch.object(witness, "_harmonic_number", wraps=witness._harmonic_number) as spy:
            with pytest.raises(ValueError, match="TAIL_MAX_TERMS"):
                _harmonic(TAIL_MAX_TERMS + 1)
            with pytest.raises(ValueError, match="TAIL_MAX_TERMS"):
                divergent_tail_norm(1, 10**12)
            assert spy.call_count == 0
        assert harmonic_ulps(TAIL_MAX_TERMS, divergent_tail_norm(1, TAIL_MAX_TERMS)) <= 4.0


class TestSylvesterQuotientCache:
    #: Strict-clause triples; C = 2^((n - 1/2) gap) gives the witness n.
    TRIPLES = [("inf", 2, 2), ("inf", 2, 3), ("inf", 1, 1), (3, 2, 2), (4, 3, 2), (6, 1.5, 1.2), (4, 4, 3), (8, 3, 2.5)]

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_equals_the_public_quotient_cold_and_warm(self, triple):
        t = ExponentTriple.of(*triple)
        gap = second_clause_gap(t)
        witness._sylvester_max.cache_clear()
        for n in range(1, 5):
            C = 2.0 ** ((n - 0.5) * gap)
            want = unconditionality_quotient(sylvester(n), sylvester(n), t).quotient
            for _ in range(2):  # cold, then warm
                rep = hadamard_witness(t, C)
                assert rep.n == n
                assert rep.exhaustive_quotient.hex() == want.hex()

    @pytest.mark.parametrize("triple", TRIPLES[:3])
    def test_refused_past_four_steps_and_kept(self, triple):
        # 2^n rows of 2^n columns: the kernel settles no walk past n = 4, and its refusal is kept
        t = ExponentTriple.of(*triple)
        gap = second_clause_gap(t)
        for n in range(5, 11):
            rep = hadamard_witness(t, 2.0 ** ((n - 0.5) * gap))
            assert rep.n == n and rep.family is not None
            assert rep.exhaustive_quotient is None
            assert witness._sylvester_max(n, t.q) is None
            with pytest.raises(ValueError, match="past the reach"):
                subset_max_norm(rep.family, t.q)

    def test_the_cache_is_bounded(self):
        assert witness._sylvester_max.cache_info().maxsize == witness._SYLVESTER_MAX_CACHE == 256


class TestTailWitness:
    def test_seeded_targets_match_the_loop(self):
        # the crossing N of the loop sum, and H_N within 4 ulps
        rng = np.random.default_rng(61)
        targets = [1.0, 4.0, 5.0, 14.3, *(14.3 - rng.uniform(0.0, 14.3, size=200))]
        for target in targets:
            tw = tail_witness(2, 1, target)
            N = harmonic_crossing(target)
            assert tw.N == N
            assert tw.partial_r_norm == _harmonic(N)[1]
            assert harmonic_ulps(N, tw.partial_r_norm) <= 4.0

    def test_square_root_targets_match_the_loop(self):
        for B in (0.3, 1.0, 2.0, 3.77):
            tw = tail_witness(3, 2, B)
            N = harmonic_crossing(B ** 2.0)
            assert tw.N == N
            assert harmonic_ulps(N, _harmonic(N)[1]) <= 4.0
            assert tw.partial_r_norm == _harmonic(N)[1] ** 0.5

    def test_harmonic_crossing_at_five(self):
        tw = tail_witness(2, 1, 5.0)
        assert tw.N == harmonic_crossing(5.0)
        assert tw.N == 83
        assert tw.partial_r_norm >= 5.0

    def test_first_term(self):
        tw = tail_witness(2, 1, 1.0)
        assert tw.N == 1
        assert tw.partial_r_norm == 1.0

    @pytest.mark.parametrize("B", [1e-200, 1e-170, 5e-324])
    def test_underflowing_level_crosses_at_the_first_term(self, B):
        # B ** 2 rounds to 0.0, yet the level B > 0 is first passed at N = 1
        assert B ** 2.0 == 0.0
        tw = tail_witness(3, 2, B)
        assert (tw.N, tw.partial_r_norm) == (1, 1.0)
        assert tw.partial_r_norm >= B
        assert tw.tail_q_bound == tail_q_bound(3, 2, 1)

    def test_square_root_scale(self):
        tw = tail_witness(4, 2, 2.0)
        assert tw.N == harmonic_crossing(2.0 ** 2)
        assert tw.N == 31
        assert tw.partial_r_norm >= 2.0

    def test_minimality(self):
        for B in (1.0, 2.0, 5.0, 8.0):
            tw = tail_witness(2, 1, B)
            assert tw.partial_r_norm >= B
            if tw.N > 1:
                prev = divergent_tail_norm(1, tw.N - 1)
                assert prev < B

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            tail_witness(1, 2, 1.0)  # r >= q
        with pytest.raises(ValueError):
            tail_witness(2, 2, 1.0)
        with pytest.raises(ValueError):
            tail_witness(2, "inf", 1.0)
        with pytest.raises(ValueError):
            tail_witness(2, 1, 0.0)

    def test_desk_scale_cap(self):
        with pytest.raises(ValueError, match="desk scale"):
            tail_witness(2, 1, 25.0)  # harmonic sum 25 needs ~10^10 terms

    @pytest.mark.parametrize("B", [1e200, 1e155, float("inf"), 10**400])
    def test_an_overflowing_level_is_past_desk_scale(self, B):
        # 1e200 ** 2 raised OverflowError
        with pytest.raises(ValueError, match="desk scale"):
            tail_witness(3, 2, B)

    def test_partial_norm_monotone_and_unbounded(self):
        prev_norm = 0.0
        prev_N = 0
        for B in (0.5, 1.0, 2.0, 4.0, 6.0):
            tw = tail_witness(2, 1, B)
            assert tw.N >= prev_N
            assert tw.partial_r_norm >= prev_norm
            prev_N, prev_norm = tw.N, tw.partial_r_norm

    def test_tail_bound_decreases(self):
        vals = [tail_q_bound(2, 1, N) for N in (1, 2, 4, 8, 16, 64, 256)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.1

    def test_tail_bound_matches_direct_sum(self):
        # zeta-based tail equals direct summation plus a vanishing remainder
        q, r, N = 2.0, 1.0, 10
        direct = sum(k ** (-q / r) for k in range(11, 200000))
        assert tail_q_bound(q, r, N) == pytest.approx(direct ** (1 / q), rel=1e-4)

    def test_sup_space_variant(self):
        # q = inf: the tail bound is the first omitted term
        tw = tail_witness("inf", 2, 2.0)
        assert tw.tail_q_bound == pytest.approx((tw.N + 1) ** -0.5, rel=1e-15)


class TestTailCounts:
    """The tail helpers take N as outside input: an integer N >= 0 or ValueError naming it."""

    @pytest.mark.parametrize(
        "call, N",
        [
            (lambda: tail_q_bound("inf", 1, -5), -5),  # was -0.25, a negative norm
            (lambda: tail_q_bound("inf", 1, -1), -1),  # was ZeroDivisionError
            (lambda: tail_q_bound(2, 1, -1), -1),  # was inf
            (lambda: divergent_tail_norm(2, -1), -1),  # was 0.0
            (lambda: divergent_tail_norm(2, 2.5), 2.5),  # was a sum of three terms
            (lambda: tail_q_bound(2, 1, 3.0), 3.0),
            (lambda: divergent_tail_norm(2, "3"), "3"),
        ],
    )
    def test_rejects_a_bad_count(self, call, N):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"N must be an integer >= 0, got {N!r}"

    def test_accepts_zero_and_numpy_integers(self):
        # the norm is 1 exactly, and the bound is raised by 5 units of 2^-53
        assert tail_q_bound("inf", 1, 0) == 1.0000000000000004
        assert divergent_tail_norm(2, 0) == 0.0
        assert tail_q_bound(2, 1, np.int64(10)) == tail_q_bound(2, 1, 10)
        assert divergent_tail_norm(2, np.int32(3)) == divergent_tail_norm(2, 3)

    def test_exponent_errors_come_first(self):
        with pytest.raises(ValueError, match="requires r < q"):
            tail_q_bound(1, 2, -1)
        with pytest.raises(ValueError, match="r must be finite"):
            divergent_tail_norm("inf", -1)

    @pytest.mark.parametrize("q", [2, "inf"])
    def test_rejects_a_count_past_binary64(self, q):
        # float(N + 1) raised OverflowError
        with pytest.raises(ValueError, match=r"^N too large: N \+ 1, of 1329 bits, exceeds the largest binary64 value$"):
            tail_q_bound(q, 1, 10**400)
        with pytest.raises(ValueError, match="of 1025 bits"):
            tail_q_bound(q, 1, 2**1024 - 1)
        assert 0.0 < tail_q_bound(q, 1, 2**1023) < 1e-150


class TestTailBound:
    """``tail_q_bound`` bounds the power tail's lq norm from above, within 1e-10 relative.

    The reference is ``power_tail_norm``, the tail summed in mpmath at 50
    digits.  The bound may exceed the norm by its Euler-Maclaurin cut, at
    most 1.2e-11, and its rounding margin, at most 2e-14 here.
    """

    TIGHT = 1e-10

    def assert_tight(self, q, r, N):
        want = power_tail_norm(q, r, N)
        got = tail_q_bound(q, r, N)
        assert want <= got <= want * (1 + self.TIGHT), (q, r, N, got, want)

    @settings(max_examples=200, deadline=None)
    @given(
        N=st.integers(min_value=0, max_value=TAIL_MAX_TERMS),
        r=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        # s = q/r = 1 + 2^e runs from 1 + 2^-40 to about 1e300; None is q = inf
        e=st.one_of(st.none(), st.floats(min_value=-40.0, max_value=996.5)),
    )
    def test_bounds_the_norm_tightly(self, N, r, e):
        self.assert_tight(math.inf if e is None else (1.0 + 2.0**e) * r, r, N)

    @pytest.mark.parametrize("N", [0, 10, TAIL_MAX_TERMS])
    def test_q_within_ulps_of_r(self, N):
        # q/r = 1 + 2048.33 * 2^-51 rounds to a float whose s - 1 is 8e-5 off, relative, and T ~ a/(s - 1)
        self.assert_tight(3.0 + 6145 * 2.0**-51, 3.0, N)

    @pytest.mark.parametrize("q", [800.0, 1e4, 1e300])
    def test_a_tail_whose_zeta_underflows(self, q):
        # zeta(q, 5) is below the smallest normal float; the first omitted term 1/5 dominates
        assert not 5.0**-q >= sys.float_info.min
        self.assert_tight(q, 1.0, 4)
        assert 0.2 < tail_q_bound(q, 1, 4) < 0.2 * (1 + 2e-14)

    @pytest.mark.parametrize(
        "q, r, N",
        [
            (2.0, 1.0, 150661),  # `uncond witness-tail --q 2 --r 1 --B 12.5`, which printed a value below the norm
            (3.0, 2.0, 835415),
            (2.0, 1.0, 83),
            (4.0, 3.0, 4),
            (4.0, 3.0, 83),
            (4.0, 2.0, 4),
            (4.0, 2.0, 83),
            (math.inf, 1.0, 0),
        ],
    )
    def test_pinned_values_bound_their_norms(self, q, r, N):
        # the tails behind the pinned stdout of witness-tail and cross_validate
        self.assert_tight(q, r, N)
