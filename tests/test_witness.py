import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uncond.seqspace import EPS_CMP, ExponentTriple
from uncond.unconditionality import subset_max_norm
from uncond.witness import (
    _HARMONIC_CHUNK,
    WITNESS_MAX_LOG,
    HadamardMatrix,
    _harmonic,
    hadamard_witness,
    second_clause_gap,
    witness_size,
    divergent_tail_norm,
    sylvester,
    tail_q_bound,
    tail_witness,
)

from _oracles import harmonic_crossing, harmonic_sum, minimal_witness_n

SQRT2 = math.sqrt(2.0)


class TestSylvester:
    def test_base_case(self):
        H = sylvester(0)
        assert H.entries.tolist() == [[1]]

    def test_one_doubling(self):
        H = sylvester(1)
        assert H.entries.tolist() == [[1, 1], [1, -1]]

    def test_column_sums_concentrate(self):
        H = sylvester(2)
        col_sums = H.entries.astype(int).sum(axis=0)
        assert col_sums.tolist() == [4, 0, 0, 0]

    def test_first_row_and_column_all_ones(self):
        for n in range(0, 7):
            H = sylvester(n).entries
            assert np.all(H[0] == 1)
            assert np.all(H[:, 0] == 1)

    def test_exact_orthogonality_and_entries(self):
        for n in range(0, 11):
            H = sylvester(n)
            E = H.entries.astype(np.int64)
            gram = E @ E.T
            assert np.array_equal(gram, (1 << n) * np.eye(1 << n, dtype=np.int64))
            assert set(np.unique(E)) <= {-1, 1}
            # sum of all rows is 2^n times the first coordinate vector
            total = E.sum(axis=0)
            assert total[0] == 1 << n and np.all(total[1:] == 0)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            sylvester(13)
        with pytest.raises(ValueError):
            sylvester(-1)

    def test_constructor_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            HadamardMatrix(1, np.array([[1, 1], [1, 1]], dtype=np.int8))
        with pytest.raises(ValueError, match="entries"):
            HadamardMatrix(0, np.array([[2]], dtype=np.int8))

    def test_constructor_rejects_one_flipped_entry_at_log_size_10(self):
        # the float32 Gram check sees a single flipped sign in a 1024 x 1024 matrix
        E = sylvester(10).entries.copy()
        HadamardMatrix(10, E)
        E[700, 513] = -E[700, 513]
        with pytest.raises(ValueError, match="orthogonal"):
            HadamardMatrix(10, E)

    @pytest.mark.parametrize("value", [257, 1.5, 1.0000001])
    def test_constructor_checks_the_values_given(self, value):
        # an int8 cast would turn each of these into 1
        with pytest.raises(ValueError, match="entries must be exactly"):
            HadamardMatrix(0, np.array([[value]]))

    def test_constructor_stores_int8(self):
        H = HadamardMatrix(1, np.array([[1.0, 1.0], [1.0, -1.0]]))
        assert H.entries.dtype == np.int8
        assert H.entries.tolist() == [[1, 1], [1, -1]]

    def test_packed_round_trip(self):
        for n in (0, 1, 3, 5):
            H = sylvester(n)
            again = HadamardMatrix.unpack(n, H.packed())
            assert np.array_equal(H.entries, again.entries)

    @pytest.mark.parametrize("log_size, data, detail", [
        (0, b"", "must be 1 bytes for log_size 0, got 0"),
        (3, sylvester(3).packed() + b"garbage", "must be 8 bytes for log_size 3, got 15"),
        (3, sylvester(3).packed()[:-1], "must be 8 bytes for log_size 3, got 7"),
        (0, b"\x7f", "sets padding bits of its last byte: 0x7f"),
        (1, bytes([sylvester(1).packed()[0] | 0x0F]), "sets padding bits of its last byte: 0x1f"),
    ], ids=["empty", "trailing", "one-short", "padding-of-one-entry", "padding-of-four-entries"])
    def test_unpack_requires_the_exact_length(self, log_size, data, detail):
        with pytest.raises(ValueError, match=detail):
            HadamardMatrix.unpack(log_size, data)


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
            H = sylvester(n).entries.astype(np.int64)
            prod = (H * H).sum(axis=0)
            assert np.all(prod == 1 << n)

    def test_claim_bound_on_subset_max(self):
        # subset sums of the rows stay under 2^(n(1/2+1/q'')); equality 2^n for q >= 2
        for n in (1, 2, 3):
            fam = sylvester(n).rows_family()
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
    C = _HARMONIC_CHUNK

    @pytest.mark.parametrize("N", [1, 2, C - 1, C, C + 1, 2 * C + 1, 866_991])
    def test_equals_the_loop_sum(self, N):
        assert _harmonic(N) == (N, harmonic_sum(N))
        assert divergent_tail_norm(1, N) == harmonic_sum(N)
        assert divergent_tail_norm(2, N) == harmonic_sum(N) ** 0.5

    def test_empty_sum(self):
        assert _harmonic(0) == (0, 0.0)
        assert _harmonic(0, 0.0) == (0, 0.0)
        assert divergent_tail_norm(3, 0) == 0.0

    def test_zero_target_is_crossed_at_the_first_term(self):
        assert _harmonic(10, 0.0) == (1, 1.0)
        assert _harmonic(10, -1.0) == (1, 1.0)

    @pytest.mark.parametrize("N", [C - 1, C, C + 1, 2 * C])
    def test_crossing_at_a_chunk_boundary(self, N):
        # a target equal to s_N is crossed exactly at N, on either side of a chunk edge
        assert _harmonic(10 * N, harmonic_sum(N)) == (N, harmonic_sum(N))

    def test_limit_stops_short_of_the_target(self):
        s = harmonic_sum(100)
        assert _harmonic(100, s + 1e-9) == (100, s)


class TestTailWitness:
    def test_seeded_targets_match_the_loop(self):
        rng = np.random.default_rng(61)
        targets = [1.0, 4.0, 5.0, 14.3, *(14.3 - rng.uniform(0.0, 14.3, size=200))]
        for target in targets:
            tw = tail_witness(2, 1, target)
            N = harmonic_crossing(target)
            assert tw.N == N
            assert tw.partial_r_norm == harmonic_sum(N)

    def test_square_root_targets_match_the_loop(self):
        for B in (0.3, 1.0, 2.0, 3.77):
            tw = tail_witness(3, 2, B)
            N = harmonic_crossing(B ** 2.0)
            assert tw.N == N
            assert tw.partial_r_norm == harmonic_sum(N) ** 0.5

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
        assert tail_q_bound("inf", 1, 0) == 1.0
        assert divergent_tail_norm(2, 0) == 0.0
        assert tail_q_bound(2, 1, np.int64(10)) == tail_q_bound(2, 1, 10)
        assert divergent_tail_norm(2, np.int32(3)) == divergent_tail_norm(2, 3)

    def test_exponent_errors_come_first(self):
        with pytest.raises(ValueError, match="requires r < q"):
            tail_q_bound(1, 2, -1)
        with pytest.raises(ValueError, match="r must be finite"):
            divergent_tail_norm("inf", -1)
