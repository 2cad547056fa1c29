import math
import operator
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncond.seqspace import (
    EPS_NUM,
    INF,
    Exponent,
    ExponentTriple,
    norm,
    row_norms,
)

from uncond.lemma_lab import complex_subset_ratio, real_subset_ratio
from uncond.unconditionality import Family

from _oracles import direct_norm, row_major_norms

_EXPONENTS = st.one_of(st.just(INF), st.floats(1.0, 64.0).map(Exponent))


@st.composite
def _holder_triples(draw):
    """Triples with 1/r <= 1/p + 1/q; the share 1 puts 1/r on the boundary."""
    p, q = draw(_EXPONENTS), draw(_EXPONENTS)
    share = draw(st.one_of(st.just(1.0), st.just(0.0), st.floats(0.0, 1.0)))
    rr = share * min(1.0, p.reciprocal + q.reciprocal)
    return ExponentTriple(p, q, INF if rr == 0.0 else Exponent(1.0 / rr))


def _vector_pairs(n):
    entries = st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)
    return st.tuples(entries, entries)


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

    @pytest.mark.parametrize("text", ["0.5", "nan", "-inf", "1e-5", "abc", " INF ", "2"])
    def test_a_string_fails_as_its_float_does(self, text):
        # only text that is no number at all is "cannot parse"; a number keeps Exponent's own message
        def outcome(x):
            try:
                return Exponent.of(x)
            except ValueError as exc:
                return str(exc)

        try:
            number = float(text)
        except ValueError:
            assert outcome(text) == f"cannot parse exponent {text!r}"
        else:
            assert outcome(text) == outcome(number)

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


class TestNorm:
    def test_examples(self):
        assert norm([3, 4], 2) == 5.0
        assert norm([3, 4], "inf") == 4.0
        assert norm([1, 1, 1], 1) == 3.0

    def test_empty_and_zero(self):
        assert norm([], 2) == 0.0
        assert norm([0.0, 0.0], 3) == 0.0
        assert norm([], "inf") == 0.0

    def test_zero_and_subnormal_rows(self):
        # a zero row is scaled by the smallest subnormal, at most any nonzero max
        tiny = float(np.finfo(np.float64).smallest_subnormal)
        rows = np.array([[0.0, 0.0, -0.0], [tiny, 0.0, 0.0], [0.0, -tiny, 0.0], [3.0, 0.0, 4.0]])
        for p in (1.5, 2.0, 3.0, 7.0):
            got = row_norms(rows, p)
            assert got[0] == 0.0 and got[1] == got[2] == tiny
            assert got[3] == pytest.approx(direct_norm(rows[3], p), rel=1e-15)

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


_TINY = float(np.finfo(np.float64).smallest_subnormal)
#: Entries where rounding and scaling are at their edges: signed zeros,
#: subnormals, the extremes of the exponent range and values that tie.
_EDGE_ENTRIES = [0.0, -0.0, _TINY, -_TINY, 3 * _TINY, 2.0**-1060, 1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0, 0.1, 3.0]


@st.composite
def _rows(draw, widths):
    d = draw(st.sampled_from(widths))
    m = draw(st.integers(1, 40))
    entry = st.one_of(st.sampled_from(_EDGE_ENTRIES), st.floats(-1e6, 1e6, allow_nan=False), st.floats(-1e-6, 1e-6))
    rows = np.array(draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=m, max_size=m))).reshape(m, d)
    if m > 1 and draw(st.booleans()):
        # exact ties: the first row, permuted and with signs flipped, in every other row
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        for k in range(1, m):
            rows[k] = rng.permutation(rows[0]) * rng.choice([-1.0, 1.0], size=d)
    return rows


class TestRowNormLayouts:
    """Short rows are reduced column first; every norm is the row-major float, bit for bit."""

    EXPONENTS = [1.0, 1.5, 2.0, 3.0, 70.0, "inf"]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rows=_rows(list(range(1, 10))), p=st.sampled_from(EXPONENTS))
    def test_matches_row_major_formula(self, rows, p):
        got = row_norms(rows, p)
        assert got.tobytes() == row_major_norms(rows, p).tobytes()
        # the layout of the input does not matter either
        assert row_norms(np.asfortranarray(rows), p).tobytes() == got.tobytes()

    @pytest.mark.parametrize("p", EXPONENTS)
    @pytest.mark.parametrize("d", range(1, 10))
    def test_random_and_edge_rows(self, d, p):
        rng = np.random.default_rng(d)
        rows = np.concatenate([
            rng.standard_normal((500, d)) * 10.0 ** rng.integers(-300, 300, size=(500, 1)),
            rng.choice(_EDGE_ENTRIES, size=(500, d)),
        ])
        assert row_norms(rows, p).tobytes() == row_major_norms(rows, p).tobytes()

    def test_numpy_sums_short_rows_left_to_right(self):
        # the property the column-first layout rests on: below 8 entries a row's
        # sum is the left-to-right one, and from 8 on numpy sums pairwise
        rng = np.random.default_rng(0)
        for d in range(1, 10):
            a = rng.random((2000, d))
            left_to_right = a[:, 0].copy()
            for j in range(1, d):
                left_to_right += a[:, j]
            same = np.add.reduce(a, axis=1) == left_to_right
            assert same.all() if d < 8 else not same.all(), d


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

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        t=st.one_of(
            st.sampled_from([(2, 2, 1), (4, 4, 2), ("inf", 1, 1), ("inf", "inf", "inf")]).map(
                lambda t: ExponentTriple.of(*t)
            ),
            _holder_triples(),
        ),
        ax=st.integers(1, 10).flatmap(_vector_pairs),
    )
    def test_holder_inequality(self, t, ax):
        # ||ax||_r <= ||a||_p ||x||_q is what holder_valid promises
        assert t.holder_valid
        a, x = (np.array(v) for v in ax)
        assert norm(a * x, t.r) <= norm(a, t.p) * norm(x, t.q) * (1 + EPS_NUM)

    def test_holder_is_tight_on_the_boundary(self):
        ones = np.ones(5)
        for t in (ExponentTriple.of(2, 2, 1), ExponentTriple.of(4, 4, 2)):
            assert norm(ones * ones, t.r) == pytest.approx(norm(ones, t.p) * norm(ones, t.q), rel=1e-15)

    def test_record_semantics(self):
        t = ExponentTriple.of(2, "inf", 1.5)
        assert repr(t) == "ExponentTriple(p=Exponent(value=2.0), q=Exponent(value=None), r=Exponent(value=1.5))"
        assert str(t) == "(2.0, inf, 1.5)"
        assert (t.p, t.q, t.r) == (Exponent(2.0), INF, Exponent(1.5))
        same = ExponentTriple(Exponent(2.0), INF, Exponent(1.5))
        assert t == same and hash(t) == hash(same) == hash((t.p, t.q, t.r))
        assert t != ExponentTriple.of(2, "inf", 2) and len({t, same}) == 1
        again = pickle.loads(pickle.dumps(t))
        assert again == t and repr(again) == repr(t) and type(again) is ExponentTriple
        with pytest.raises(AttributeError):
            t.p = Exponent(3.0)


class TestNonFiniteEntries:
    BAD = [[math.inf, 1.0], [1.0, math.nan], [-math.inf]]

    @pytest.mark.parametrize("v", BAD)
    def test_norm_rejects(self, v):
        # the unchecked kernel gives nan for [inf, 1.0] at p = 2
        for p in (1, 2, 3, "inf"):
            with pytest.raises(ValueError, match="^entries must be finite numbers$"):
                norm(v, p)

    def test_one_message_for_every_input(self):
        for call in (
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


class TestStringEntries:
    @pytest.mark.parametrize("v", [[["1.5"]], [["x"]], [[1, "2"]], [[b"1"]], np.array([[2**70, "1.5"]], dtype=object)],
                             ids=("numeric", "text", "mixed", "bytes", "object"))
    def test_every_input_rejects_strings(self, v):
        for call in (lambda: Family.of(v), lambda: norm(np.ravel(v), 2), lambda: complex_subset_ratio(np.ravel(v))):
            with pytest.raises(ValueError, match="^entries must be finite numbers$"):
                call()

    def test_numbers_of_every_kind_pass(self):
        assert Family.of([[True, 2**70, np.uint8(3), 0.5]]).matrix.tolist() == [[1.0, 2.0**70, 3.0, 0.5]]
        assert complex_subset_ratio(np.array([1 + 1j, 2], dtype=object)).witness.tolist() == [1 + 1j, 2 + 0j]


class TestComplexEntries:
    @pytest.mark.parametrize("call", [
        lambda: Family(np.array([[1 + 5j, 2]])),
        lambda: Family.of([np.array([1 + 5j, 2.0])]),
        lambda: Family.of([[1 + 5j, 2.0]]),
        lambda: norm(np.array([3 + 4j]), 2),
        lambda: norm([3 + 4j], 2),
        lambda: real_subset_ratio(np.array([1 + 1j, -1.0])),
    ], ids=(0, 1, 2, 5, 6, 8))
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
