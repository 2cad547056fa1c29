"""The in-house Hurwitz zeta against two oracles.

Unscaled, ``_hurwitz_zeta`` is the Cephes routine behind
``scipy.special.zeta`` and must return its floats bit for bit; scaled, the
power tails it gives where zeta underflows are checked against mpmath.
"""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncond.witness import _hurwitz_zeta, tail_q_bound

scipy_zeta = pytest.importorskip("scipy.special").zeta
mpmath = pytest.importorskip("mpmath")

#: Relative tolerance of a scaled power tail against mpmath's zeta at 60 digits.
#: The worst of 2000 seeded draws (N <= 1000, s up to 1e6) was 5.5e-13.
TAIL_REL = 1e-11


def scipy_value(s: float, a: float) -> float:
    return float(scipy_zeta(s, a))


def same_float(x: float, y: float) -> bool:
    return x == y or (math.isnan(x) and math.isnan(y))


class TestMatchesScipy:
    @settings(max_examples=400, deadline=None)
    @given(
        s=st.floats(min_value=1.0, max_value=64.0, exclude_min=True, allow_nan=False),
        a=st.integers(min_value=1, max_value=10**9),
    )
    def test_bit_for_bit(self, s, a):
        assert _hurwitz_zeta(s, float(a)) == scipy_value(s, float(a))

    @pytest.mark.parametrize("s", [1.0 + 2.0**-52, 1.5, 2.0, 64.0, 1e5])
    @pytest.mark.parametrize("a", [1e8, 1e8 + 1.0, 123456789.0, 2.0**53])
    def test_asymptotic_branch(self, s, a):
        # above a = 1e8 the routine is one closed form; a = 1e8 itself still sums
        assert _hurwitz_zeta(s, a) == scipy_value(s, a)

    @pytest.mark.parametrize(
        "s, a",
        [
            (800.0, 5.0),  # every term underflows: 0.0
            (1100.0, 2.0),
            (60.0, 1e6),
            (1075.0, 2.0),  # the first term is the smallest subnormal
            (1e300, 5.0),  # the corrections overflow times an underflowed term: nan
        ],
    )
    def test_underflow_cases(self, s, a):
        got = _hurwitz_zeta(s, a)
        assert same_float(got, scipy_value(s, a))
        assert not got >= sys.float_info.min


class TestScaledTail:
    @settings(max_examples=200, deadline=None)
    @given(
        N=st.integers(min_value=1, max_value=1000),
        r=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        factor=st.floats(min_value=1.0, max_value=1000.0),
    )
    def test_matches_mpmath(self, N, r, factor):
        # s log2(N+1) >= 1100, so zeta(s, N+1) is below the smallest normal float
        s = factor * 1100.0 / math.log2(N + 1)
        q = s * r
        assert not _hurwitz_zeta(q / r, float(N + 1)) >= sys.float_info.min
        got = tail_q_bound(q, r, N)
        with mpmath.workdps(60):
            ref = mpmath.zeta(mpmath.mpf(q) / r, N + 1) ** (1 / mpmath.mpf(q))
            assert abs(got - ref) <= TAIL_REL * ref

    @settings(max_examples=200, deadline=None)
    @given(
        N=st.integers(min_value=0, max_value=10**7),
        r=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        q=st.floats(min_value=1.0, max_value=1e4),
    )
    def test_a_normal_zeta_keeps_its_root(self, N, r, q):
        # where zeta is a positive normal float the bound is scipy's zeta to the 1/q
        if q <= r:
            q += r
        z = scipy_value(q / r, float(N + 1))
        if z >= sys.float_info.min:
            assert tail_q_bound(q, r, N) == z ** (1.0 / q)

    @pytest.mark.parametrize("q", [800.0, 1e4, 1e300])
    def test_the_level_two_tail_is_a_fifth(self, q):
        # N = 4 at B = 2; the first omitted term 5^(-1) dominates the tail
        assert tail_q_bound(q, 1, 4) == pytest.approx(0.2, rel=1e-15)
