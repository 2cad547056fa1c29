"""Tests of the benchmark's reference checks: each accepts a right output and
rejects one that is off by 1e-9 relative, a wrong mask, a wrong verdict or an
N off by one.

    python3 -m pytest bench/test_references.py
"""

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import zeta

sys.path.insert(0, str(Path(__file__).resolve().parent))

import references as ref  # noqa: E402
from references import INF, CheckError  # noqa: E402

OFF = 1.0 + 1e-9


def brute_max(X, q, signs):
    """(value, mask) by plain loops over every mask."""
    best, best_mask = -1.0, 0
    for mask in range(1 << X.shape[0]):
        s = np.zeros(X.shape[1])
        for k in range(X.shape[0]):
            bit = (mask >> k) & 1
            s += (-X[k] if bit else X[k]) if signs else (X[k] if bit else 0.0)
        v = max(abs(s)) if q == INF else sum(abs(s) ** q) ** (1.0 / q)
        if v > best:
            best, best_mask = v, mask
    return best, best_mask


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, INF])
@pytest.mark.parametrize("signs", [False, True])
def test_subset_check_accepts_right_and_rejects_wrong(q, signs):
    X = np.random.default_rng(7).standard_normal((7, 3))
    value, mask = brute_max(X, q, signs)
    power = ref.max_power_sum(X, q, signs)
    assert ref.subset_max(X, q, signs) == pytest.approx(value, rel=1e-13)
    ref.check_subset_result(X, q, signs, value, mask, power)
    with pytest.raises(CheckError):
        ref.check_subset_result(X, q, signs, value * OFF, mask, power)
    wrong = next(m for m in range(1 << 7) if ref.lp_norm(ref.masked_sum(X, m, signs), q) < value * (1 - 1e-6))
    with pytest.raises(CheckError):
        ref.check_subset_result(X, q, signs, value, wrong, power)


def test_integer_family_mask_must_be_exact():
    X = np.random.default_rng(3).integers(-1, 2, size=(8, 4)).astype(float)
    value, mask = brute_max(X, 2.0, False)
    power = ref.max_power_sum(X, 2.0, False)
    assert power == round(value**2)
    ref.check_subset_result(X, 2.0, False, value, mask, power)
    near = next(m for m in range(1 << 8) if 0 < power - ref.power_sums(ref.masked_sum(X, m, False)[None], 2.0)[0])
    with pytest.raises(CheckError):
        ref.check_subset_result(X, 2.0, False, value, near, power)
    with pytest.raises(CheckError):
        ref.check_subset_result(X, 2.0, False, value, 1 << 8, power)


def test_closed_forms_match_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(20):
        X = rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 5))))
        assert ref.qinf_subset_max(X) == pytest.approx(ref.subset_max(X, INF), rel=1e-13)
        assert ref.q1_sign_max(X) == pytest.approx(ref.subset_max(X, 1.0, signs=True), rel=1e-13)


def test_quotient_reference_and_ratio_check():
    rng = np.random.default_rng(5)
    A, X = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
    want = ref.lp_norm((A * X).sum(0), 2.0) / (max(ref.lp_norm(a, 4.0) for a in A) * brute_max(X, 3.0, False)[0])
    got = ref.reference_quotient(A, X, 4.0, 3.0, 2.0, ref.max_power_sum(X, 3.0, False))
    assert got == pytest.approx(want, rel=1e-13)
    ratio = np.sqrt((X * X).sum(1)).sum() / brute_max(X, 1.0, True)[0]
    ref.check_ratio_report(X, ratio)
    with pytest.raises(CheckError):
        ref.check_ratio_report(X, ratio * OFF)
    assert ref.KRIVINE_BOUND == pytest.approx(1.7822139781, rel=1e-9)


def test_search_quotient_checks():
    ref.check_search_quotient(1.5, 3.0, 2.0, 3)
    for q, num, den, n in [(3.5, 7.0, 2.0, 3), (0.0, 0.0, 1.0, 3), (1.5 * OFF, 3.0, 2.0, 3)]:
        with pytest.raises(CheckError):
            ref.check_search_quotient(q, num, den, n)
    ref.check_nondecreasing("search", [1.0, 1.0, 1.2])
    with pytest.raises(CheckError):
        ref.check_nondecreasing("search", [1.0, 1.2, 1.2 / OFF])


@pytest.mark.parametrize(
    "triple, verdict, clause",
    [
        ((1.0, 2.0, INF), "Preserves", "T1.4-1-rInf"),
        ((2.0, 2.0, 4.0), "Preserves", "T1.4-1-pLe2qLeR"),
        ((2.0, 4.0, 3.0), "NotPreserves", "T1.4-2-rLtQ"),
        ((INF, 4.0, 2.0), "NotPreserves", "T1.4-2-rLtQ"),
        ((INF, 2.0, 2.0), "NotPreserves", "T1.4-2-strict"),
        ((3.0, 3.0, 3.0), "Unknown", "Open"),
        ((4.0, 4.0, 1.0), "NotApplicable", "HolderInvalid"),
    ],
)
def test_decision_table(triple, verdict, clause):
    v, c, m = ref.decide(*triple)
    assert (v, c) == (verdict, clause)
    ref.check_classification(*triple, v, c, float(m))
    wrong = "Unknown" if verdict != "Unknown" else "Preserves"
    with pytest.raises(CheckError):
        ref.check_classification(*triple, wrong, c, float(m))
    if m:
        with pytest.raises(CheckError):
            ref.check_classification(*triple, v, c, float(m) * (1 + 1e-9) + 1e-12)


def test_witness_size_and_sylvester():
    for (p, q, r), C in [((INF, 2.0, 2.0), 10.0), ((INF, 2.0, 3.0), 2.0), ((INF, 1.0, 1.0), 3.0), ((4.0, 2.0, 3.0), 100.0)]:
        gap = float(ref.strict_gap(p, q, r))
        n = next(m for m in itertools.count(1) if m * gap > math.log2(C))
        assert ref.minimal_witness_n(p, q, r, C) == n
        ref.check_witness_size(p, q, r, C, n, n * gap)
        for bad in (n - 1, n + 1):
            with pytest.raises(CheckError):
                ref.check_witness_size(p, q, r, C, bad, bad * gap)
        with pytest.raises(CheckError):
            ref.check_witness_size(p, q, r, C, n, n * gap * OFF)
    H = np.array([[1]])
    for n in range(1, 6):
        H = np.kron(np.array([[1, 1], [1, -1]]), H)
        assert np.array_equal(ref.sylvester_entries(n), H)
    assert ref.hadamard_quotient(1, INF, 2.0, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_exhaustive_quotient_check():
    exq = ref.hadamard_quotient(4, INF, 2.0, 3.0)
    cert = 4 * float(ref.strict_gap(INF, 2.0, 3.0))
    ref.check_exhaustive_quotient(exq, cert, exq)
    with pytest.raises(CheckError):
        ref.check_exhaustive_quotient(exq * OFF, cert, exq)
    with pytest.raises(CheckError):
        ref.check_exhaustive_quotient(exq, math.log2(exq) + 1e-9, exq)


def test_brackets_contain_exact_values():
    for N in (1, 2, 10, 1000, 100_000):
        lo, hi = ref.harmonic_bracket(N)
        h = math.fsum(1.0 / k for k in range(1, N + 1))
        assert lo <= h * (1 + 1e-15) and h <= hi * (1 + 1e-15)
    for s, a in ((2.0, 5), (1.5, 84), (4.0, 1000), (2.0, 200_001)):
        lo, hi = ref.zeta_tail_bracket(s, a)
        z = float(zeta(s, a))
        assert lo * (1 - 1e-13) <= z <= hi * (1 + 1e-13)


@pytest.mark.parametrize("q, r, B", [(2.0, 1.0, 12.5), (INF, 1.5, 12.9 ** (1 / 1.5)), (3.0, 2.0, 13.1**0.5)])
def test_tail_check(q, r, B):
    target, s, N = B**r, 0.0, 0
    while s < target:
        N += 1
        s += 1.0 / N
    partial = s ** (1.0 / r)
    tail = (N + 1.0) ** (-1.0 / r) if q == INF else float(zeta(q / r, N + 1)) ** (1.0 / q)
    ref.check_tail(q, r, B, N, partial, tail)
    for bad_n in (N - 1, N + 1):
        with pytest.raises(CheckError):
            ref.check_tail(q, r, B, bad_n, partial, tail)
    with pytest.raises(CheckError):
        ref.check_tail(q, r, B, N, partial * OFF, tail)
    with pytest.raises(CheckError):
        ref.check_tail(q, r, B, N, partial, tail * OFF)
