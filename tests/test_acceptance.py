"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every check uses the tolerance stated in its criterion and asserts its
runtime budget.
"""

import logging
import math
import time

import numpy as np
import pytest

from uncond.classifier import Clause, Verdict, classify
from uncond.lemma_lab import (
    complex_subset_ratio,
    grothendieck_ratio,
    grothendieck_search,
    real_subset_ratio,
)
from uncond.seqspace import EPS_NUM, INF, Exponent, ExponentTriple, norm, row_norms
from uncond.unconditionality import (
    Family,
    subset_max_norm,
    unconditionality_quotient,
)
from uncond.witness import divergent_tail_norm, hadamard_witness, sylvester, tail_q_bound, tail_witness

from _oracles import gray, harmonic_crossing

SQRT2 = math.sqrt(2.0)


def _report(num, ok, elapsed, budget, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} ({elapsed:.2f}s / {budget:.0f}s budget) {detail}")


def test_criterion_01_hadamard_witness_exactness():
    t0 = time.perf_counter()
    t = ExponentTriple.of("inf", 2, 2)
    rep = hadamard_witness(t, 1.0)
    ok = rep.n == 1 and abs(rep.exhaustive_quotient - SQRT2) <= 1e-12

    exponents = {"1": 1.0, "2": 2.0, "3": 3.0, "inf": None}
    for n in range(1, 11):
        fam = sylvester(n)
        E = fam.matrix.astype(np.int64)
        # numerator structure: the product vector is constantly 2^n (integers)
        ok = ok and bool(np.all((E * E).sum(axis=0) == 1 << n))
        for tok, val in exponents.items():
            p = INF if val is None else Exponent(val)
            rp = p.reciprocal
            a_max = float(row_norms(fam.matrix, p).max())
            ok = ok and a_max == pytest.approx(2.0 ** (n * rp), rel=1e-12)
        for rtok, rval in exponents.items():
            r = INF if rval is None else Exponent(rval)
            numerator = norm((1 << n) * np.ones(1 << n), r)
            ok = ok and numerator == pytest.approx(2.0 ** (n * (1.0 + r.reciprocal)), rel=1e-12)
        # log2-space certificate fields are the exact products
        if n <= 7:
            repn = hadamard_witness(t, 2.0 ** ((n - 0.5) * 0.5))  # forces this n
            ok = ok and repn.n == n
            ok = ok and repn.log2_numerator == n * (1.0 + t.r.reciprocal)
            ok = ok and repn.log2_multiplier_norm == n * t.p.reciprocal

    elapsed = time.perf_counter() - t0
    _report(1, ok and elapsed < 1.0, elapsed, 1,
            f"n=1 witness quotient {rep.exhaustive_quotient:.15f} vs sqrt(2)")
    assert ok
    assert elapsed < 1.0


def test_criterion_02_claim_bound():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for n in range(1, 5):
        fam = sylvester(n)
        for q in (1.0, 1.5, 2.0, 3.0, 4.0):
            rq2 = max(0.5, 1.0 / q)
            bound = 2.0 ** (n * (0.5 + rq2))
            res = subset_max_norm(fam, q)
            ok = ok and res.value <= bound * (1 + 1e-9)
            worst = max(worst, res.value / bound)
            if q >= 2.0:
                # equality 2^n, attained only at the full subset
                ok = ok and res.value == float(1 << n)
                ok = ok and res.argmax_subset == (1 << (1 << n)) - 1
    elapsed = time.perf_counter() - t0
    _report(2, ok and elapsed < 10.0, elapsed, 10,
            f"subset max within the 2^(n(1/2+1/q'')) bound; tightest fraction {worst:.6f}")
    assert ok
    assert elapsed < 10.0


def test_criterion_03_minimal_n():
    t0 = time.perf_counter()
    rep = hadamard_witness(ExponentTriple.of("inf", 2, 2), 10.0)
    ratio = 2.0 ** rep.certified_ratio_log2
    ok = rep.n == 7
    ok = ok and rep.certified_ratio_log2 == pytest.approx(3.5, abs=1e-15)
    ok = ok and ratio == pytest.approx(11.313708498984761, rel=1e-12) and ratio > 10.0
    # n = 6 fails: 6 * 0.5 must not exceed log2(10) by the strict margin
    gap = 0.5
    ok = ok and not (6 * gap - math.log2(10.0) > 1e-12)
    elapsed = time.perf_counter() - t0
    _report(3, ok and elapsed < 1.0, elapsed, 1, f"n=7, certified ratio {ratio:.6f} > 10; n=6 fails")
    assert ok
    assert elapsed < 1.0


def test_criterion_04_decision_table_and_lattice():
    t0 = time.perf_counter()
    table = [
        ((2, 2, 2), Verdict.PRESERVES, None),
        ((1, 1, "inf"), Verdict.PRESERVES, None),
        (("inf", 2, 1), Verdict.NOT_PRESERVES, Clause.R_BELOW_Q),
        ((3, 2, 2), Verdict.NOT_PRESERVES, Clause.STRICT_GAP),
        ((3, 3, 3), Verdict.UNKNOWN, None),
        ((3, 3, 1), Verdict.NOT_APPLICABLE, None),
    ]
    ok = True
    for triple, verdict, clause in table:
        c = classify(ExponentTriple.of(*triple))
        ok = ok and c.verdict is verdict and (clause is None or c.clause is clause)

    values = [1.0 + 0.2 * k for k in range(21)] + [8.0, 16.0, 64.0]
    exps = [Exponent(v) for v in values] + [INF]
    valid = 0
    for p in exps:
        for q in exps:
            for r in exps:
                t = ExponentTriple(p, q, r)
                if t.holder_valid:
                    valid += 1
                classify(t)  # raises InternalInconsistencyError on any clash
    ok = ok and valid >= 10_000
    elapsed = time.perf_counter() - t0
    _report(4, ok and elapsed < 5.0, elapsed, 5,
            f"decision table exact; {valid} Holder-valid lattice points, zero inconsistencies")
    assert ok
    assert elapsed < 5.0


def test_criterion_05_subset_sum_constants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250809)
    ok = real_subset_ratio([1.0, -1.0]).ratio == 2.0

    # cached scratch enumeration of all scalar subset sums, one matrix per n
    bits_cache = {}

    def scalar_enum_max(v):
        n = v.size
        if n not in bits_cache:
            masks = np.arange(1 << n, dtype=np.int64)
            bits_cache[n] = ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)
        return float(np.abs(bits_cache[n] @ v).max())

    worst_real = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 17))
        v = rng.standard_normal(n)
        rep = real_subset_ratio(v)
        worst_real = max(worst_real, rep.ratio)
        split_max = float(np.abs(v).sum()) / rep.ratio
        ok = ok and split_max == pytest.approx(scalar_enum_max(v), rel=1e-12)
    ok = ok and worst_real <= 2.0

    worst_complex = 0.0
    for _ in range(1_000):
        n = int(rng.integers(1, 15))
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        worst_complex = max(worst_complex, complex_subset_ratio(z).ratio)
    ok = ok and worst_complex <= 4.0

    roots = np.exp(2j * math.pi * np.arange(64) / 64.0)
    roots_ratio = complex_subset_ratio(roots).ratio
    ok = ok and 3.0 <= roots_ratio <= math.pi + 1e-9

    elapsed = time.perf_counter() - t0
    _report(5, ok and elapsed < 60.0, elapsed, 60,
            f"real max {worst_real:.6f} <= 2, complex max {worst_complex:.6f} <= 4, "
            f"64th roots {roots_ratio:.6f} in [3, pi]")
    assert ok
    assert elapsed < 60.0


def test_criterion_06_grothendieck_lower_bound(caplog):
    t0 = time.perf_counter()
    with caplog.at_level(logging.CRITICAL, logger="uncond.lemma_lab"):
        pair = grothendieck_ratio(Family.of([[1, 1], [1, -1]]))
        ok = abs(pair.ratio - SQRT2) <= 1e-12
        best = grothendieck_search(2, 2, budget=1_000, seed=1)
        ok = ok and best.ratio >= SQRT2 - 1e-9
        ok = ok and best.ratio <= 1.8 and pair.ratio <= 1.8
    ok = ok and not caplog.records  # a critical finding fails the criterion
    elapsed = time.perf_counter() - t0
    _report(6, ok and elapsed < 30.0, elapsed, 30,
            f"pair ratio {pair.ratio:.15f}, search best {best.ratio:.12f}, envelope 1.8 intact")
    assert ok
    assert elapsed < 30.0


def test_criterion_07_two_kg_inequality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    qs = (1.0, 1.5, 2.0, 3.0)
    K = 1.8
    violations = 0
    for trial in range(10_000):
        n = int(rng.integers(1, 13))
        d = int(rng.integers(1, 17))
        if trial % 3 == 0:
            A = rng.integers(-1, 2, size=(n, d)).astype(float)
            X = rng.integers(-1, 2, size=(n, d)).astype(float)
        else:
            A = rng.standard_normal((n, d))
            X = rng.standard_normal((n, d))
        if not (A.any() and X.any()):
            continue  # a zero denominator means a zero product: 0 <= 0
        q = qs[trial % 4]
        quotient = unconditionality_quotient(Family(A), Family(X), ExponentTriple.of(2, q, q)).quotient
        if not quotient <= 2 * K * (1 + EPS_NUM):
            violations += 1
    ok = violations == 0
    elapsed = time.perf_counter() - t0
    _report(7, ok and elapsed < 120.0, elapsed, 120,
            f"{violations} violations over 10000 families (n<=12, dim<=16)")
    assert ok
    assert elapsed < 120.0


def test_criterion_08_sup_output_constant():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    worst = 0.0
    count = 0
    for trial in range(10_000):
        n = int(rng.integers(1, 11))
        d = int(rng.integers(1, 9))
        p = Exponent(float(rng.uniform(1, 6))) if trial % 4 else INF
        q = Exponent(float(rng.uniform(1, 6))) if trial % 3 else INF
        t = ExponentTriple(p, q, INF)
        A = rng.standard_normal((n, d))
        X = rng.standard_normal((n, d))
        try:
            res = unconditionality_quotient(Family(A), Family(X), t)
        except ValueError:
            continue  # degenerate draw
        worst = max(worst, res.quotient)
        count += 1
    ok = worst <= 4.0 + 1e-9 and count >= 9_990
    elapsed = time.perf_counter() - t0
    _report(8, ok and elapsed < 60.0, elapsed, 60,
            f"largest sup-norm quotient {worst:.9f} over {count} families (bound 4)")
    assert ok
    assert elapsed < 60.0


def test_criterion_09_tail_witness():
    t0 = time.perf_counter()
    tw = tail_witness(2, 1, 5.0)
    oracle_n = harmonic_crossing(5.0)
    ok = tw.N == oracle_n and abs(oracle_n - 83) <= 1
    # monotone partial norms
    partials = [divergent_tail_norm(1, N) for N in range(1, 120)]
    ok = ok and all(a <= b for a, b in zip(partials, partials[1:]))
    # monotonically decreasing tail bound
    tails = [tail_q_bound(2, 1, N) for N in (1, 2, 4, 8, 16, 32, 64, 128)]
    ok = ok and all(a > b for a, b in zip(tails, tails[1:]))
    # minimality at every level
    for B in (1.0, 2.0, 5.0, 8.0):
        w = tail_witness(2, 1, B)
        ok = ok and w.partial_r_norm >= B
        if w.N > 1:
            ok = ok and divergent_tail_norm(1, w.N - 1) < B
    elapsed = time.perf_counter() - t0
    _report(9, ok and elapsed < 1.0, elapsed, 1,
            f"N={tw.N} matches the direct-summation oracle; monotone partials and tails")
    assert ok
    assert elapsed < 1.0


def test_criterion_10_gray_naive_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    qs = (1.0, 1.5, 2.0, 3.0, "inf")
    ok = True
    for trial in range(1_000):
        n = int(rng.integers(1, 13))
        d = int(rng.integers(1, 7))
        lattice = trial % 2 == 0
        if lattice:
            X = rng.integers(-1, 2, size=(n, d)).astype(float)
            if not X.any():
                X[0, 0] = 1.0
        else:
            X = rng.standard_normal((n, d))
        q = qs[trial % 5]
        got = subset_max_norm(Family(X), q)
        # naive scratch re-enumeration, first-in-Gray-order tie rule
        best_val, best_mask = -1.0, 0
        for i in range(1 << n):
            mask = gray(i)
            members = [k for k in range(n) if (mask >> k) & 1]
            s = X[members].sum(axis=0) if members else np.zeros(d)
            v = float(row_norms(s.reshape(1, -1), q)[0])
            if v > best_val:
                best_val, best_mask = v, mask
        ok = ok and got.argmax_subset == best_mask
        if lattice:
            ok = ok and got.value == best_val
        else:
            ok = ok and got.value == pytest.approx(best_val, rel=1e-12)
    elapsed = time.perf_counter() - t0
    _report(10, ok and elapsed < 30.0, elapsed, 30,
            "argmax bitmasks identical on 1000 families (n<=12), values agree")
    assert ok
    assert elapsed < 30.0
