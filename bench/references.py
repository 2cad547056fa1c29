"""Reference results for the benchmark, computed apart from ``uncond``.

Nothing here imports the package.  Each route differs from the one the
program takes: subset and sign maxima come from a bit-matrix product
(``bits @ X``) with a plain norm formula instead of a Gray-code walk,
closed forms replace enumeration where they exist, the decision table is
re-derived in exact ``Fraction`` arithmetic from the paper's statement, and
the divergent tail is bracketed by Euler-Maclaurin bounds instead of being
summed.  Every ``check_*`` raises :class:`CheckError` on a wrong output.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

INF = math.inf

#: Relative tolerance for values the program computes in another order.
#: The Gray walk reports its running cumsum value, which drifts from the
#: scratch norm of the reported subset by up to ~7e-14 relative at n <= 20.
REL_TOL = 1e-12

#: Krivine's upper bound pi / (2 ln(1 + sqrt 2)) on Grothendieck's constant;
#: every sign-pattern ratio of a finite family lies below it.
KRIVINE_BOUND = math.pi / (2.0 * math.log(1.0 + math.sqrt(2.0)))

EULER_GAMMA = 0.5772156649015329

# Masks per bit-matrix chunk: keeps the reference's memory well below the
# program's own enumeration blocks, so peak RSS reports the program.
_CHUNK = 1 << 12


class CheckError(AssertionError):
    """An output of the program disagrees with its reference."""


def check_close(what: str, got: float, want: float, rel: float = REL_TOL):
    if not abs(got - want) <= rel * max(abs(want), 1e-300):
        raise CheckError(f"{what}: got {got!r}, reference {want!r} (rel tol {rel:g})")


# ---------------------------------------------------------------- norms


def power_sums(S: np.ndarray, q: float) -> np.ndarray:
    """Row-wise sum |s|^q (max |s| for q = inf); plain formula, no scaling."""
    a = np.abs(S)
    if q == INF:
        return a.max(axis=1)
    if q == 1.0:
        return a.sum(axis=1)
    if q == 2.0:
        return (a * a).sum(axis=1)
    return (a**q).sum(axis=1)


def from_power_sum(s, q: float):
    return s if q in (1.0, INF) else s ** (1.0 / q)


def lp_norm(v, q: float) -> float:
    return float(from_power_sum(power_sums(np.asarray(v, dtype=np.float64).reshape(1, -1), q)[0], q))


# ------------------------------------------------- subset and sign maxima


def masked_sum(X: np.ndarray, mask: int, signs: bool) -> np.ndarray:
    """From scratch: sum of rows in ``mask`` or, for signs, sum s_k x_k with s_k = -1 on ``mask``."""
    n = X.shape[0]
    if mask < 0 or mask >> n:
        raise CheckError(f"mask {mask:#x} has bits outside the {n} family indices")
    bits = np.array([(mask >> k) & 1 for k in range(n)], dtype=np.float64)
    coeff = 1.0 - 2.0 * bits if signs else bits
    return coeff @ X


def max_power_sum(X: np.ndarray, q: float, signs: bool) -> float:
    """max over masks of sum |bits @ X|^q, enumerated as bit-matrix chunks."""
    n = X.shape[0]
    total = 1 << n
    shifts = np.arange(n, dtype=np.int64)
    best = -1.0
    for lo in range(0, total, _CHUNK):
        masks = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        bits = ((masks[:, None] >> shifts) & 1).astype(np.float64)
        coeff = 1.0 - 2.0 * bits if signs else bits
        best = max(best, float(power_sums(coeff @ X, q).max()))
    return best


def subset_max(X: np.ndarray, q: float, signs: bool = False) -> float:
    return float(from_power_sum(max_power_sum(X, q, signs), q))


def qinf_subset_max(X: np.ndarray) -> float:
    """Closed form for q = inf: the largest column positive-part or negative-part sum."""
    if X.size == 0:
        return 0.0
    return float(max(np.maximum(X, 0.0).sum(axis=0).max(), np.maximum(-X, 0.0).sum(axis=0).max()))


def q1_sign_max(X: np.ndarray) -> float:
    """Closed form for the q = 1 sign max: max over t in {+-1}^d of sum_k |<t, x_k>|."""
    d = X.shape[1]
    ts = 1.0 - 2.0 * ((np.arange(1 << d)[:, None] >> np.arange(d)) & 1)
    return float(np.abs(ts @ X.T).sum(axis=1).max())


def is_integer_family(X: np.ndarray) -> bool:
    return bool(np.all(X == np.round(X)) and np.abs(X).sum() < 2.0**40)


def check_subset_result(X, q: float, signs: bool, value: float, mask: int, ref_power: float):
    """The value and the scratch norm of the reported mask both match the reference maximum.

    For integer families at q in {1, 2, inf} every subset sum and power sum
    is an exact integer, so the reported mask must attain the maximum exactly.
    """
    ref = float(from_power_sum(ref_power, q))
    check_close("subset/sign max value", value, ref)
    got_power = float(power_sums(masked_sum(X, mask, signs).reshape(1, -1), q)[0])
    if is_integer_family(X) and q in (1.0, 2.0, INF):
        if got_power != ref_power:
            raise CheckError(f"mask {mask:#x} attains {got_power!r}, exact maximum is {ref_power!r}")
    else:
        check_close(f"norm of reported mask {mask:#x}", float(from_power_sum(got_power, q)), ref)


def reference_quotient(A: np.ndarray, X: np.ndarray, p: float, q: float, r: float, sub_power: float) -> float:
    numerator = lp_norm((A * X).sum(axis=0), r)
    a_max = max(lp_norm(row, p) for row in A)
    return numerator / (a_max * float(from_power_sum(sub_power, q)))


def check_ratio_report(X: np.ndarray, ratio: float):
    """A sign-pattern ratio recomputed from its witness family, and Krivine's bound."""
    want = float(np.sqrt((X * X).sum(axis=1)).sum()) / q1_sign_max(X)
    check_close("sign-pattern ratio from its witness family", ratio, want)
    if not ratio <= KRIVINE_BOUND:
        raise CheckError(f"sign-pattern ratio {ratio!r} exceeds Krivine's bound {KRIVINE_BOUND!r}")


def check_search_quotient(quotient: float, numerator: float, denominator: float, n: int):
    """Every single x_k is a subset, so by Hoelder a quotient lies in (0, n]."""
    if not 0.0 < quotient <= n * (1.0 + REL_TOL):
        raise CheckError(f"search quotient {quotient!r} outside (0, {n}]")
    check_close("quotient = numerator / denominator", quotient, numerator / denominator, 0.0)


def check_nondecreasing(what: str, values):
    for a, b in zip(values, values[1:]):
        if b < a:
            raise CheckError(f"{what}: best value fell from {a!r} to {b!r} as the budget grew")


# ---------------------------------------------------- the decision table


def reciprocal(x) -> Fraction:
    """1/x exactly, for a float exponent or inf."""
    return Fraction(0) if x == INF else 1 / Fraction(x)


def decide(p, q, r):
    """(verdict, clause, margin) re-derived from the paper's statement in exact arithmetic.

    Preserves when r = inf, or p <= 2 and q <= r; NotPreserves when r < q, or
    1/2 + 1/r > 1/p + 1/min(2,q); Unknown otherwise; NotApplicable when
    1/r > 1/p + 1/q, except that for p = inf that gate failure says r < q
    and the tail counterexample applies.
    """
    rp, rq, rr = reciprocal(p), reciprocal(q), reciprocal(r)
    half = Fraction(1, 2)
    margin = min(abs(rp + rq - rr), abs(rp - half), abs(rq - rr), abs(half + rr - rp - max(half, rq)))
    if rr > rp + rq:
        if rp == 0:
            return "NotPreserves", "T1.4-2-rLtQ", margin
        return "NotApplicable", "HolderInvalid", margin
    r_inf, nested = rr == 0, rp >= half and rq >= rr
    r_lt_q, strict = rr > rq, half + rr > rp + max(half, rq)
    if (r_inf or nested) and (r_lt_q or strict):
        raise CheckError(f"paper clauses overlap at {(p, q, r)}")
    if r_inf or nested:
        return "Preserves", "T1.4-1-rInf" if r_inf else "T1.4-1-pLe2qLeR", margin
    if r_lt_q or strict:
        return "NotPreserves", "T1.4-2-rLtQ" if r_lt_q else "T1.4-2-strict", margin
    return "Unknown", "Open", margin


def check_classification(p, q, r, verdict: str, clause: str, margin: float):
    want_v, want_c, want_m = decide(p, q, r)
    if (verdict, clause) != (want_v, want_c):
        raise CheckError(f"({p}, {q}, {r}): got {verdict}/{clause}, table says {want_v}/{want_c}")
    if not abs(margin - float(want_m)) <= 1e-12:
        raise CheckError(f"({p}, {q}, {r}): margin {margin!r}, exact {float(want_m)!r}")


# ---------------------------------------------------- Hadamard witnesses


def strict_gap(p, q, r) -> Fraction:
    half = Fraction(1, 2)
    return half + reciprocal(r) - reciprocal(p) - max(half, reciprocal(q))


def minimal_witness_n(p, q, r, C: float) -> int:
    """Smallest n >= 1 with n * gap > log2(C), from the closed form floor(log2 C / gap) + 1."""
    gap = strict_gap(p, q, r)
    if gap <= 0:
        raise CheckError(f"no Hadamard witness exists at {(p, q, r)}")
    return max(1, math.floor(Fraction(math.log2(C)) / gap) + 1)


def sylvester_entries(n: int) -> np.ndarray:
    """H[i, j] = (-1)^popcount(i & j), the n-th Sylvester matrix without doubling."""
    idx = np.arange(1 << n, dtype=np.uint16)
    both = idx[:, None] & idx[None, :]
    parity = np.zeros_like(both)
    for b in range(n):
        parity ^= (both >> b) & 1
    return 1 - 2 * parity.astype(np.int8)


def hadamard_quotient(n: int, p, q, r) -> float:
    """Exact quotient of the 2^n Sylvester rows used as multipliers and summands."""
    H = sylvester_entries(n).astype(np.float64)
    return reference_quotient(H, H, p, q, r, max_power_sum(H, q, signs=False))


def check_witness_size(p, q, r, C: float, n: int, certified_ratio_log2: float):
    want = minimal_witness_n(p, q, r, C)
    if n != want:
        raise CheckError(f"witness size at {(p, q, r)}, C={C!r}: got n={n}, minimal is {want}")
    check_close("certified_ratio_log2", certified_ratio_log2, float(n * strict_gap(p, q, r)))
    if not certified_ratio_log2 > math.log2(C):
        raise CheckError(f"certified ratio 2^{certified_ratio_log2!r} does not exceed C={C!r}")


def check_exhaustive_quotient(exq: float, certified_ratio_log2: float, want: float):
    check_close("exhaustive Sylvester quotient", exq, want)
    if not exq >= 2.0**certified_ratio_log2 * (1.0 - REL_TOL):
        raise CheckError(f"exhaustive quotient {exq!r} below the certificate 2^{certified_ratio_log2!r}")


# ---------------------------------------------------- divergent tails


def harmonic_bracket(N: int) -> tuple[float, float]:
    """Bounds on H_N = sum_{n<=N} 1/n from the enveloping Euler-Maclaurin series."""
    if N == 0:
        return 0.0, 0.0
    lo = math.log(N) + EULER_GAMMA + 0.5 / N - 1.0 / (12.0 * N * N)
    return lo, lo + 1.0 / (120.0 * N**4)


def zeta_tail_bracket(s: float, a: int) -> tuple[float, float]:
    """Bounds on zeta(s, a) = sum_{n>=a} n^-s for s > 1: the integral plus enveloping corrections."""
    hi = a ** (1.0 - s) / (s - 1.0) + 0.5 * a**-s + s * a ** (-s - 1.0) / 12.0
    return hi - s * (s + 1.0) * (s + 2.0) * a ** (-s - 3.0) / 720.0, hi


def check_tail(q: float, r: float, B: float, N: int, partial_r_norm: float, tail_q_bound: float):
    """N is the first crossing of H_N >= B^r, and the two norms match their brackets."""
    target = B**r
    # float summation of N terms drifts by at most about N ulps of the sum
    slack = 2.0 * N * 2.0**-53 * target + 1e-13 * target
    lo_n, hi_n = harmonic_bracket(N)
    lo_prev, _ = harmonic_bracket(N - 1)
    if N < 1 or not hi_n + slack >= target or not lo_prev - slack < target:
        raise CheckError(f"N={N} is not the first harmonic crossing of {target!r}")
    pr = partial_r_norm**r
    if not lo_n - slack <= pr <= hi_n + slack:
        raise CheckError(f"partial l_r norm {partial_r_norm!r} does not match H_{N}^(1/r)")
    if q == INF:
        check_close("sup-norm tail bound", tail_q_bound, (N + 1.0) ** (-1.0 / r))
        return
    lo, hi = zeta_tail_bracket(q / r, N + 1)
    tq = tail_q_bound**q
    if not lo * (1.0 - REL_TOL) <= tq <= hi * (1.0 + REL_TOL):
        raise CheckError(f"l_q tail bound {tail_q_bound!r} outside its zeta bracket")
