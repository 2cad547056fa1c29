"""Independent oracles the tests check the library against.

Everything here recomputes results from scratch by a different route than
the library (naive re-enumeration, direct summation, closed forms) so a bug
cannot hide in shared code paths.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from uncond.classifier import Classification, Clause, Verdict
from uncond.errors import InternalInconsistencyError
from uncond.lemma_lab import grothendieck_ratio
from uncond.seqspace import EPS_CMP, EPS_NUM, Exponent, ExponentTriple, norm, row_norms
from uncond import unconditionality as U
from uncond.unconditionality import Family, unconditionality_quotient
from uncond.witness import second_clause_gap


def gray(i: int) -> int:
    return i ^ (i >> 1)


def naive_subset_max(X: np.ndarray, q):
    """Walk subsets in Gray order, recomputing every subset sum from scratch.

    Tie rule: first attainment in Gray order (strict improvement only).
    """
    n = X.shape[0]
    best_val, best_mask = -1.0, 0
    for i in range(1 << n):
        mask = gray(i)
        members = [k for k in range(n) if (mask >> k) & 1]
        s = X[members].sum(axis=0) if members else np.zeros(X.shape[1])
        v = float(row_norms(s.reshape(1, -1), q)[0])
        if v > best_val:
            best_val, best_mask = v, mask
    return best_val, best_mask


def naive_sign_max(X: np.ndarray, q):
    """All 2^n sign patterns from scratch; bit = 1 encodes sign -1."""
    n = X.shape[0]
    best_val, best_mask = -1.0, 0
    for i in range(1 << n):
        mask = gray(i)
        signs = np.array([-1.0 if (mask >> k) & 1 else 1.0 for k in range(n)])
        s = (signs[:, None] * X).sum(axis=0)
        v = float(row_norms(s.reshape(1, -1), q)[0])
        if v > best_val:
            best_val, best_mask = v, mask
    return best_val, best_mask


def sequential_scratch_max(X: np.ndarray, q, signs: bool = False):
    """Every subset (or sign pattern) of X in Gray order, each sum added row by row in index order.

    Vectorized over masks in chunks; the sums are accumulated with one
    explicit addition per row, so they are the plain left-to-right sums for
    every ambient length.  Tie rule: first attainment in Gray order.
    """
    n = X.shape[0]
    best_val, best_mask = -1.0, 0
    for lo in range(0, 1 << n, 4096):
        idx = np.arange(lo, min(lo + 4096, 1 << n))
        masks = idx ^ (idx >> 1)
        acc = np.zeros((masks.size, X.shape[1]))
        for k in range(n):
            bit = ((masks >> k) & 1).astype(float)
            acc = acc + ((1.0 - 2.0 * bit) if signs else bit)[:, None] * X[k]
        vals = row_norms(acc, q)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_mask = float(vals[k]), int(masks[k])
    return best_val, best_mask


def cumsum_scratch_norms(X: np.ndarray, masks: np.ndarray, q, signs: bool = False) -> np.ndarray:
    """The lq norm of each int64 mask's subset sum (or signed sum, bit = 1 meaning -1) of the rows of X.

    The per-candidate formula the kernel's scratch evaluator must match bit
    for bit: one row of coefficients per mask from its bits, the terms
    summed over the rows of X by a cumsum in index order, and each sum's
    norm by ``row_major_norms``.
    """
    bit = masks[:, None] >> np.arange(X.shape[0]) & 1
    coef = 1.0 - 2.0 * bit if signs else bit.astype(np.float64)
    terms = coef[:, :, None] * X
    np.cumsum(terms, axis=1, out=terms)
    return row_major_norms(terms[:, -1], q)


def dual_l1_max(X: np.ndarray, signs: bool = False) -> Fraction:
    """The exact largest l1 norm of a subset sum (or signed sum) of the rows of X, by duality.

    ||v||_1 = max over sigma in {-1,1}^d of <sigma, v>, so the subset max is
    max_sigma sum_k <sigma, x_k>^+ and the sign max is
    max_sigma sum_k |<sigma, x_k>|.  Every entry becomes a Fraction, so no
    step rounds.
    """
    rows = [[Fraction(float(v)) for v in row] for row in X]
    best = Fraction(0)
    for sigma in itertools.product((1, -1), repeat=X.shape[1]):
        dots = [sum(s * v for s, v in zip(sigma, row)) for row in rows]
        best = max(best, sum(abs(t) for t in dots) if signs else sum(t for t in dots if t > 0))
    return best


def column_inf_max(X: np.ndarray, signs: bool = False) -> Fraction:
    """The exact largest sup norm of a subset sum (or signed sum) of the rows of X.

    ||v||_inf is the max of sigma * v_j over columns j and sigma = +-1, so the
    subset max is the largest column sum of positive parts or of negative
    parts, and the sign max the largest column sum of absolute values; in
    Fractions.
    """
    best = Fraction(0)
    for j, sigma in itertools.product(range(X.shape[1]), (1, -1)):
        col = [sigma * Fraction(float(v)) for v in X[:, j]]
        best = max(best, sum(abs(t) for t in col) if signs else sum(t for t in col if t > 0))
    return best


def exact_norm(X: np.ndarray, mask: int, q, signs: bool = False) -> Fraction:
    """The l1 or sup norm (q = 1 or 'inf') of one mask's subset sum (or signed sum), in Fractions."""
    n, d = X.shape
    coef = [(-1 if (mask >> k) & 1 else 1) if signs else (mask >> k) & 1 for k in range(n)]
    total = [sum(c * Fraction(float(X[k, j])) for k, c in enumerate(coef)) for j in range(d)]
    return max(map(abs, total), default=Fraction(0)) if q == "inf" else sum(map(abs, total))


def _dyadic_ints(*arrays: np.ndarray) -> tuple[list, int]:
    """The arrays as object arrays of Python ints, all scaled by one power of two, and that power.

    Every float is an integer times a power of two, so the largest
    denominator among the entries is a multiple of every other one.
    """
    fracs = [[Fraction(float(v)) for v in a.reshape(-1)] for a in arrays]
    den = max((f.denominator for fr in fracs for f in fr), default=1)
    ints = [np.array([int(f * den) for f in fr], dtype=object).reshape(a.shape) for fr, a in zip(fracs, arrays)]
    return ints, den


def _coefficients(n: int, signs: bool) -> np.ndarray:
    """Every subset indicator (or sign vector, bit = 1 meaning -1) of length n, as Python ints."""
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    return (1 - 2 * bits if signs else bits).astype(object)


def exact_l2_sq_max(X: np.ndarray, signs: bool = False) -> Fraction:
    """The exact largest squared l2 norm of a subset sum (or signed sum) of the rows of X, n <= 12.

    X is scaled to Python integers by one power of two, and the squared norm
    of c^T X is c^T G c for the integer Gram matrix G, evaluated for every
    coefficient vector c without rounding.
    """
    n = X.shape[0]
    if n > 12:
        raise ValueError("exact_l2_sq_max enumerates 2^n coefficient vectors; n <= 12")
    (ints,), den = _dyadic_ints(X)
    coef = _coefficients(n, signs)
    vals = ((coef @ (ints @ ints.T)) * coef).sum(axis=1)
    return Fraction(int(vals.max()), den * den)


def exact_l2_sq(X: np.ndarray, mask: int, signs: bool = False) -> Fraction:
    """The exact squared l2 norm of one mask's subset sum (or signed sum) of the rows of X."""
    (ints,), den = _dyadic_ints(X)
    n = X.shape[0]
    coef = np.array([(-1 if (mask >> k) & 1 else 1) if signs else (mask >> k) & 1 for k in range(n)], dtype=object)
    total = coef @ ints
    return Fraction(int((total * total).sum()), den * den)


def gram_form_max(W: np.ndarray, X: np.ndarray) -> Fraction:
    """max over subset indicators and sign vectors c of |c^T (W W^T - X X^T) c|, exactly (n <= 12)."""
    n = X.shape[0]
    (iw, ix), den = _dyadic_ints(W, X)
    E = iw @ iw.T - ix @ ix.T
    best = 0
    for signs in (False, True):
        coef = _coefficients(n, signs)
        best = max(best, max(abs(int(v)) for v in ((coef @ E) * coef).sum(axis=1)))
    return Fraction(best, den * den)


def scratch_sum(X: np.ndarray, mask: int, signs: bool = False) -> np.ndarray:
    """The subset sum (or signed sum, bit = 1 meaning -1) of one mask, as the naive oracles form it."""
    n = X.shape[0]
    if signs:
        coef = np.array([-1.0 if (mask >> k) & 1 else 1.0 for k in range(n)])
        return (coef[:, None] * X).sum(axis=0)
    members = [k for k in range(n) if (mask >> k) & 1]
    return X[members].sum(axis=0) if members else np.zeros(X.shape[1])


def scalar_subset_max_abs(x: np.ndarray) -> float:
    """max_F |sum_F x_k| for real scalars by full enumeration (vectorized)."""
    n = x.size
    masks = np.arange(1 << n, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)
    return float(np.abs(bits @ x).max())


def complex_subset_max_naive(z: np.ndarray) -> float:
    """max_F |sum_F z_k| by direct enumeration of all subsets."""
    n = z.size
    best = 0.0
    for mask in range(1 << n):
        s = 0.0 + 0.0j
        for k in range(n):
            if (mask >> k) & 1:
                s += z[k]
        best = max(best, abs(s))
    return best


def direct_norm(v, p) -> float:
    """lp norm by direct fsum evaluation; p may be the string 'inf'."""
    vals = [abs(float(t)) for t in v]
    if p == "inf" or p == math.inf:
        return max(vals, default=0.0)
    return math.fsum(t ** p for t in vals) ** (1.0 / p)


def row_major_norms(mat: np.ndarray, p) -> np.ndarray:
    """lp norms of the rows of a 2-d array, each row reduced along axis 1 of a C-order absolute copy.

    The row-major formula, which ``row_norms`` must match bit for bit
    whatever layout it reduces: scale by the row's largest entry, power,
    add, root.
    """
    p = Exponent.of(p)
    a = np.abs(np.asarray(mat, dtype=np.float64), order="C")
    if a.shape[1] == 0:
        return np.zeros(a.shape[0])
    if p.is_infinite:
        return np.maximum.reduce(a, axis=1)
    if p.value == 1.0:
        return np.add.reduce(a, axis=1)
    m = np.maximum.reduce(a, axis=1)
    a /= np.maximum(m, np.finfo(np.float64).smallest_subnormal)[:, None]
    a = a * a if p.value == 2.0 else np.power(a, p.value)
    return m * np.power(np.add.reduce(a, axis=1), 1.0 / p.value)


def direct_quotient(A: np.ndarray, X: np.ndarray, p, q, r) -> tuple[float, float]:
    """(numerator, denominator) of the unconditionality quotient, from scratch.

    The numerator is the direct lr norm of sum_k a_k x_k, each coordinate an
    fsum; the denominator is the largest direct lp norm of a row of A times
    the naive subset max of X.  Exponents are numbers or the string 'inf'.
    """
    total = [math.fsum(A[:, j] * X[:, j]) for j in range(A.shape[1])]
    a_max = max(direct_norm(row, p) for row in A)
    return direct_norm(total, r), a_max * naive_subset_max(X, q)[0]


def sylvester_entries(n: int) -> np.ndarray:
    """The 2^n x 2^n Sylvester matrix from its closed form H[i, j] = (-1)^popcount(i & j), without doubling."""
    idx = np.arange(1 << n)
    both = idx[:, None] & idx[None, :]
    ones = np.zeros_like(both)
    for b in range(n):
        ones += (both >> b) & 1
    return np.where(ones % 2 == 1, -1, 1)


def harmonic_sum(N: int) -> float:
    """sum_{n<=N} 1/n, added left to right one term at a time."""
    s = 0.0
    for n in range(1, N + 1):
        s += 1.0 / n
    return s


def harmonic_ulps(N: int, value: float) -> float:
    """How far ``value`` is from H_N = sum_{n<=N} 1/n, in ulps of H_N, with H_N from mpmath at 40 digits."""
    import mpmath

    with mpmath.workdps(40):
        exact = mpmath.harmonic(N)
        return float(abs(mpmath.mpf(value) - exact)) / math.ulp(float(exact))


def harmonic_crossing(target: float) -> int:
    """Smallest N with sum_{n<=N} 1/n >= target, by direct summation."""
    s = 0.0
    n = 0
    while s < target:
        n += 1
        s += 1.0 / n
    return n


def minimal_witness_n(rp: float, rq: float, rr: float, C: float, eps: float = 1e-12) -> int:
    """Smallest n >= 1 with n(1+1/r) > log2(C) + n(1/p + 1/2 + 1/min(2,q))."""
    rq2 = max(0.5, rq)
    log2c = math.log2(C)
    n = 1
    while not (n * (1.0 + rr) - (log2c + n * (rp + 0.5 + rq2)) > eps):
        n += 1
        if n > 1000:
            raise AssertionError("no witness size below 1000")
    return n


def _public_quotient_or_none(A: np.ndarray, X: np.ndarray, t):
    try:
        return unconditionality_quotient(Family(A), Family(X), t)
    except ValueError:
        return None


def public_refine(A: np.ndarray, X: np.ndarray, t, best, sweeps=3, steps=(0.5, 0.1)):
    """Moves of +-scale * max(1, |entry|) on A, then X, each scored by a fresh public quotient.

    Every evaluation builds new families and re-enumerates X.  The moves of
    one row at one scale, entry by entry and + before -, are all scored from
    the same entries; the first of the best of them is kept only if strictly
    better than the held quotient.  Returns (A, X, best QuotientResult).
    """
    A = A.copy()
    X = X.copy()
    n, dim = A.shape
    for _ in range(sweeps):
        improved = False
        for scale in steps:
            for M in (A, X):
                for i in range(n):
                    top = None
                    for j in range(dim):
                        span = max(1.0, abs(M[i, j]))
                        orig = M[i, j]
                        for delta in (scale * span, -scale * span):
                            M[i, j] = orig + delta
                            res = _public_quotient_or_none(A, X, t)
                            M[i, j] = orig
                            if res is not None and (top is None or res.quotient > top[0].quotient):
                                top = (res, j, delta)
                    if top is not None and top[0].quotient > best.quotient:
                        best, j, delta = top
                        M[i, j] += delta
                        improved = True
        if not improved:
            break
    return A, X, best


def public_quotient_search(t, n: int, dim: int, budget: int, seed):
    """The seeded quotient search with every evaluation a public ``unconditionality_quotient``.

    Same draws, the same 0.8 refinement threshold and the same tie rules
    (strict improvement only) as ``quotient_lower_bound_search``.
    """
    best = None
    for trial, child in enumerate(np.random.SeedSequence(seed).spawn(budget)):
        rng = np.random.default_rng(child)
        if trial % 2 == 0:
            A = rng.integers(-1, 2, size=(n, dim)).astype(np.float64)
            X = rng.integers(-1, 2, size=(n, dim)).astype(np.float64)
        else:
            A = rng.standard_normal((n, dim))
            X = rng.standard_normal((n, dim))
        res = _public_quotient_or_none(A, X, t)
        if res is None:
            continue
        if best is None or res.quotient > 0.8 * best.quotient:
            _, _, res = public_refine(A, X, t, res)
        if best is None or res.quotient > best.quotient:
            best = res
    if best is None:
        raise ValueError("search drew only degenerate families; increase the budget")
    return best


def per_draw_quotient_bests(t, n: int, dim: int, budget: int, seed) -> list:
    """The seeded quotient search scoring each draw alone, as a stack of one: its best after each trial.

    Entry k is the result ``quotient_lower_bound_search`` must give at
    budget k + 1 (trial k runs on child k of ``SeedSequence(seed)`` at every
    budget), or None where every draw so far was degenerate.  Same draws,
    the same 0.8 refinement gate and ``_refine_families`` climb, and strict
    improvement only; no draws are scored together.
    """
    best, bests = None, []
    for trial, child in enumerate(np.random.SeedSequence(seed).spawn(budget)):
        rng = np.random.default_rng(child)
        if trial % 2 == 0:
            A, X = (rng.integers(-1, 2, size=(n, dim)).astype(np.float64) for _ in range(2))
        else:
            A, X = (rng.standard_normal((n, dim)) for _ in range(2))
        res = U._quotient_parts(A, X, t)
        if res is not None and (best is None or res.quotient > 0.8 * best.quotient):
            res = U._refine_families(A, X, t, res)
        if res is not None and (best is None or res.quotient > best.quotient):
            best = res
        bests.append(None if best is None else best.result())
    return bests


def public_sign_search(n: int, dim: int, budget: int, seed):
    """The seeded sign-pattern search with a public ``grothendieck_ratio`` on every flip."""
    best = None
    for trial, child in enumerate(np.random.SeedSequence(seed).spawn(budget)):
        rng = np.random.default_rng(child)
        if trial % 2 == 0:
            X = (rng.integers(0, 2, size=(n, dim)) * 2 - 1).astype(np.float64)
        else:
            X = rng.standard_normal((n, dim))
        try:
            rep = grothendieck_ratio(Family(X))
        except ValueError:
            continue
        for _ in range(8):
            improved = False
            for i in range(n):
                for j in range(dim):
                    X[i, j] = -X[i, j]
                    try:
                        cand = grothendieck_ratio(Family(X))
                    except ValueError:
                        cand = None
                    if cand is not None and cand.ratio > rep.ratio:
                        rep = cand
                        improved = True
                    else:
                        X[i, j] = -X[i, j]
            if not improved:
                break
        if best is None or rep.ratio > best.ratio:
            best = rep
    if best is None:
        raise ValueError("search drew only degenerate families; increase the budget")
    return best


def sandwich_sweep_loop(dims, p_q_pairs, trials: int, seed) -> dict:
    """The JSON of ``lemma_lab.sandwich_sweep``, one vector and one ``norm`` call at a time.

    Draws each vector separately from the same seeded stream and keeps
    running minima of the two slacks.
    """
    rng = np.random.default_rng(seed)
    records = []
    for pv, qv in p_q_pairs:
        p, q = Exponent.of(pv), Exponent.of(qv)
        for dim in dims:
            violations = 0
            min_lower = min_upper = math.inf
            factor = float(dim) ** (p.reciprocal - q.reciprocal)
            for _ in range(trials):
                v = rng.standard_normal(dim)
                np_, nq = norm(v, p), norm(v, q)
                lower_slack = np_ - nq
                upper_slack = factor * nq - np_
                if lower_slack < -EPS_NUM * max(1.0, np_) or upper_slack < -EPS_NUM * max(1.0, np_):
                    violations += 1
                min_lower = min(min_lower, lower_slack)
                min_upper = min(min_upper, upper_slack)
            records.append({
                "p": p.to_json(), "q": q.to_json(), "dim": int(dim), "trials": trials,
                "violations": violations, "min_lower_slack": min_lower,
                "min_upper_slack": min_upper,
            })
    return {"violations": sum(r["violations"] for r in records), "records": records}


def lattice_loop(rng, step) -> list:
    """The points lo + k * step for k = 0, 1, ... while at most hi + EPS_CMP, clipped at hi.

    One point at a time until the first past hi + EPS_CMP, with no count
    worked out first.
    """
    lo, hi = float(rng[0]), float(rng[1])
    vals = []
    k = 0
    while True:
        v = lo + k * step
        if v > hi + EPS_CMP:
            break
        vals.append(Exponent(min(v, hi)))
        k += 1
    return vals


def classify(t: ExponentTriple) -> Classification:
    """The decision table for one triple, evaluated in Python floats clause by clause.

    The per-point rule the library replaced with its lattice kernel, kept as
    the reference: the same float expressions and clause priority, and the
    nested clause decides where it overlaps the strict one.
    """
    rp, rq, rr = t.p.reciprocal, t.q.reciprocal, t.r.reciprocal
    gap = second_clause_gap(t)
    margin = min(abs(rp + rq - rr), abs(rp - 0.5), abs(rq - rr), abs(gap))
    if rr > rp + rq + EPS_CMP:
        if t.p.is_infinite:
            return Classification(t, Verdict.NOT_PRESERVES, Clause.R_BELOW_Q, margin)
        return Classification(t, Verdict.NOT_APPLICABLE, Clause.HOLDER_INVALID, margin)

    preserves_r_inf = t.r.is_infinite
    preserves_nested = rp >= 0.5 - EPS_CMP and rq >= rr - EPS_CMP
    not_preserves_r_lt_q = rr > rq + EPS_CMP
    not_preserves_strict = gap > EPS_CMP and not preserves_nested

    fires_preserve = preserves_r_inf or preserves_nested
    fires_not = not_preserves_r_lt_q or not_preserves_strict
    if fires_preserve and fires_not:
        raise InternalInconsistencyError(
            f"both clause families fire for {t}; the implemented clauses must be disjoint"
        )
    if fires_preserve:
        clause = Clause.R_INFINITE if preserves_r_inf else Clause.SMALL_P_NESTED_Q
        return Classification(t, Verdict.PRESERVES, clause, margin)
    if fires_not:
        clause = Clause.R_BELOW_Q if not_preserves_r_lt_q else Clause.STRICT_GAP
        return Classification(t, Verdict.NOT_PRESERVES, clause, margin)
    return Classification(t, Verdict.UNKNOWN, Clause.OPEN, margin)


def power_tail_norm(q, r, N: int, dps: int = 50):
    """||(n^(-1/r))_{n>N}||_q as an mpmath number correct to about ``dps`` digits.

    With a = N+1 and s = q/r (exact, from the floats q and r), the norm is
    a^(-1/r) T^(1/q) with T = sum_{k>=0} (a/(a+k))^s.  Terms are summed
    directly until the rest, at most (a/(a+k))^s (1 + (a+k)/(s-1)), is
    negligible, or until b = a + k is past 4(s + 40) + 64; the rest is then
    the Euler-Maclaurin sum from b with twenty exact Bernoulli corrections,
    and the first one omitted, which bounds its error, is checked to be
    negligible.  (mpmath's own Hurwitz zeta is off by up to 1e-10 relative
    at a in the hundreds, so it is not used.)
    """
    import mpmath

    with mpmath.workdps(dps):
        a = mpmath.mpf(N + 1)
        if q == math.inf:
            return a ** (-1 / mpmath.mpf(r))
        s, J = mpmath.mpf(q) / mpmath.mpf(r), 20
        eps = mpmath.mpf(10) ** -(dps + 5)
        total, k = mpmath.mpf(0), 0
        while True:
            t = (a / (a + k)) ** s
            if t * (1 + (a + k) / (s - 1)) < eps * total:
                break
            b = a + k
            if b > 4 * (s + 2 * J) + 64:
                em = b / (s - 1) + mpmath.mpf(1) / 2
                for j in range(1, J + 1):
                    em += mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * mpmath.rf(s, 2 * j - 1) / b ** (2 * j - 1)
                total += t * em
                omitted = mpmath.bernoulli(2 * J + 2) / mpmath.factorial(2 * J + 2) * mpmath.rf(s, 2 * J + 1) / b ** (2 * J + 1)
                assert abs(t * omitted) < eps * total, "Euler-Maclaurin remainder not negligible"
                break
            total += t
            k += 1
        return a ** (-1 / mpmath.mpf(r)) * total ** (1 / mpmath.mpf(q))
