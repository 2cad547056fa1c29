"""Constructive non-preservation witnesses.

Two generators:

* ``hadamard_witness`` builds, for a triple with 1/2 + 1/r > 1/p + 1/min(2,q),
  a family of 2^n orthogonal +-1 rows whose quotient provably exceeds any
  prescribed constant C.  The certificate lives in log2 space: the product
  vector is constantly 2^n on 2^n coordinates, so the numerator is exactly
  2^(n(1+1/r)), while every subset sum of the rows is bounded by
  2^(n(1/2+1/q'')) with q'' = min(2, q).  The rows are the ``Family``
  ``sylvester(n)``, materialized only up to n = MATERIALIZE_MAX_LOG.

* ``tail_witness`` exhibits, for r < q, the power sequence x(n) = n^(-1/r)
  whose basis expansion is unconditionally Cauchy in lq (summable tail) while
  its partial lr norms grow beyond any bound B.

The partial lr norms of that sequence are harmonic numbers H_N to the power
1/r.  ``tail_witness`` and ``divergent_tail_norm`` take them from one routine
(``_harmonic``): below N = 256 a table of left-to-right float sums, from
there the Euler-Maclaurin expansion of H_N, which needs no summation at all.

The Hadamard witnesses are constants of their size, so each is computed
once per process, lazily, and kept:

* ``sylvester(n)`` returns one shared read-only ``Family`` per
  n <= MATERIALIZE_MAX_LOG; all eleven together hold (4^11 - 1)/3 float64
  entries, at most 11.2 MB.
* The exact kernel's answer for the subset maximum of ``sylvester(n)`` at
  q, its (value, mask) or None where it refuses, is kept per (n, q) in an
  LRU of _SYLVESTER_MAX_CACHE entries of a few hundred bytes each.

The lq norm of the tail beyond N is zeta(q/r, N+1)^(1/q), with zeta the
Hurwitz zeta function.  ``tail_q_bound`` bounds it from above in closed form:
nine terms of the sum, then an Euler-Maclaurin remainder cut after a positive
correction, which an enveloping series makes an upper bound, and the result
raised by a margin that covers every rounding on the way.  It is within
1.2e-11 of the exact norm, relative, and needs no special function.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .seqspace import EPS_CMP, Exponent, ExponentLike, ExponentTriple, _require_int
from .unconditionality import Family, ReachError, _exhaustive_best, _finite_parts

#: Families are materialized only while they hold at most 2^20 float64 entries (8 MB).
MATERIALIZE_MAX_LOG = 10
#: Cap on the certificate step count.  Beyond MATERIALIZE_MAX_LOG the
#: certificate is pure log2 arithmetic, so the cap only keeps 2^n a finite float.
WITNESS_MAX_LOG = 1023
#: The domain of the harmonic numbers H_N: N <= TAIL_MAX_TERMS.  A tail
#: level B whose crossing lies past it is "B too large for desk scale".
TAIL_MAX_TERMS = 10_000_000
#: Euler's constant gamma, rounded to binary64.
_EULER_GAMMA = 0.5772156649015329
#: H_0, ..., H_255, each the left-to-right float sum 1/1 + 1/2 + ... + 1/N.
_HARMONIC_TABLE = (0.0, *itertools.accumulate(1.0 / k for k in range(1, 256)))
#: (n, q) pairs whose Sylvester subset maximum is kept.
_SYLVESTER_MAX_CACHE = 256
#: Terms of the power tail summed one by one before the Euler-Maclaurin remainder.
_TAIL_TERMS = 9


def sylvester(n: int) -> Family:
    """The 2^n rows of the n-th doubling of [[1]], H(2m) = [[H, H], [H, -H]], as a ``Family``.

    If the rows h_i of H are orthogonal +-1 vectors, so are the rows
    (h_i, h_i) and (h_i, -h_i) of the doubled matrix: two rows of one half
    meet in 2<h_i, h_j> = 0, and rows of opposite halves in
    <h_i, h_j> - <h_i, h_j> = 0.  So the rows are orthogonal by induction.
    The matrix is doubled in int8 and converted once by ``Family``; n is
    capped at MATERIALIZE_MAX_LOG, checked before the cache; anything but an
    integer in range raises ValueError naming it.  Each n is built once per
    process and every call returns that one read-only ``Family``.
    """
    return _sylvester(_require_int("n", n, 0, MATERIALIZE_MAX_LOG))


@functools.lru_cache(maxsize=MATERIALIZE_MAX_LOG + 1)
def _sylvester(n: int) -> Family:
    block = np.array([[1, 1], [1, -1]], dtype=np.int8)
    H = np.array([[1]], dtype=np.int8)
    for _ in range(n):
        H = np.kron(block, H)
    return Family(H)


@functools.lru_cache(maxsize=_SYLVESTER_MAX_CACHE)
def _sylvester_max(n: int, q: Exponent) -> Optional[tuple[float, int]]:
    """The exact kernel's (value, mask) of the subset max of ``sylvester(n)`` at q, or None where it refuses.

    Kept per (n, q), refusals too.  The 2^n rows of 2^n columns are past the
    branch and bound's ratio, so at the default reach a walk settles n <= 4
    and the kernel refuses n >= 5 up front.
    """
    try:
        return _exhaustive_best(sylvester(n).matrix, q, False)
    except ReachError:
        return None


@dataclass(frozen=True)
class WitnessReport:
    """Certificate that the quotient of the constructed family exceeds C.

    All certified quantities are carried in log2 space so the construction
    works far beyond float overflow; ``exhaustive_quotient`` is attached only
    where the exact kernel settles the subset maximum of the 2^n rows.
    """

    triple: ExponentTriple
    C: float
    n: int
    family_size: int
    log2_numerator: float
    log2_denominator_bound: float
    certified_ratio_log2: float
    exhaustive_quotient: Optional[float]
    minimality_checked: bool
    family: Optional[Family] = field(repr=False, default=None)

    @property
    def log2_multiplier_norm(self) -> float:
        """log2 of max_k ||a_k||_p for the constructed rows: exactly n/p."""
        return self.n * self.triple.p.reciprocal

    def to_json(self) -> dict:
        out = {
            "p": self.triple.p.to_json(),
            "q": self.triple.q.to_json(),
            "r": self.triple.r.to_json(),
            "C": self.C,
            "n": self.n,
            "family_size": self.family_size,
            "log2_numerator": self.log2_numerator,
            "log2_denominator_bound": self.log2_denominator_bound,
            "certified_ratio_log2": self.certified_ratio_log2,
            "minimality_checked": self.minimality_checked,
        }
        if self.exhaustive_quotient is not None:
            out["exhaustive_quotient"] = self.exhaustive_quotient
        return out


def _strict_gap(rp, rq, rr):
    """(1/2 + 1/r) - (1/p + 1/min(2,q)) from the reciprocals, floats or broadcast float64 arrays.

    ``second_clause_gap`` and ``classifier``'s lattice kernel both take the
    gap here, so a lattice point's gap is the float of the triple alone.
    """
    return 0.5 + rr - rp - np.maximum(0.5, rq)


def second_clause_gap(t: ExponentTriple) -> float:
    """(1/2 + 1/r) - (1/p + 1/min(2,q)); the construction needs this > 0."""
    return float(_strict_gap(t.p.reciprocal, t.q.reciprocal, t.r.reciprocal))


def _slopes(t: ExponentTriple) -> tuple[float, float]:
    """log2 growth per doubling step of the numerator and of the denominator bound."""
    return 1.0 + t.r.reciprocal, t.p.reciprocal + 0.5 + max(0.5, t.q.reciprocal)


def witness_size(t: ExponentTriple, C: float) -> int:
    """The minimal n >= 1 with n(1+1/r) > log2(C) + n(1/p + 1/2 + 1/q''), by margin EPS_CMP.

    The size is the first n in 1..WITNESS_MAX_LOG that passes this margin
    test, so the test alone decides it.  Raises ValueError for a triple
    outside the strict clause and when no n up to WITNESS_MAX_LOG passes,
    C = inf included ("C too large for desk scale").
    """
    t.require_holder_valid()
    if not C > 0:
        raise ValueError("C must be positive")
    if second_clause_gap(t) <= EPS_CMP:
        raise ValueError(
            "second-clause condition not satisfied: needs 1/2 + 1/r > 1/p + 1/min(2,q)"
        )
    num_slope, den_slope = _slopes(t)
    log2C = math.log2(C)
    for n in range(1, WITNESS_MAX_LOG + 1):
        if n * num_slope - (log2C + n * den_slope) > EPS_CMP:
            return n
    raise ValueError("C too large for desk scale")


def hadamard_witness(t: ExponentTriple, C: float) -> WitnessReport:
    """Construct the orthogonal +-1 family defeating the constant C.

    Picks the minimal n >= 1 with n(1+1/r) > log2(C) + n(1/p + 1/2 + 1/q'')
    (``witness_size``), all comparisons in log2 space with margin EPS_CMP.
    The family is ``sylvester(n)``, its rows used both as multipliers and
    as summands; it is materialized only up to n = MATERIALIZE_MAX_LOG, and
    its exact quotient is attached exactly where the exact kernel settles
    its subset maximum (``_sylvester_max``, kept per (n, q)): n <= 4 at the
    default reach.  That quotient is
    ``unconditionality_quotient(sylvester(n), sylvester(n), t).quotient`` bit
    for bit.
    Its product vector sum_k h_k * h_k is constantly 2^n because every entry
    is +-1, as ``sylvester``'s doubling rule guarantees.
    """
    n = witness_size(t, C)
    num_slope, den_slope = _slopes(t)

    log2_num = n * num_slope
    log2_den = n * den_slope
    family = sylvester(n) if n <= MATERIALIZE_MAX_LOG else None
    sub = None if family is None else _sylvester_max(n, t.q)
    exq = None if sub is None else _finite_parts(family.matrix, family.matrix, t, sub=sub).quotient
    return WitnessReport(
        triple=t,
        C=float(C),
        n=n,
        family_size=1 << n,
        log2_numerator=log2_num,
        log2_denominator_bound=log2_den,
        certified_ratio_log2=log2_num - log2_den,
        exhaustive_quotient=exq,
        minimality_checked=True,
        family=family,
    )


def _harmonic_number(N: int) -> float:
    """H_N = 1/1 + 1/2 + ... + 1/N for 0 <= N <= TAIL_MAX_TERMS.

    Below N = 256 it is the table's left-to-right float sum.  From there it
    is ln N + gamma + 1/(2N) - 1/(12N^2) + 1/(120N^4), the Euler-Maclaurin
    expansion H_N = ln N + gamma + 1/(2N) - sum_k B_2k / (2k N^2k) cut after
    k = 2 (Knuth, TAOCP vol. 1, 1.2.7).  The series is enveloping: each
    remainder has the sign of the first omitted term and is smaller, so the
    cut costs less than 1/(252N^6), which at N = 256 is 1.4e-17, under a
    fiftieth of an ulp of H_256 = 6.12.  The small terms are added to gamma
    first, so the sum with ln N rounds once: H_N is within 2 ulps of the
    exact value from N = 256 on, and the table within 3 ulps below.  So H_N
    increases strictly with N, across the switch too, since each step 1/N
    dwarfs those few ulps up to TAIL_MAX_TERMS.
    """
    if N < len(_HARMONIC_TABLE):
        return _HARMONIC_TABLE[N]
    x = 1.0 / N
    return math.log(N) + (_EULER_GAMMA + x * (0.5 - x * (1.0 / 12.0 - x * x / 120.0)))


def _harmonic(limit: int, target: float = math.inf) -> tuple[int, float]:
    """(N, H_N) for the smallest N with 1 <= N <= limit and H_N >= target, else (limit, H_limit).

    H_N is ``_harmonic_number(N)``.  N is at least 1 even for a target of 0,
    such as a level B^r that underflowed; only limit = 0 gives the empty sum
    (0, 0.0).  A limit above TAIL_MAX_TERMS raises ValueError before any
    work.

    The search starts at N0 = exp(target - gamma), rounded up and kept in
    [1, limit], and steps to the first crossing.  For every N >= 1,
    1/(2N+2) < H_N - ln N - gamma < 1/(2N), so each N >= N0 has
    H_N > ln N + gamma >= target, and each N <= N0 - 1 has
    ln N + 1/(2N) <= ln (N + 1) <= target - gamma, so H_N < target.  The
    crossing is ceil(N0) or the N below it, so the search takes one step
    down at most and three evaluations of H; rounding of exp and of H could
    only add a step either way.  A target above H_limit, or NaN, starts and
    stays at N = limit.
    """
    if limit > TAIL_MAX_TERMS:
        raise ValueError(f"H_N is computed for N <= TAIL_MAX_TERMS = {TAIL_MAX_TERMS}, got N = {limit}")
    if limit < 1:
        return 0, 0.0
    N = max(1, min(limit, math.ceil(math.exp(min(math.log(limit), target - _EULER_GAMMA)))))
    while N > 1 and _harmonic_number(N - 1) >= target:
        N -= 1
    while (s := _harmonic_number(N)) < target and N < limit:
        N += 1
    return N, s


class TailWitness(NamedTuple):
    N: int
    partial_r_norm: float
    tail_q_bound: float


def divergent_tail_norm(r: ExponentLike, N: int) -> float:
    """||(x(1),...,x(N))||_r for x(n) = n^(-1/r): the harmonic number H_N to the 1/r.

    H_N is ``_harmonic_number(N)``; N above TAIL_MAX_TERMS raises ValueError.
    """
    r = Exponent.of(r)
    if r.is_infinite:
        raise ValueError("r must be finite")
    N = _require_int("N", N, 0)
    return _harmonic(N)[1] ** (1.0 / r.value)


def tail_q_bound(q: ExponentLike, r: ExponentLike, N: int) -> float:
    """An upper bound on ||(x(n))_{n>N}||_q for x(n) = n^(-1/r), finite exactly because q > r.

    With a = N+1, s = q/r and b = a + K, K = _TAIL_TERMS, the norm is
    a^(-1/r) T^(1/q), where T = a^s zeta(s, a) = sum_{k>=0} (a/(a+k))^s.
    The terms k < K are summed; the rest is the Euler-Maclaurin sum of
    x^(-s) from b on, (a/b)^s [b/(s-1) + 1/2 + s/(12b)
    - s(s+1)(s+2)/(720b^3) + s(s+1)(s+2)(s+3)(s+4)/(30240b^5)], cut after
    the B_6 term.  Every even derivative of x^(-s) is positive, so the
    series envelops the sum: each remainder has the sign of the first
    omitted term, here the negative B_8 term, and T is an upper bound
    (Knuth, TAOCP vol. 1, 1.2.11.2).  Its root exceeds the exact norm by
    less than 1.2e-11 relative, the most near N = 1 and s = 2.3.  Where
    (a/b)^s underflows to 0, s > 82a, so b/(s-1) < 1/8, and the remainder
    left out is below 2^-1074 (1 + b/(s-1)), under an ulp of T >= 1.  Where
    it does not, s/b < 83, so no correction overflows.  The bound is
    computed as a^(-(s-1)/q) (T/a)^(1/q), the same number, with s - 1 taken
    as (q - r)/r, and T/a < 10 + 10/(s-1) overflows for no N.

    Rounding, in units u = 2^-53, with exp, log1p and pow within an ulp:
    each term (a/(a+k))^s is exp(-s log1p(k/a)), within 6us ln 10 + 2u
    relative; the corrections, times (a/b)^s <= exp(-9s/b), add less than
    T/100, so T/a is within 14us + 20u.  The root divides that by
    q = sr >= s, and the powers and their product add
    3u ln a + u |ln(T/a)| + 6u.  The result is raised by
    (3 ln a + |ln(T/a)| + 64) u, which covers these and its own rounding,
    and is below 2e-14 for N <= TAIL_MAX_TERMS.
    At q = inf the bound is the first omitted term (N+1)^(-1/r), within
    (ln a + 3) u, raised by (ln a + 5) u.
    """
    q = Exponent.of(q)
    r = Exponent.of(r)
    if r.is_infinite or not r < q:
        raise ValueError("requires r < q")
    N = _require_int("N", N, 0)
    if N + 1 > sys.float_info.max:
        raise ValueError(f"N too large: N + 1, of {(N + 1).bit_length()} bits, exceeds the largest binary64 value")
    a = float(N + 1)
    if q.is_infinite:
        return a ** -r.reciprocal * (1.0 + (math.log(a) + 5.0) * 2.0**-53)
    s, sm1 = q.value / r.value, (q.value - r.value) / r.value
    *terms, F = [math.exp(-s * math.log1p(k / a)) for k in range(_TAIL_TERMS + 1)]
    if F:
        b = a + _TAIL_TERMS
        x, y, z = s / b, (s + 1.0) / b * ((s + 2.0) / b), (s + 3.0) / b * ((s + 4.0) / b)
        terms.append(F * (0.5 + x * (1.0 / 12.0 - y * (1.0 / 720.0 - z / 30240.0))))
    W = math.fsum(terms) / a + F * (1.0 + _TAIL_TERMS / a) / sm1
    margin = (3.0 * math.log(a) + abs(math.log(W)) + 64.0) * 2.0**-53
    return a ** (-sm1 / q.value) * W ** (1.0 / q.value) * (1.0 + margin)


def tail_witness(q: ExponentLike, r: ExponentLike, B: float) -> TailWitness:
    """Locate where the partial lr norms of x(n) = n^(-1/r) pass B.

    Returns the smallest N with H_N = sum_{n<=N} 1/n >= B^r (equivalently,
    partial lr norm >= B), found by ``_harmonic`` in a few evaluations of the
    closed form, the partial norm H_N^(1/r) attained there, and an upper
    bound on the lq norm of the remaining tail (``tail_q_bound``), which
    certifies that the full series is unconditionally Cauchy in lq.  A
    level whose crossing lies past TAIL_MAX_TERMS, B^r overflowing binary64
    included, raises ValueError ("B too large for desk scale").
    """
    q = Exponent.of(q)
    r = Exponent.of(r)
    if r.is_infinite:
        raise ValueError("r must be finite")
    if not r < q:
        raise ValueError(f"requires r < q, got r={r}, q={q}")
    if not B > 0:
        raise ValueError("B must be positive")
    try:
        target = float(B) ** r.value
    except OverflowError:
        raise ValueError("B too large for desk scale") from None
    N, s = _harmonic(TAIL_MAX_TERMS, target)
    if s < target:
        raise ValueError("B too large for desk scale")
    return TailWitness(N, s ** (1.0 / r.value), tail_q_bound(q, r, N))
