"""Constructive non-preservation witnesses.

Two generators:

* ``hadamard_witness`` builds, for a triple with 1/2 + 1/r > 1/p + 1/min(2,q),
  a family of 2^n orthogonal +-1 rows whose quotient provably exceeds any
  prescribed constant C.  The certificate lives in log2 space: the product
  vector is constantly 2^n on 2^n coordinates, so the numerator is exactly
  2^(n(1+1/r)), while every subset sum of the rows is bounded by
  2^(n(1/2+1/q'')) with q'' = min(2, q).

* ``tail_witness`` exhibits, for r < q, the power sequence x(n) = n^(-1/r)
  whose basis expansion is unconditionally Cauchy in lq (summable tail) while
  its partial lr norms grow beyond any bound B.

The partial lr norms of that sequence are harmonic sums to the power 1/r.
``tail_witness`` and ``divergent_tail_norm`` take those sums from one routine
(``_harmonic``), which adds 1/k in fixed-size chunks, each one cumulative sum
seeded with the running total: the same left-to-right float sum as a loop
over k, with memory bounded by the chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import zeta

from .seqspace import EPS_CMP, Exponent, ExponentLike, ExponentTriple
from .unconditionality import DEFAULT_N_EXH, Family, unconditionality_quotient

#: Largest doubling step for explicit +-1 matrices (size 4096).
SYLVESTER_MAX_LOG = 12
#: Families are materialized only while the matrix has at most 2^20 entries.
MATERIALIZE_MAX_LOG = 10
#: Cap on the certificate step count.  Beyond MATERIALIZE_MAX_LOG the
#: certificate is pure log2 arithmetic, so the cap only keeps 2^n a finite float.
WITNESS_MAX_LOG = 1023
#: Cap on terms summed when locating the divergent-tail crossing; it bounds
#: the time (about 150 chunks), while _HARMONIC_CHUNK bounds the memory.
TAIL_MAX_TERMS = 10_000_000
#: Terms per chunk of a harmonic sum: 2^16 float64 values, 0.5 MB.
_HARMONIC_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class HadamardMatrix:
    """A 2^n x 2^n matrix of +-1 entries with mutually orthogonal rows.

    Shape and exact +-1 entries are checked on the values given, before the
    int8 cast.  Every partial sum of the Gram product is then an integer of
    magnitude at most 2^n, so the float32 Gram matrix is exact up to 2^n = 2^24,
    far beyond any matrix that fits in memory.  Its diagonal is 2^n, and the
    rows are orthogonal exactly when it has 2^n nonzero entries.
    """

    log_size: int
    entries: np.ndarray

    def __post_init__(self):
        size = 1 << self.log_size
        arr = np.asarray(self.entries)
        if arr.shape != (size, size):
            raise ValueError(f"expected a {size}x{size} matrix")
        if not np.all((arr == 1) | (arr == -1)):
            raise ValueError("entries must be exactly +1 or -1")
        arr = arr.astype(np.int8)
        f = arr.astype(np.float32)
        if np.count_nonzero(f @ f.T) != size:
            raise ValueError("rows are not mutually orthogonal")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def size(self) -> int:
        return 1 << self.log_size

    def rows_family(self) -> Family:
        return Family(self.entries.astype(np.float64))

    def to_json_rows(self) -> list:
        return [[int(v) for v in row] for row in self.entries]

    def packed(self) -> bytes:
        """Row-major, one bit per entry; the bit is 1 where the entry is -1."""
        return np.packbits(self.entries.reshape(-1) == -1).tobytes()

    @classmethod
    def unpack(cls, log_size: int, data: bytes) -> "HadamardMatrix":
        """The matrix ``packed`` wrote, from exactly ceil(4^log_size / 8) bytes.

        The padding bits that fill the last byte must be clear, as ``packed``
        leaves them.
        """
        size = 1 << log_size
        expected = (size * size + 7) // 8
        if len(data) != expected:
            raise ValueError(f"packed data must be {expected} bytes for log_size {log_size}, got {len(data)}")
        padding = 8 * expected - size * size
        if data[-1] & ((1 << padding) - 1):
            raise ValueError(f"packed data sets padding bits of its last byte: {data[-1]:#04x}")
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=size * size)
        entries = np.where(bits.reshape(size, size) == 1, -1, 1).astype(np.int8)
        return cls(log_size, entries)

    def __repr__(self):
        return f"HadamardMatrix(log_size={self.log_size})"


def sylvester(n: int) -> HadamardMatrix:
    """The n-th doubling of [[1]]: H(2m) = [[H, H], [H, -H]], size 2^n."""
    if not 0 <= n <= SYLVESTER_MAX_LOG:
        raise ValueError(f"n must be in [0, {SYLVESTER_MAX_LOG}] (size cap 2^{SYLVESTER_MAX_LOG})")
    block = np.array([[1, 1], [1, -1]], dtype=np.int8)
    H = np.array([[1]], dtype=np.int8)
    for _ in range(n):
        H = np.kron(block, H)
    return HadamardMatrix(n, H)


@dataclass(frozen=True)
class WitnessReport:
    """Certificate that the quotient of the constructed family exceeds C.

    All certified quantities are carried in log2 space so the construction
    works far beyond float overflow; ``exhaustive_quotient`` is attached only
    when 2^n is small enough to enumerate.
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


def second_clause_gap(t: ExponentTriple) -> float:
    """(1/2 + 1/r) - (1/p + 1/min(2,q)); the construction needs this > 0."""
    rq2 = max(0.5, t.q.reciprocal)
    return 0.5 + t.r.reciprocal - t.p.reciprocal - rq2


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


def hadamard_witness(
    t: ExponentTriple,
    C: float,
    *,
    n_exh: int = DEFAULT_N_EXH,
) -> WitnessReport:
    """Construct the orthogonal +-1 family defeating the constant C.

    Picks the minimal n >= 1 with n(1+1/r) > log2(C) + n(1/p + 1/2 + 1/q'')
    (``witness_size``), all comparisons in log2 space with margin EPS_CMP.
    The family is the set of rows of ``sylvester(n)`` used both as
    multipliers and as summands; it is materialized (and, when 2^n is within
    the exhaustive cap, its exact quotient computed) only at desk scale.
    Its product vector sum_k h_k * h_k is constantly 2^n because every entry
    is +-1, which ``HadamardMatrix`` checked on these very entries.
    """
    n = witness_size(t, C)
    num_slope, den_slope = _slopes(t)

    log2_num = n * num_slope
    log2_den = n * den_slope
    family = None
    exq = None
    if n <= MATERIALIZE_MAX_LOG:
        family = sylvester(n).rows_family()
        if (1 << n) <= n_exh:
            exq = unconditionality_quotient(family, family, t, n_exh=n_exh).quotient
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


def _harmonic(limit: int, target: float = math.inf) -> tuple[int, float]:
    """(N, s_N) for the smallest N with 1 <= N <= limit and s_N >= target, else (limit, s_limit).

    s_N = 1/1 + 1/2 + ... + 1/N is added left to right, so it is bit for bit
    the float a loop over k gives: each chunk of _HARMONIC_CHUNK terms is one
    cumulative sum whose first term carries the running total, and the
    crossing is the first index of that nondecreasing chunk at or above
    ``target``.  N is at least 1 even for a target of 0, such as a level
    B^r that underflowed; only limit = 0 gives the empty sum (0, 0.0).
    """
    s, n = 0.0, 0
    while n < limit and (n == 0 or s < target):
        part = np.arange(n + 1, min(limit, n + _HARMONIC_CHUNK) + 1, dtype=np.float64)
        np.divide(1.0, part, out=part)
        part[0] += s
        np.cumsum(part, out=part)
        k = int(np.searchsorted(part, target))
        if k < part.size:
            return n + k + 1, float(part[k])
        n, s = n + part.size, float(part[-1])
    return n, s


class TailWitness(NamedTuple):
    N: int
    partial_r_norm: float
    tail_q_bound: float


def _require_count(N) -> None:
    if not isinstance(N, (int, np.integer)) or N < 0:
        raise ValueError(f"N must be an integer >= 0, got {N!r}")


def divergent_tail_norm(r: ExponentLike, N: int) -> float:
    """||(x(1),...,x(N))||_r for x(n) = n^(-1/r): the harmonic sum to the 1/r."""
    r = Exponent.of(r)
    if r.is_infinite:
        raise ValueError("r must be finite")
    _require_count(N)
    return _harmonic(N)[1] ** (1.0 / r.value)


def tail_q_bound(q: ExponentLike, r: ExponentLike, N: int) -> float:
    """||(x(n))_{n>N}||_q for x(n) = n^(-1/r); finite exactly because q > r."""
    q = Exponent.of(q)
    r = Exponent.of(r)
    if r.is_infinite or not r < q:
        raise ValueError("requires r < q")
    _require_count(N)
    if q.is_infinite:
        return float(N + 1) ** (-r.reciprocal)
    s = q.value / r.value
    return float(zeta(s, N + 1)) ** (1.0 / q.value)


def tail_witness(q: ExponentLike, r: ExponentLike, B: float) -> TailWitness:
    """Locate where the partial lr norms of x(n) = n^(-1/r) pass B.

    Returns the smallest N with sum_{n<=N} 1/n >= B^r (equivalently, partial
    lr norm >= B in harmonic-sum space), the partial norm attained there, and
    the lq norm of the remaining tail, which certifies that the full series
    is unconditionally Cauchy in lq.
    """
    q = Exponent.of(q)
    r = Exponent.of(r)
    if r.is_infinite:
        raise ValueError("r must be finite")
    if not r < q:
        raise ValueError(f"requires r < q, got r={r}, q={q}")
    if not B > 0:
        raise ValueError("B must be positive")
    target = float(B) ** r.value
    N, s = _harmonic(TAIL_MAX_TERMS, target)
    if s < target:
        raise ValueError("B too large for desk scale")
    return TailWitness(N, s ** (1.0 / r.value), tail_q_bound(q, r, N))
