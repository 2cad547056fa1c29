"""Finitely supported sequences and their lp norms for exponents in [1, inf].

A vector here is a dense float64 array identified with the sequence supported
on coordinates 0..len-1.  Exponents keep infinity as a distinct variant so
that 1/inf is exactly 0.0 and no float('inf') ever enters norm arithmetic.

Scalars are IEEE-754 binary64 throughout.  Finite-p norms are evaluated with
the usual scaling by the largest entry, so exponents in the hundreds do not
overflow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

#: Comparison tolerance for exponent / threshold arithmetic.
EPS_CMP = 1e-12
#: Numeric tolerance for floating-point norm inequalities.
EPS_NUM = 1e-9

ExponentLike = Union["Exponent", float, int, str]


@functools.total_ordering
@dataclass(frozen=True)
class Exponent:
    """An extended exponent p in [1, inf].  ``value is None`` encodes infinity."""

    value: float | None = None

    def __post_init__(self):
        if self.value is None:
            return
        v = float(self.value)
        if math.isnan(v):
            raise ValueError("exponent cannot be NaN")
        if math.isinf(v):
            if v < 0:
                raise ValueError("exponent cannot be -inf")
            object.__setattr__(self, "value", None)
            return
        if v < 1.0:
            raise ValueError(f"exponent must be >= 1, got {v}")
        object.__setattr__(self, "value", v)

    @staticmethod
    def of(p: ExponentLike) -> "Exponent":
        """Coerce a number, the string ``"inf"``, or an Exponent to an Exponent."""
        if isinstance(p, Exponent):
            return p
        if isinstance(p, str):
            s = p.strip().lower()
            if s in ("inf", "infinity", "oo"):
                return INF
            try:
                return Exponent(float(s))
            except ValueError as exc:
                raise ValueError(f"cannot parse exponent {p!r}") from exc
        return Exponent(float(p))

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    @property
    def reciprocal(self) -> float:
        """1/p, with 1/inf defined to be exactly 0.0."""
        return 0.0 if self.value is None else 1.0 / self.value

    def __lt__(self, other: "Exponent"):
        if not isinstance(other, Exponent):
            return NotImplemented
        if self.is_infinite:
            return False
        if other.is_infinite:
            return True
        return self.value < other.value

    def token(self) -> str:
        """Canonical text form: ``"inf"`` or the shortest round-trip float repr."""
        return "inf" if self.value is None else repr(self.value)

    def to_json(self):
        """JSON form: a number, or the string ``"inf"``."""
        return "inf" if self.value is None else self.value

    def __str__(self):
        return self.token()


#: The infinite exponent.
INF = Exponent(None)


def _finite_array(values, dtype=np.float64) -> np.ndarray:
    """``values`` as a fresh array of ``dtype``; ValueError if an entry is NaN or infinite.

    The one finite-entry check for sequences, families, norms and the lemma
    inputs; for a complex dtype both parts are checked.  Complex input for a
    real dtype is rejected, not cast, which would drop its imaginary parts.
    """
    arr = np.asarray(values)
    if np.iscomplexobj(arr) and not np.issubdtype(dtype, np.complexfloating):
        raise ValueError("entries must be real numbers")
    arr = np.array(arr, dtype=dtype)
    if not np.isfinite(arr).all():
        raise ValueError("entries must be finite numbers")
    return arr


def dual_exponent(p: ExponentLike) -> Exponent:
    """The exponent p* with 1/p + 1/p* = 1.  dual(1)=inf, dual(inf)=1."""
    p = Exponent.of(p)
    if p.is_infinite:
        return Exponent(1.0)
    if p.value == 1.0:
        return INF
    return Exponent(1.0 / (1.0 - 1.0 / p.value))


@dataclass(frozen=True, eq=False)
class FinSeq:
    """A finitely supported scalar sequence: dense entries with an ambient length.

    Entries must all be finite; NaN and infinities are rejected at construction.
    The wrapped array is a read-only copy.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _finite_array(self.entries).reshape(-1)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @staticmethod
    def of(values: Iterable[float]) -> "FinSeq":
        return FinSeq(list(values))

    @property
    def ambient_len(self) -> int:
        return int(self.entries.size)

    def __len__(self):
        return self.ambient_len

    def __getitem__(self, k):
        return self.entries[k]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        if not isinstance(other, FinSeq):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)

    def to_json(self) -> list:
        return [float(v) for v in self.entries]

    def __repr__(self):
        return f"FinSeq({self.entries.tolist()!r})"


@dataclass(frozen=True)
class ExponentTriple:
    """Exponents (p, q, r) for the action lp x lq -> lr."""

    p: Exponent
    q: Exponent
    r: Exponent

    @staticmethod
    def of(p: ExponentLike, q: ExponentLike, r: ExponentLike) -> "ExponentTriple":
        return ExponentTriple(Exponent.of(p), Exponent.of(q), Exponent.of(r))

    @property
    def holder_valid(self) -> bool:
        """Whether 1/r <= 1/p + 1/q, the condition for the product map to land in lr."""
        return self.r.reciprocal <= self.p.reciprocal + self.q.reciprocal + EPS_CMP

    def require_holder_valid(self) -> None:
        """Raise ValueError unless the triple is ``holder_valid``."""
        if not self.holder_valid:
            raise ValueError(f"triple {self} is not valid: 1/r > 1/p + 1/q")

    def __str__(self):
        return f"({self.p}, {self.q}, {self.r})"


def row_norms(mat: np.ndarray, p: ExponentLike) -> np.ndarray:
    """lp norm of each row of a 2-d array.

    Single implementation shared by the scalar ``norm`` and every enumeration
    loop, so a vector's norm is the same float no matter which code path
    computed it.  Entries are not checked here: this is the hot kernel, and
    its callers validate (a non-finite entry gives nan or inf).
    """
    p = Exponent.of(p)
    a = np.abs(np.asarray(mat, dtype=np.float64))
    if a.ndim != 2:
        raise ValueError("row_norms expects a 2-d array")
    if a.shape[1] == 0:
        return np.zeros(a.shape[0])
    if p.is_infinite:
        return a.max(axis=1)
    if p.value == 1.0:
        return a.sum(axis=1)
    m = a.max(axis=1)
    # an all-zero row is divided by 1 instead of its max, and its norm is m * 0 = 0
    scaled = a / np.where(m > 0.0, m, 1.0)[:, None]
    if p.value == 2.0:
        s = (scaled * scaled).sum(axis=1)
    else:
        s = np.power(scaled, p.value).sum(axis=1)
    return m * np.power(s, 1.0 / p.value)


def norm(v, p: ExponentLike) -> float:
    """The lp norm of a vector: (sum |v_k|^p)^(1/p), or max |v_k| for p = inf.

    Non-finite entries are rejected with ValueError.
    """
    arr = v.entries if isinstance(v, FinSeq) else _finite_array(v).reshape(-1)
    return float(row_norms(arr.reshape(1, -1), p)[0])


def norm_sandwich_check(v, p: ExponentLike, q: ExponentLike) -> tuple[bool, bool]:
    """Check ||v||_q <= ||v||_p <= n^(1/p-1/q) ||v||_q for 1 <= p <= q < inf.

    Returns (lower_ok, upper_ok), each allowing relative slack EPS_NUM.
    Rejects p > q, infinite q and non-finite entries.
    """
    p = Exponent.of(p)
    q = Exponent.of(q)
    if q.is_infinite:
        raise ValueError("requires q < inf")
    if p.is_infinite or p.value > q.value:
        raise ValueError("requires p <= q")
    arr = v.entries if isinstance(v, FinSeq) else _finite_array(v).reshape(-1)
    n = arr.size
    if n < 1:
        raise ValueError("requires a nonempty vector")
    np_ = norm(arr, p)
    nq = norm(arr, q)
    lower_ok = nq <= np_ * (1.0 + EPS_NUM)
    upper_ok = np_ <= float(n) ** (p.reciprocal - q.reciprocal) * nq * (1.0 + EPS_NUM)
    return lower_ok, upper_ok
