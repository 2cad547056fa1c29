"""Exponents in [1, inf] and the lp norms of finitely supported sequences.

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
from typing import NamedTuple, Union

import numpy as np

#: Comparison tolerance for exponent / threshold arithmetic.
EPS_CMP = 1e-12
#: Numeric tolerance for floating-point norm inequalities.
EPS_NUM = 1e-9
#: The smallest positive binary64 value.
_TINY = float(np.finfo(np.float64).smallest_subnormal)

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
                p = float(s)
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

    The one finite-entry check for families, norms and the lemma inputs; for
    a complex dtype both parts are checked.  Complex input for a real dtype is
    rejected, not cast, as are non-numeric entries (numeric strings included)
    and integers past binary64.
    """
    try:
        arr = np.asarray(values)
        # numpy would parse numeric strings: fail them as it fails other non-numbers
        if arr.dtype.kind in "US" or arr.dtype.kind == "O" and any(isinstance(v, (str, bytes)) for v in arr.flat):
            raise TypeError
        if np.iscomplexobj(arr) and not np.issubdtype(dtype, np.complexfloating):
            raise ValueError("entries must be real numbers")
        arr = np.array(arr, dtype=dtype)
    except (TypeError, OverflowError):
        raise ValueError("entries must be finite numbers") from None
    if not np.isfinite(arr).all():
        raise ValueError("entries must be finite numbers")
    return arr


def _require_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as a Python int if it is an int or numpy integer in [lo, hi]; else ValueError naming it.

    The one check for every count, size, budget, seed and thread count; no
    upper end when hi is None.  A bool is rejected, though Python counts it
    an int, and so is every float, integral or not.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        v = int(value)
        if lo <= v and (hi is None or v <= hi):
            return v
    span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise ValueError(f"{name} must be an integer {span}, got {value!r}")


class ExponentTriple(NamedTuple):
    """Exponents (p, q, r) for the action lp x lq -> lr.

    A named tuple: a region grid builds one per point, and a tuple costs half
    what a frozen dataclass does to make, with no instance dict for the
    garbage collector to track.  So a triple also equals, hashes, iterates
    and orders as the plain tuple (p, q, r), and assigning a field raises
    AttributeError.
    """

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


#: numpy adds a run of fewer than this many contiguous entries left to
#: right and longer runs pairwise, while a sum along any other axis adds
#: left to right; so a slice this short has the same norm reduced either way.
_SEQUENTIAL_SUM_MAX = 8


def row_norms(mat: np.ndarray, p: ExponentLike) -> np.ndarray:
    """lp norm of each row of a 2-d array.

    Single implementation shared by the scalar ``norm`` and every enumeration
    loop, so a vector's norm is the same float no matter which code path
    computed it: each row is a column of ``mat.T`` for ``_column_norms``,
    which adds rows of fewer than _SEQUENTIAL_SUM_MAX entries left to right
    and longer ones pairwise, whatever the layout of ``mat``.  Entries are
    not checked here: this is the hot kernel, and its callers
    validate (a non-finite entry gives nan or inf).
    """
    p = Exponent.of(p)
    a = np.asarray(mat, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("row_norms expects a 2-d array")
    return _column_norms(a.T, p)


def _column_norms(v: np.ndarray, p: Exponent) -> np.ndarray:
    """The lp norms of the 1-d slices of ``v`` along axis -2: an (..., d, P) array gives (..., P).

    The one norm kernel, under ``row_norms`` and the exact maxima's scratch
    evaluator, and the one reader of the layout rule _SEQUENTIAL_SUM_MAX.
    Slices of fewer entries are reduced along axis -2 of a C-order absolute
    copy: numpy then runs one long inner loop per coordinate and adds each
    slice left to right.  Longer slices are copied to C-order rows first, so
    numpy sums each pairwise whatever the layout of ``v``.  Each slice is
    divided by its largest entry before the power, so exponents in the
    hundreds do not overflow; a zero slice is divided by the smallest
    subnormal, at most any nonzero max, and its norm is m * 0 = 0, as is
    that of an empty slice.
    """
    if v.shape[-2] == 0:
        return np.zeros(v.shape[:-2] + v.shape[-1:])
    if v.shape[-2] < _SEQUENTIAL_SUM_MAX:
        a, axis = v.copy(), -2
        np.abs(a, out=a)
    else:
        a, axis = np.abs(v.swapaxes(-1, -2), order="C"), -1
    if p.is_infinite:
        return np.maximum.reduce(a, axis=axis)
    if p.value == 1.0:
        return np.add.reduce(a, axis=axis)
    m = np.maximum.reduce(a, axis=axis, keepdims=True)
    np.divide(a, np.maximum(m, _TINY), out=a)
    if p.value == 2.0:
        np.multiply(a, a, out=a)
    else:
        np.power(a, p.value, out=a)
    s = np.add.reduce(a, axis=axis, keepdims=True)
    np.power(s, 1.0 / p.value, out=s)
    s *= m
    return s.squeeze(axis)


def norm(v, p: ExponentLike) -> float:
    """The lp norm of a vector: (sum |v_k|^p)^(1/p), or max |v_k| for p = inf.

    Non-finite entries are rejected with ValueError.
    """
    return float(row_norms(_finite_array(v).reshape(1, -1), p)[0])
