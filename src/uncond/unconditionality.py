"""Subset-maximum norms and unconditionality quotients of finite families.

The central quantity is the quotient

    ||sum_k a_k x_k||_r  /  ( max_k ||a_k||_p * max_{F subset of n} ||sum_{k in F} x_k||_q )

whose supremum over all finite families is the smallest constant making the
action unconditional.  Every quotient computed here is therefore a certified
lower bound for that constant.

Exhaustive enumerations walk the reflected-Gray-code order over subsets (or
sign patterns) in blocks of 2^k positions.  Inside a block the high bits are
fixed and the low k bits run through the Gray order, forwards or mirrored,
so a block is one from-scratch sum of the high rows plus a table of low sums
built once per call.  Blocks hold about 1 MiB of sums, a size set by the
ambient length alone, so memory stays bounded for every n.  Positions are
ranked by power sums, and every position within the rounding slack of the
best is recomputed from scratch: the reported value is the norm of the
reported subset's sum, added in index order, and ties resolve to the first
subset attaining it in Gray order.  Sign patterns walk only the half with
the last sign +1, since s and -s have the same norm.  The enumeration is
serial; the ``threads`` argument of ``subset_max_norm`` and ``sign_max_norm``
is accepted and changes nothing.

Every quotient, public or inside a search, is evaluated by one routine
(``_quotient_parts``), so a search compares the very float
``unconditionality_quotient`` returns for the same entries.  The seeded
searches for large quotients here and for large sign-pattern ratios in
``lemma_lab`` share one restart loop (``_seeded_restarts``: argument checks,
seeded draws, skipped degenerate draws, strict improvement) and one
first-improvement coordinate ascent on matrix entries
(``_coordinate_ascent``); each supplies only its draw and its climb.  The
ascent works on the drawn float arrays and recomputes only what a move
changes: a move on the a-family reuses the x-family's subset max, a move on
the x-family reuses max_k ||a_k||_p.  A result object is built for the
winner alone.  Randomized subset maxima keep their own single-flip climb.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .seqspace import (
    EPS_NUM,
    Exponent,
    ExponentLike,
    ExponentTriple,
    FinSeq,
    _finite_array,
    row_norms,
)

logger = logging.getLogger(__name__)

#: Default cap on family size for exhaustive 2^n enumeration.
DEFAULT_N_EXH = 24

#: Conservative upper envelope for the constant of the sign-pattern
#: inequality; chosen above every published bound, so a genuine violation of
#: a check run at this level is a critical finding, not noise.
KG_UPPER = 1.8

#: Cap on n * dim for the families a seeded search draws (8 MB per float64 array).
DRAW_MAX_ENTRIES = 1 << 20

# Enumeration blocks hold about _BLOCK_BYTES of float64 sums (at least one
# position, at most 2^_BLOCK_MAX_LOG), so their size depends on the ambient
# length alone and memory stays bounded for every n.
_BLOCK_BYTES = 1 << 20
_BLOCK_MAX_LOG = 15
#: Enumerations with at most this many terms (positions * n * d) recompute
#: every position from scratch, which costs less than setting up a walk.
_SCRATCH_ALL_TERMS = 2048
#: Largest q whose power sums rank walked rows; above it rows rank by norm.
_POWER_MAX_Q = 64.0


@dataclass(frozen=True, eq=False)
class Family:
    """An ordered family of n vectors sharing one ambient length (rows of ``matrix``)."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _finite_array(self.matrix)
        if arr.ndim != 2:
            raise ValueError("family matrix must be 2-d (one row per vector)")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @staticmethod
    def of(vectors) -> "Family":
        """Build a family from an iterable of vectors (FinSeq or array-like rows)."""
        if isinstance(vectors, Family):
            return vectors
        if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
            return Family(vectors)
        rows = []
        for v in vectors:
            rows.append(v.entries if isinstance(v, FinSeq) else np.asarray(v))
        if not rows:
            return Family(np.zeros((0, 0)))
        lengths = {r.size for r in rows}
        if len(lengths) != 1:
            raise ValueError("family vectors must share one ambient length")
        return Family(np.stack(rows))

    @property
    def size(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def ambient_len(self) -> int:
        return int(self.matrix.shape[1])

    def __len__(self):
        return self.size

    def __getitem__(self, k: int) -> FinSeq:
        return FinSeq(self.matrix[k])

    def __eq__(self, other):
        if not isinstance(other, Family):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def to_json(self) -> list:
        return [[float(v) for v in row] for row in self.matrix]

    def __repr__(self):
        return f"Family(n={self.size}, ambient_len={self.ambient_len})"


@dataclass(frozen=True)
class SubsetMaxResult:
    """Outcome of a subset (or sign-pattern) maximization.

    ``argmax_subset`` is a bitmask over the family index; for sign patterns,
    bit = 1 means sign -1.  ``certified`` is True only for exhaustive
    enumeration; randomized search yields a lower bound.
    """

    value: float
    argmax_subset: int
    certified: bool
    mode: str
    seed: Optional[int] = None

    def to_json(self) -> dict:
        out = {
            "value": self.value,
            "subset_bitmask": f"{self.argmax_subset:#x}",
            "certified": self.certified,
            "mode": self.mode,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        return out


@dataclass(frozen=True)
class QuotientResult:
    """An unconditionality quotient with its two ingredients."""

    numerator: float
    denominator: float
    quotient: float
    certified: bool
    subset: SubsetMaxResult

    def to_json(self) -> dict:
        """The subset's JSON with its ``value`` replaced by the quotient, which comes first."""
        out = self.subset.to_json()
        del out["value"]
        return {"quotient": self.quotient, **out}


def _scratch_sums(X: np.ndarray, masks: np.ndarray, signs: bool = False) -> np.ndarray:
    """Each mask's subset sum (or signed sum, bit = 1 meaning -1) of the rows of X.

    Every sum is recomputed from the rows, added in index order.
    """
    bit = masks[:, None] >> np.arange(X.shape[0]) & 1
    coef = 1.0 - 2.0 * bit if signs else bit.astype(np.float64)
    terms = coef[:, :, None] * X
    np.cumsum(terms, axis=1, out=terms)
    return terms[:, -1]


def _first_best(X, q, signs, positions, chunk, best):
    """Merge Gray positions, in Gray order, into ``best`` = (value, mask) by scratch norm.

    Only a strictly larger value replaces ``best``, so ties keep the first.
    """
    masks = np.concatenate(positions)
    masks ^= masks >> 1
    for at in range(0, masks.size, chunk):
        part = masks[at : at + chunk]
        vals = row_norms(_scratch_sums(X, part, signs), q)
        k = int(np.argmax(vals))
        if vals[k] > best[0]:
            best = (float(vals[k]), int(part[k]))
    return best


def _block_rows(d: int, total: int) -> int:
    """Positions per block: the largest power of two whose sums fit _BLOCK_BYTES, at least 1."""
    log = (_BLOCK_BYTES // (8 * d)).bit_length() - 1
    return min(total, 1 << min(max(log, 0), _BLOCK_MAX_LOG))


@functools.lru_cache(maxsize=None)
def _gray_bits(k: int) -> np.ndarray:
    """Bit i of gray(j) at row i, column j, for j < 2^k (read-only float64).

    Cached per k <= _BLOCK_MAX_LOG: at most 16 tables, about 8 MB in all.
    """
    j = np.arange(1 << k)
    j ^= j >> 1
    bits = np.empty((k, 1 << k))
    for i in range(k):
        bits[i] = j >> i & 1
    bits.setflags(write=False)
    return bits


def _low_walk(Xs: np.ndarray, k: int, signs: bool) -> np.ndarray:
    """Sums over rows 0..k-1 of Xs at Gray positions 0..2^k-1, one column per position.

    For signs, bit = 1 means -1: the sum is the all-plus sum minus twice the
    subset sum.
    """
    low = Xs[:k].T @ _gray_bits(k)
    if signs:
        low *= -2.0
        low += Xs[:k].sum(axis=0)[:, None]
    return low


def _ranking(q: Exponent, n: int, d: int):
    """A key monotone in the lq norm of each position (column) of a block, and its candidate slack.

    Keys are power sums sum |s|^q (the max |s| for q = inf); the walked
    family is kept below 1 by an exact power-of-two scaling, so no root is
    taken and nothing overflows.  Above _POWER_MAX_Q the power sums could
    underflow and positions are ranked by their norms.  The slack is a
    relative bound, four times over, on how far rounding can move the key of
    a position that ranks near the top: each walked sum is a low-table entry
    plus a high-row sum, each a dot product of at most n terms (about 3n for
    signs), and its key adds the rounding of a d-term sum.
    """
    drift = 2.0 * (2 * n + d + 2) * np.finfo(np.float64).eps * d ** q.reciprocal
    if q.is_infinite:

        def key(buf, out):
            np.abs(buf, out=buf)
            return buf.max(axis=0, out=out)

        return key, 4.0 * drift
    p = q.value
    if p > _POWER_MAX_Q:
        return (lambda buf, out: row_norms(buf.T, q)), 4.0 * drift
    ones = np.ones(d)
    if p == 2.0:

        def key(buf, out):
            return np.einsum("ji,ji->i", buf, buf, out=out)

    elif p == 3.0:

        def key(buf, out):
            np.abs(buf, out=buf)
            return np.einsum("ji,ji,ji->i", buf, buf, buf, out=out)

    else:

        def key(buf, out):
            np.abs(buf, out=buf)
            if p != 1.0:
                np.power(buf, p, out=buf)
            return np.dot(ones, buf, out=out)

    return key, 4.0 * p * drift


def _exhaustive_best(X: np.ndarray, q: Exponent, signs: bool):
    """Exact (value, mask) of the largest subset sum, or signed sum, of the rows of X.

    Each block of Gray positions is the high-row sum of its first position
    plus the low table (mirrored when bit k of the block start is set, since
    that is bit k-1 of its Gray code).  Blocks are ranked by power sums of an
    exactly scaled copy of X, and every position whose key comes within the
    rounding slack of the best so far is recomputed from scratch.  The value
    is the norm of the returned mask's scratch sum, and the mask is the first
    in Gray order attaining it, as in a from-scratch enumeration.  Sign
    patterns walk only the positions with bit n-1 clear: s and -s have the
    same norm, and the clear one comes first.
    """
    n, d = X.shape
    absmax = float(np.abs(X).max()) if X.size else 0.0
    if absmax == 0.0:
        return 0.0, 0
    total = 1 << (n - 1 if signs else n)
    # scratch sums are evaluated in chunks of about _BLOCK_BYTES of terms
    chunk = max(1, _BLOCK_BYTES // (8 * n * d))
    if total * n * d <= _SCRATCH_ALL_TERMS:
        return _first_best(X, q, signs, [np.arange(total)], chunk, (-1.0, 0))
    rows = _block_rows(d, total)
    k = rows.bit_length() - 1
    # every subset sum of the scaled rows stays below 1 in absolute value
    Xs = np.ldexp(X, -(math.frexp(absmax)[1] + n.bit_length()))
    low = _low_walk(Xs, k, signs)
    mirrored = low[:, ::-1]
    high_rows, high_bits = Xs[k:], np.arange(k, n)
    base = np.empty(d)
    buf = np.empty((d, rows))
    keys = np.empty(rows)
    key, slack = _ranking(q, n, d)

    best_key = floor = -1.0
    best = (-1.0, 0)
    pending: list[np.ndarray] = []
    pending_rows = 0
    for lo in range(0, total, rows):
        on = (lo ^ (lo >> 1)) >> high_bits & 1
        np.dot(1.0 - 2.0 * on if signs else on.astype(np.float64), high_rows, out=base)
        np.add(mirrored if (lo >> k) & 1 else low, base[:, None], out=buf)
        ranked = key(buf, keys)
        top = float(ranked.max())
        if top < floor:
            continue
        if top > best_key:
            best_key, floor = top, top * (1.0 - slack)
        hits = np.flatnonzero(ranked >= floor)
        hits += lo
        pending.append(hits)
        pending_rows += hits.size
        if pending_rows >= chunk:
            best = _first_best(X, q, signs, pending, chunk, best)
            pending, pending_rows = [], 0
    if pending:
        best = _first_best(X, q, signs, pending, chunk, best)
    return best


def check_threads(threads: int) -> None:
    """Reject a worker count below 1.

    Every count of at least 1 is accepted and gives the same result: work
    runs serially, since a thread pool over enumeration blocks or grid
    points gave no speed-up.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")


def _require_exhaustible(n: int, n_exh: int, hint: str = ""):
    if n > n_exh:
        raise ValueError(
            f"family size {n} exceeds the exhaustive cap {n_exh} (2^{n} subsets){hint}"
        )


def _random_mask(rng: np.random.Generator, n: int) -> int:
    """A uniform n-bit mask, drawn low bits first in chunks of at most 63 bits.

    For n <= 63 this is the single draw ``rng.integers(0, 1 << n)``; wider
    masks do not fit numpy's int64 draws.
    """
    mask = 0
    for lo in range(0, n, 63):
        mask |= int(rng.integers(0, 1 << min(63, n - lo))) << lo
    return mask


def _randomized_subset_best(X: np.ndarray, q: Exponent, budget: int, seed):
    """Random restarts plus single-flip hill climbing; returns (value, mask)."""
    n = X.shape[0]
    best_val, best_mask = 0.0, 0
    if n == 0:
        return best_val, best_mask
    children = np.random.SeedSequence(seed).spawn(budget)
    for child in children:
        rng = np.random.default_rng(child)
        mask = _random_mask(rng, n)
        # an object array keeps masks of 64 or more bits exact
        cur = _scratch_sums(X, np.array([mask], dtype=object))[0]
        cur_val = float(row_norms(cur.reshape(1, -1), q)[0])
        while True:
            in_set = np.array([(mask >> k) & 1 for k in range(n)], dtype=bool)
            flips = np.where(in_set[:, None], -1.0, 1.0) * X
            cand = cur[None, :] + flips
            vals = row_norms(cand, q)
            k = int(np.argmax(vals))
            if vals[k] <= cur_val:
                break
            cur = cand[k]
            cur_val = float(vals[k])
            mask ^= 1 << k
        # report the scratch-recomputed value so climbing drift cannot inflate it
        exact = float(row_norms(_scratch_sums(X, np.array([mask], dtype=object)), q)[0])
        if exact > best_val:
            best_val, best_mask = exact, mask
    return best_val, best_mask


def subset_max_norm(
    fam,
    q: ExponentLike,
    mode: str = "exhaustive",
    *,
    budget: Optional[int] = None,
    seed: Optional[int] = None,
    n_exh: int = DEFAULT_N_EXH,
    threads: int = 1,
) -> SubsetMaxResult:
    """max over subsets F of ||sum_{k in F} x_k||_q.

    Exhaustive mode is exact and certified (Gray-code walk over all 2^n
    subsets, n <= n_exh; the value is the norm of the reported subset's sum
    recomputed from scratch).  Randomized mode
    runs ``budget`` seeded restarts with single-flip hill climbing and returns
    an uncertified lower bound.
    """
    check_threads(threads)
    fam = Family.of(fam)
    q = Exponent.of(q)
    if mode not in ("exhaustive", "randomized"):
        raise ValueError(f"unknown mode {mode!r}; expected 'exhaustive' or 'randomized'")
    if mode == "exhaustive":
        _require_exhaustible(fam.size, n_exh, "; use mode='randomized' with a budget")
        val, mask = _exhaustive_best(fam.matrix, q, signs=False)
        return SubsetMaxResult(val, mask, True, "exhaustive")
    if budget is None or budget < 1:
        raise ValueError("empty budget")
    val, mask = _randomized_subset_best(fam.matrix, q, budget, seed)
    return SubsetMaxResult(val, mask, False, "randomized", seed)


def sign_max_norm(
    fam,
    q: ExponentLike,
    *,
    n_exh: int = DEFAULT_N_EXH,
    threads: int = 1,
) -> SubsetMaxResult:
    """max over sign patterns s in {-1,1}^n of ||sum_k s_k x_k||_q.

    Exact Gray-code enumeration of the 2^(n-1) patterns with s_{n-1} = +1,
    since s and -s have the same norm; the argmax bitmask has bit = 1 where
    the sign is -1, so its bit n-1 is always clear.
    """
    check_threads(threads)
    fam = Family.of(fam)
    q = Exponent.of(q)
    _require_exhaustible(fam.size, n_exh)
    val, mask = _exhaustive_best(fam.matrix, q, signs=True)
    return SubsetMaxResult(val, mask, True, "exhaustive")


def _paired_families(avec, xvec) -> tuple[Family, Family]:
    """The a- and x-families, checked to have one size and one ambient length."""
    avec = Family.of(avec)
    xvec = Family.of(xvec)
    if avec.size != xvec.size:
        raise ValueError("a-family and x-family must have the same size")
    if avec.size and avec.ambient_len != xvec.ambient_len:
        raise ValueError("a-family and x-family must share the ambient length")
    return avec, xvec


def _product_norm(A: np.ndarray, X: np.ndarray, r: Exponent) -> float:
    """||sum_k a_k x_k||_r for the rows a_k of A and x_k of X."""
    return float(row_norms((A * X).sum(axis=0).reshape(1, -1), r)[0])


def unconditionality_quotient(
    avec,
    xvec,
    t: ExponentTriple,
    mode: str = "exhaustive",
    *,
    budget: Optional[int] = None,
    seed: Optional[int] = None,
    n_exh: int = DEFAULT_N_EXH,
) -> QuotientResult:
    """The quotient ||sum a_k x_k||_r / (max_k ||a_k||_p * subset_max(x, q)).

    Any constant C making the action unconditional satisfies C >= quotient,
    so exhaustive quotients are certified lower bounds.  All-zero a- or
    x-families make the denominator vanish and are rejected as degenerate.
    """
    avec, xvec = _paired_families(avec, xvec)
    t.require_holder_valid()
    sub = subset_max_norm(xvec, t.q, mode, budget=budget, seed=seed, n_exh=n_exh)
    parts = _quotient_parts(avec.matrix, xvec.matrix, t, sub=(sub.value, sub.argmax_subset))
    if parts is None:
        raise ValueError("degenerate family: denominator is zero")
    return parts.result(sub)


def main1_bound_check(
    avec,
    xvec,
    q: ExponentLike,
    K: float,
    *,
    n_exh: int = DEFAULT_N_EXH,
) -> bool:
    """Check ||sum a_k x_k||_q <= 2 K max_k ||a_k||_2 * subset_max(x, q).

    The a-family is measured in the l2 norm; for coordinatewise
    multiplication l2 x lq -> lq the relevant operator norm is 1, so the
    right side needs no extra factor.  Both sides come from the quotient
    evaluator at the triple (2, q, q); all-zero families satisfy the check
    as 0 <= 0.
    """
    avec, xvec = _paired_families(avec, xvec)
    _require_exhaustible(xvec.size, n_exh)
    q = Exponent.of(q)
    parts = _quotient_parts(avec.matrix, xvec.matrix, ExponentTriple(Exponent(2.0), q, q))
    if parts is None:
        return True  # a zero denominator means a zero product: 0 <= 0
    lhs = parts.numerator
    rhs = 2.0 * K * parts.a_max * parts.sub[0]
    ok = lhs <= rhs * (1.0 + EPS_NUM)
    if not ok and K >= KG_UPPER:
        logger.critical(
            "2K inequality violated at conservative K=%.3g: lhs %.12g > rhs %.12g "
            "on a %d-vector family; this should be impossible",
            K,
            lhs,
            rhs,
            avec.size,
        )
    return ok


def _coordinate_ascent(best, moves, evaluate, sweeps: int):
    """First-improvement coordinate ascent on the entries of float matrices.

    ``best`` describes the current entries: a tuple whose first field is the
    score, carrying whatever ``evaluate`` may reuse.  A sweep runs through
    ``moves()``, which yields ``(M, i, j, value)`` one move at a time; the
    entry ``M[i, j]`` is set to ``value`` and ``evaluate(M, best)`` describes
    the moved entries, recomputing only what depends on M, or returns None
    for a degenerate family.  A move is kept only if it scores strictly
    higher, and reverted otherwise.  The climb stops after a sweep that keeps
    no move, or after ``sweeps`` sweeps.  On return the matrices hold the
    entries the returned tuple describes.
    """
    for _ in range(sweeps):
        improved = False
        for M, i, j, value in moves():
            orig = M[i, j]
            M[i, j] = value
            cand = evaluate(M, best)
            if cand is not None and cand[0] > best[0]:
                best, improved = cand, True
            else:
                M[i, j] = orig
        if not improved:
            break
    return best


class _Quotient(NamedTuple):
    """A quotient of float arrays A, X and its parts.

    ``a_max`` depends on A alone and ``sub``, the (value, mask) of X's exact
    subset max, on X alone.
    """

    quotient: float
    numerator: float
    denominator: float
    a_max: float
    sub: tuple[float, int]

    def result(self, subset: SubsetMaxResult) -> QuotientResult:
        """The public result, with ``subset`` the maximization that gave ``sub``."""
        return QuotientResult(
            self.numerator, self.denominator, self.quotient, subset.certified, subset
        )


def _quotient_parts(A, X, t: ExponentTriple, a_max=None, sub=None) -> Optional[_Quotient]:
    """The quotient of A and X, or None when its denominator is zero.

    ``a_max`` and ``sub`` are computed unless given; ``sub`` defaults to X's
    exhaustive subset max.  ``unconditionality_quotient`` and both searches
    evaluate every quotient here.
    """
    numerator = _product_norm(A, X, t.r)
    if a_max is None:
        a_max = float(row_norms(A, t.p).max(initial=0.0))
    if sub is None:
        sub = _exhaustive_best(X, t.q, signs=False)
    denominator = a_max * sub[0]
    if denominator <= 0.0:
        return None
    return _Quotient(numerator / denominator, numerator, denominator, a_max, sub)


def _refine_families(A, X, t, best: _Quotient, sweeps=2, steps=(0.5, 0.1)) -> _Quotient:
    """Coordinate ascent on A, then X, by moves of +-scale * max(1, |entry|).

    A and X are moved in place.  A move on A reuses X's subset max, and a
    move on X reuses max_k ||a_k||_p.
    """

    def moves():
        for scale in steps:
            for M in (A, X):
                for i in range(M.shape[0]):
                    for j in range(M.shape[1]):
                        span = max(1.0, abs(M[i, j]))
                        for delta in (scale * span, -scale * span):
                            yield M, i, j, M[i, j] + delta

    def evaluate(M, cur: _Quotient):
        if M is A:
            return _quotient_parts(A, X, t, sub=cur.sub)
        return _quotient_parts(A, X, t, a_max=cur.a_max)

    return _coordinate_ascent(best, moves, evaluate, sweeps)


def _seeded_restarts(n: int, dim: int, budget: int, seed, n_exh: int, draw, climb):
    """The best climbed draw over ``budget`` seeded restarts, shared by both family searches.

    Trial k runs on the k-th child of ``SeedSequence(seed)``:
    ``draw(rng, lattice)`` returns fresh float arrays, lattice entries at
    even trials and standard normal ones at odd trials, and
    ``climb(arrays, best)`` refines them into a tuple whose first field is
    the score, or returns None for a degenerate draw, which is skipped.  Only
    a strictly higher score replaces the best.  n * dim > DRAW_MAX_ENTRIES
    raises ValueError before anything is drawn.
    """
    if budget < 1:
        raise ValueError("empty budget")
    if n < 1 or dim < 1:
        raise ValueError("n and dim must be >= 1")
    if n * dim > DRAW_MAX_ENTRIES:
        raise ValueError(f"n * dim = {n * dim} exceeds the cap of {DRAW_MAX_ENTRIES} entries per draw")
    _require_exhaustible(n, n_exh)
    best = None
    for trial, child in enumerate(np.random.SeedSequence(seed).spawn(budget)):
        res = climb(draw(np.random.default_rng(child), trial % 2 == 0), best)
        if res is not None and (best is None or res[0] > best[0]):
            best = res
    if best is None:
        raise ValueError("search drew only degenerate families; increase the budget")
    return best


def quotient_lower_bound_search(
    t: ExponentTriple,
    n: int,
    dim: int,
    budget: int,
    seed: Optional[int] = None,
    *,
    n_exh: int = DEFAULT_N_EXH,
) -> QuotientResult:
    """Best exhaustive quotient over ``budget`` seeded random families.

    Restarts alternate entries drawn from the {-1,0,1} lattice and from the
    standard normal distribution; each draw scoring above 0.8 times the best
    so far is refined by coordinate ascent on its entries.  Draws with a
    zero denominator are skipped.  Deterministic given ``seed``.  Every
    quotient equals ``unconditionality_quotient`` of the same entries, and a
    result object is built for the winner alone.
    """
    t.require_holder_valid()

    def draw(rng, lattice):
        if lattice:
            return [rng.integers(-1, 2, size=(n, dim)).astype(np.float64) for _ in range(2)]
        return [rng.standard_normal((n, dim)) for _ in range(2)]

    def climb(AX, best):
        res = _quotient_parts(*AX, t)
        if res is not None and (best is None or res.quotient > 0.8 * best.quotient):
            res = _refine_families(*AX, t, res)
        return res

    best = _seeded_restarts(n, dim, budget, seed, n_exh, draw, climb)
    return best.result(SubsetMaxResult(*best.sub, True, "exhaustive"))
