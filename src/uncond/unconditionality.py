"""Subset-maximum norms and unconditionality quotients of finite families.

The central quantity is the quotient

    ||sum_k a_k x_k||_r  /  ( max_k ||a_k||_p * max_{F subset of n} ||sum_{k in F} x_k||_q )

whose supremum over all finite families is the smallest constant making the
action unconditional.  Every quotient computed here is therefore a certified
lower bound for that constant.

An exact maximum takes one of four routes, picked per call from n, d, q and
the number of positions (2^n subsets, or 2^(n-1) sign patterns): tiny
enumerations recompute every position from scratch (``_scratch_maxima``,
which takes a whole stack of families at once); narrow ones (n >= 2d,
at least 2^15 positions) run a branch and bound and fall back to the walk
when its frontier outgrows a fixed byte budget; q = 2 with d >= 2n and at
least 2^12 positions walks an n x n Gram factor; everything else walks the
rows in reflected-Gray-code order, in blocks of about 1 MiB of sums
(``_exhaustive_best``).  The walks and the branch and bound rank positions
by keys and recompute from scratch every position whose key may be the
largest.  One relative slack (``_slack``) is their only rounding rule; the
Gram walk also lowers its floor by a proven factorization bound.  All four
report the same (value, mask), bit for bit: the norm of the first position
in Gray order attaining the largest scratch norm, its sum added in index
order.  The enumeration is serial; the ``threads`` argument of
``subset_max_norm`` and ``sign_max_norm`` is accepted and changes nothing.

Every quotient, public or inside a search, is evaluated by one routine
(``_quotient_parts``), which scores a stack of families at once; the public
functions pass a stack of one, so a search compares the very float
``unconditionality_quotient`` returns for the same entries.  The seeded
searches for large quotients here and for large sign-pattern ratios in
``lemma_lab`` share one restart loop (``_seeded_restarts``: argument checks,
seeded draws, skipped degenerate draws, strict improvement) and one
first-improvement coordinate ascent on matrix entries
(``_coordinate_ascent``); each supplies only its draw and its climb.  The
ascent scores moves in batches: the quotient search scores each row's moves
as one stack, keeps the first strictly improving one and scores the rest of
the row again, so it climbs exactly as one move at a time would; the sign
search scores one flip per batch.  It works on the drawn float arrays and
recomputes only what a move changes: a move on the a-family reuses the
x-family's subset max, a move on the x-family reuses max_k ||a_k||_p, and
the x-family maxima of a whole stack of tiny families come from one
from-scratch pass (``_stack_subset_best``).  A result object is built for
the winner alone.  Randomized subset maxima keep their own single-flip
climb.
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
#: q = 2 walks rank an n x n factor of the Gram matrix when d is at least
#: _GRAM_MIN_RATIO * n and there are at least _GRAM_MIN_POSITIONS positions;
#: below either, setting up the factor (about 0.1 ms) costs more than it saves.
_GRAM_MIN_RATIO = 2
_GRAM_MIN_POSITIONS = 1 << 12
#: Enumerations with n >= _BNB_MIN_RATIO * d and at least _BNB_MIN_POSITIONS
#: positions run a branch and bound before the walk.  Below 2^15 positions
#: its setup (about 0.7 ms) costs more than the walk; it still wins up to
#: d = 0.7 n on normal and lattice families, and at d >= n it can lose
#: (q = 1 signs).  Masks are int64, so the route stops at n = _BNB_MAX_N.
_BNB_MIN_RATIO = 2
_BNB_MIN_POSITIONS = 1 << 15
_BNB_MAX_N = 62
#: Cap on the bytes one branch-and-bound level allocates; past it the walk runs.
_FRONTIER_BYTES = 4 * _BLOCK_BYTES
#: Ascent steps from each zonotope-vertex seed of the branch-and-bound incumbent.
_SEED_STEPS = 3
#: Sweep caps of the coordinate ascents, and the quotient refinement's step scales.
_REFINE_SWEEPS = 2
_REFINE_STEPS = (0.5, 0.1)
_SIGN_FLIP_SWEEPS = 8
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).smallest_subnormal)


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


def _scratch_maxima(X: np.ndarray, q: Exponent, signs: bool) -> tuple[np.ndarray, np.ndarray]:
    """(value, mask) of the first largest scratch norm in Gray order, for each family of a stack.

    X is an (m, n, d) stack with n, d >= 1.  Every position of every family
    is summed at once: the sums over rows 0..k-1 at Gray positions 0..2^k-1
    are followed by the same sums in reverse order plus row k (reflected
    Gray code), or for signs minus row k, after which the first half takes
    +row k.  So each sum adds its rows in index order, as ``_scratch_sums``
    does, and is the same float up to the sign of a zero.  Sign patterns
    keep bit n-1 clear: row n-1 is added last, with sign +1.
    """
    m, n, d = X.shape
    low = n - 1 if signs else n
    sums = np.zeros((m, 1 << low, d))
    for k in range(low):
        head, tail = sums[:, : 1 << k], sums[:, 1 << k : 2 << k]
        row = X[:, k, None]
        if signs:
            np.subtract(head[:, ::-1], row, out=tail)
            head += row
        else:
            np.add(head[:, ::-1], row, out=tail)
    if signs:
        sums += X[:, n - 1, None]
    vals = row_norms(sums.reshape(-1, d), q).reshape(m, -1)
    k = vals.argmax(axis=1)
    return vals.max(axis=1), k ^ (k >> 1)


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


def _slack(q: Exponent, n: int, d: int) -> float:
    """The relative rounding slack of every candidate floor, for n rows of length d.

    The walk, the Gram walk and the branch and bound keep every position (or
    partial sum) whose key is at least ``top * (1 - slack)``, for ``top`` the
    largest key computed so far; ``lemma_lab``'s flip screen lowers its q = 1
    dual-table bounds by the same factor.  Keys (``_ranking``) are
    ||v||_q^e up to rounding, e = q for power sums and 1 otherwise.  With
    A_j = sum_k |x_kj|, u = eps / 2 and gamma_m = m u / (1 - m u):

    * Sum error.  Every float sum behind a key adds rows times +-1 or 2: a
      walk sum, a box bound |s + c| + w with its prefix and suffix sums, a
      seed or leaf sum, a dual-table bound, and the scratch sum
      ``_first_best`` ranks.  Each has at most n + 4 terms (about 3n in the
      sign walk, whose low sums are doubled), so in any order it is within
      gamma_m A_j of its exact value in coordinate j, and each norm or key
      adds the rounding of its own d-term sum.
    * Relative form.  Each A_j is at most twice the largest |coordinate j|
      of a subset sum (once for signs), so ||A||_q <= 2 d^(1/q) M for M the
      largest subset (or sign) norm; the screen uses ||A||_1 <= d M.  Chain
      the computed top key, the scratch norms of its position and of the
      first position F attaining the scratch maximum, and the computed key of
      F (or of the box of an ancestor of F, which the exact box bounds from
      above): keys move by a factor of at most about
      1 + e (4n + 4d + 24) eps d^(1/q).  The slack,
      8 e (2n + d + 2) eps d^(1/q), is well above that, so F and each of its
      branch-and-bound ancestors keeps a key at or above the floor.
    * Underflow.  The walked family is scaled (``_below_one``) so that M is
      at least 2^-(bit_length(n) + 2); keys near the top are then above
      2^-600, and the few ulps of 0 lost in the subnormal range are far
      below the slack.  The screen works on the unscaled family at q = 1,
      where every operation is an addition, an absolute value or a product
      by +-1 or 2, none of which rounds in the subnormal range.
    """
    e = 1.0 if q.is_infinite or q.value > _POWER_MAX_Q else q.value
    return 4.0 * e * (2.0 * (2 * n + d + 2) * _EPS * d ** q.reciprocal)


def _ranking(q: Exponent, d: int):
    """A key monotone in the lq norm of each position (column) of a block of d rows.

    Keys are power sums sum |s|^q (the max |s| for q = inf) of a family
    scaled by ``_below_one``, so no root is taken and nothing overflows.
    Above _POWER_MAX_Q power sums could underflow, and norms are the keys.
    """
    if q.is_infinite:

        def key(buf, out):
            np.abs(buf, out=buf)
            return buf.max(axis=0, out=out)

        return key
    p = q.value
    if p > _POWER_MAX_Q:
        return lambda buf, out: row_norms(buf.T, q)
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

    return key


def _below_one(M: np.ndarray) -> tuple[np.ndarray, int]:
    """M times 2^-shift, and shift: every subset or signed sum of its rows is then below 1.

    shift is the binary exponent of the largest |entry| plus bit_length(n),
    so the largest scaled entry is at least 2^-(bit_length(n) + 1).
    """
    shift = math.frexp(float(np.abs(M).max()))[1] + M.shape[0].bit_length()
    return np.ldexp(M, -shift), shift


def _gram_factor(Xs: np.ndarray) -> tuple[np.ndarray, float]:
    """An n x n family W whose Gram matrix is that of the rows of Xs up to eta, and eta.

    W is the transposed R factor of the QR factorization of Xs^T, so it is
    lower triangular.  For q = 2 the squared norm of a subset sum,
    ||1_F^T Xs||^2 = 1_F^T (Xs Xs^T) 1_F, depends on the Gram matrix alone,
    and the same holds for every sign vector s in place of 1_F, so

        | ||1_F^T W||^2 - ||1_F^T Xs||^2 |  =  |1_F^T E 1_F|  <=  sum_ij |E_ij|

    with E = WW^T - XsXs^T exactly, since every entry of 1_F (or s) has
    absolute value at most 1.  The bound is a posteriori: the factorization
    may be as inaccurate as it likes.  E is bounded through the computed Gram
    matrices.  A d-term dot product is off by at most gamma_d sum_l |a_l b_l|
    (gamma_m = m u / (1 - m u), u = eps / 2, any summation order), so

        |E_ij| <= |fl(WW^T)_ij - fl(XsXs^T)_ij|
                  + gamma_d (|Xs||Xs|^T)_ij + gamma_n (|W||W|^T)_ij,

    and summing over i, j turns the last two terms into
    gamma_d || |Xs|^T 1 ||^2 + gamma_n || |W|^T 1 ||^2.  The computed
    differences and their math.fsum each round once, which the factor
    1 + 4u covers; gamma = (d + n + 4) eps is more than twice gamma_d and
    gamma_n, and covers the rounding of the two squared norms as well.  The
    last term bounds products that underflow: each of the n^2 (d + n)
    products may lose up to the smallest subnormal.  The caller passes the
    power-of-two-scaled rows, whose entries are below 1, so nothing here
    overflows at any scale of the family.
    """
    n, d = Xs.shape
    W = np.linalg.qr(Xs.T, mode="r").T
    gap = np.abs(W @ W.T - Xs @ Xs.T)
    sides = float(np.square(np.abs(Xs).sum(axis=0)).sum() + np.square(np.abs(W).sum(axis=0)).sum())
    eta = (1.0 + 2.0 * _EPS) * math.fsum(gap.ravel()) + (d + n + 4) * _EPS * sides
    eta += 2.0 * n * n * (d + n) * _TINY
    return W, eta


def _vertex_seeds(Xs: np.ndarray, q: Exponent, signs: bool, key) -> float:
    """The largest key over a few zonotope vertices of the rows of Xs.

    The vertex for a direction h is the subset {k : <h, x_k> >= 0} (for
    signs, +1 there and -1 elsewhere): its sum maximizes <h, s> over every
    subset (or signed) sum s.  From each of h = +-e_j, every step moves h to
    a subgradient of the lq norm at the sum just found, which by convexity
    never lowers the norm.  Each key is that of a float sum of an actual
    position, as ``_slack`` requires of the incumbent it prunes against.
    """
    d = Xs.shape[1]
    H = np.concatenate([np.eye(d), -np.eye(d)])
    best = 0.0
    for _ in range(_SEED_STEPS):
        P = H @ Xs.T
        S = (np.where(P >= 0.0, 1.0, -1.0) if signs else (P >= 0.0).astype(np.float64)) @ Xs
        best = max(best, float(key(S.T.copy(), np.empty(len(S))).max()))
        # at q = 1 a zero coordinate takes +1, so the climb can leave it
        sign = np.where(S < 0.0, -1.0, 1.0)
        A = np.abs(S)
        top = A.max(axis=1, keepdims=True)
        if q.is_infinite:
            H = sign * (A == top)
        else:
            H = sign * (A / np.where(top > 0.0, top, 1.0)) ** (q.value - 1.0)
    return best


def _bnb_candidates(Xs: np.ndarray, q: Exponent, signs: bool, key):
    """Sorted Gray ranks of every position that may attain the scratch maximum, or None; and the frontier peak.

    Xs is scaled by ``_below_one`` and ``key`` is that of ``_ranking``.  Rows
    are branched on in order of decreasing norm, breadth first, one level per
    row; for signs the root holds row n-1 with sign +1, as in the walk's
    half.  A node holds the sum s of the rows fixed so far.  Every completion
    lies coordinatewise in the box [s + sum_rest min(x, 0), s + sum_rest
    max(x, 0)] (for signs, s -+ sum_rest |x|), and lq norms are monotone in
    the absolute values of the coordinates, so ||V||_q bounds every
    completion's norm, where V = |s + c| + w with c the box's centre offset
    and w its half-width.  A node is pruned when the key of its computed V is
    below the incumbent's key times 1 - ``_slack``, which keeps every
    ancestor of the first position in Gray order attaining the scratch
    maximum.  The incumbent is the best of ``_vertex_seeds``, raised by the
    last level's best leaf, whose box is its own sum.  The leaves' masks go
    back to Gray ranks by the prefix XOR.  None means a level would allocate
    more than _FRONTIER_BYTES, which ties can cause.
    """
    n, d = Xs.shape
    order = np.argsort(-row_norms(Xs, q), kind="stable")
    if signs:
        order = np.concatenate(([n - 1], order[order != n - 1]))
    R = Xs[order]
    # the box of the rows after level t is row t of (centre, half); the last is empty
    rest = np.zeros((2, n + 1, d))
    if signs:
        rest[1, :n] = np.cumsum(np.abs(R[::-1]), axis=0)[::-1]
    else:
        hi = np.cumsum(np.maximum(R[::-1], 0.0), axis=0)[::-1]
        lo = np.cumsum(np.minimum(R[::-1], 0.0), axis=0)[::-1]
        rest[0, :n], rest[1, :n] = (hi + lo) * 0.5, (hi - lo) * 0.5
    centre, half = rest[0, 1:, :, None], rest[1, 1:, :, None]

    best_key, shrink = _vertex_seeds(Xs, q, signs, key), 1.0 - _slack(q, n, d)
    # for signs the root already holds row n-1, first in order, with sign +1
    sums = R[:1].T.copy() if signs else np.zeros((d, 1))
    masks = np.zeros(1, dtype=np.int64)
    peak = 1
    for t in range(int(signs), n):
        m = masks.size
        if 16 * m * (2 * d + 2) > _FRONTIER_BYTES:
            return None, peak
        row = R[t][:, None]
        kids = np.empty((d, 2 * m))
        if signs:
            np.add(sums, row, out=kids[:, :m])
            np.subtract(sums, row, out=kids[:, m:])
        else:
            kids[:, :m] = sums
            np.add(sums, row, out=kids[:, m:])
        kid_masks = np.concatenate([masks, masks | np.int64(1) << order[t]])
        bound = kids + centre[t]
        np.abs(bound, out=bound)
        bound += half[t]
        keys = key(bound, np.empty(kids.shape[1]))
        if t == n - 1:
            best_key = max(best_key, float(keys.max()))
        keep = keys >= best_key * shrink
        sums, masks = kids[:, keep], kid_masks[keep]
        peak = max(peak, masks.size)
    for step in (1, 2, 4, 8, 16, 32):
        masks ^= masks >> step
    masks.sort()
    return masks, peak


def _exhaustive_best(X: np.ndarray, q: Exponent, signs: bool):
    """Exact (value, mask) of the largest subset sum, or signed sum, of the rows of X.

    Each block of Gray positions is the high-row sum of its first position
    plus the low table (mirrored when bit k of the block start is set, since
    that is bit k-1 of its Gray code).  Blocks are ranked by power sums of X
    scaled by ``_below_one``, and every position whose key is at least the
    best so far times 1 - ``_slack`` is recomputed from scratch.  The value
    is the norm of the returned mask's scratch sum, and the mask is the first
    in Gray order attaining it, as in a from-scratch enumeration.  Sign
    patterns walk only the positions with bit n-1 clear: s and -s have the
    same norm, and the clear one comes first.

    For q = 2 with d >= _GRAM_MIN_RATIO * n and at least _GRAM_MIN_POSITIONS
    positions, the walk ranks an n x n factor W of the Gram matrix instead
    of the d wide rows (``_gram_factor``), rescaled by ``_below_one``: each
    squared key is within eta of that of the same subset of the scaled rows,
    so the floor drops by 2 eta as well.  Eta covers the factorization; the
    slack, the one for the d wide rows, covers the rounding of the walk on W.

    With n >= _BNB_MIN_RATIO * d and at least _BNB_MIN_POSITIONS positions,
    ``_bnb_candidates`` runs first, pruning at the same slack: its leaves
    include the first position attaining the scratch maximum, so ranking
    them with ``_first_best`` in Gray order gives the walk's (value, mask).
    If its frontier outgrows _FRONTIER_BYTES, the walk runs instead.  Each
    call logs its route at debug level, with the positions, the frontier
    peak and the number of candidates recomputed.
    """
    n, d = X.shape
    if not X.any():
        return 0.0, 0
    total = 1 << (n - 1 if signs else n)
    if total * n * d <= _SCRATCH_ALL_TERMS:
        _log_route("scratch", total, 0, total)
        [value], [mask] = _scratch_maxima(X[None], q, signs)
        return float(value), int(mask)
    # scratch sums are evaluated in chunks of about _BLOCK_BYTES of terms
    chunk = max(1, _BLOCK_BYTES // (8 * n * d))
    Xs = _below_one(X)[0]
    key, shrink = _ranking(q, d), 1.0 - _slack(q, n, d)
    route, peak = "walk", 0
    if _BNB_MIN_RATIO * d <= n <= _BNB_MAX_N and total >= _BNB_MIN_POSITIONS:
        ranks, peak = _bnb_candidates(Xs, q, signs, key)
        if ranks is not None:
            _log_route("branch and bound", total, peak, ranks.size)
            return _first_best(X, q, signs, [ranks], chunk, (-1.0, 0))
        route = "branch-and-bound fallback"
    walked, eta = Xs, 0.0
    if q.value == 2.0 and d >= _GRAM_MIN_RATIO * n and total >= _GRAM_MIN_POSITIONS:
        route = "Gram walk"
        W, eta = _gram_factor(Xs)
        walked, shift = _below_one(W)
        eta = math.ldexp(eta, -2 * shift)
    width = walked.shape[1]
    rows = _block_rows(width, total)
    k = rows.bit_length() - 1
    low = _low_walk(walked, k, signs)
    mirrored = low[:, ::-1]
    high_rows, high_bits = walked[k:], np.arange(k, n)
    base = np.empty(width)
    buf = np.empty((width, rows))
    keys = np.empty(rows)

    best_key = floor = -1.0
    best = (-1.0, 0)
    pending: list[np.ndarray] = []
    pending_rows = recomputed = 0
    for lo in range(0, total, rows):
        on = (lo ^ (lo >> 1)) >> high_bits & 1
        np.dot(1.0 - 2.0 * on if signs else on.astype(np.float64), high_rows, out=base)
        np.add(mirrored if (lo >> k) & 1 else low, base[:, None], out=buf)
        ranked = key(buf, keys)
        top = float(ranked.max())
        if top < floor:
            continue
        if top > best_key:
            best_key, floor = top, top * shrink - 2.0 * eta
        hits = np.flatnonzero(ranked >= floor)
        hits += lo
        pending.append(hits)
        pending_rows += hits.size
        recomputed += hits.size
        if pending_rows >= chunk:
            best = _first_best(X, q, signs, pending, chunk, best)
            pending, pending_rows = [], 0
    if pending:
        best = _first_best(X, q, signs, pending, chunk, best)
    _log_route(route, total, peak, recomputed)
    return best


def _log_route(route: str, positions: int, peak: int, recomputed: int) -> None:
    logger.debug(
        "exact route %s: %d positions, frontier peak %d, %d candidates recomputed",
        route,
        positions,
        peak,
        recomputed,
    )


def _stack_subset_best(X: np.ndarray, q: Exponent) -> tuple[np.ndarray, np.ndarray]:
    """Exact (values, masks) of the largest subset sum of each family of an (m, n, d) stack.

    Each entry is what ``_exhaustive_best`` returns for that family.  When
    2^n n d <= _SCRATCH_ALL_TERMS the whole stack takes the scratch route at
    once (``_scratch_maxima``) and logs one route line; otherwise each family
    is enumerated alone.
    """
    m, n, d = X.shape
    total = 1 << n
    if X.size and total * n * d <= _SCRATCH_ALL_TERMS:
        _log_route("scratch", total, 0, total)
        return _scratch_maxima(X, q, signs=False)
    values, masks = zip(*(_exhaustive_best(x, q, signs=False) for x in X))
    return np.array(values), np.array(masks)


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

    Exhaustive mode is exact and certified for n <= n_exh: the value is the
    norm of the reported subset's sum recomputed from scratch, and the subset
    is the first attaining it in Gray-code order.  The route is picked from
    the shape (see the module docstring): every subset from scratch when
    2^n n d <= 2048; a branch and bound when n >= 2d and 2^n >= 2^15, with
    the walk as fallback; for q = 2 with d >= 2n and 2^n >= 2^12, a walk on
    an n x n Gram factor; otherwise a Gray-code walk over all 2^n subsets.
    Every route gives the same result.  Randomized mode runs ``budget``
    seeded restarts with single-flip hill climbing and returns an
    uncertified lower bound.
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

    Exact over the 2^(n-1) patterns with s_{n-1} = +1, since s and -s have
    the same norm; the argmax bitmask has bit = 1 where the sign is -1, so
    its bit n-1 is always clear.  The route is picked as for
    ``subset_max_norm`` with 2^(n-1) positions: from scratch, branch and
    bound (n >= 2d, 2^(n-1) >= 2^15), the Gram walk (q = 2, d >= 2n,
    2^(n-1) >= 2^12), or the Gray-code walk; all give the same result.
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


def _product_norm(A: np.ndarray, X: np.ndarray, r: Exponent) -> np.ndarray:
    """||sum_k a_k x_k||_r of each family of a stack, for the rows a_k of A[m] and x_k of X[m]."""
    return row_norms((A * X).sum(axis=1), r)


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
    as 0 <= 0.  A NaN ``K`` raises ValueError.
    """
    if math.isnan(K):
        raise ValueError("K cannot be NaN")
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


def _coordinate_ascent(best, moves, evaluate, sweeps: int, name: str):
    """First-improvement coordinate ascent on the entries of float matrices, scored in batches.

    ``best`` describes the current entries: a tuple whose first field is the
    score, carrying whatever ``evaluate`` may reuse.  A sweep runs through
    ``moves()``, which yields batches ``(M, i, cols, deltas)``: the moves
    ``M[i, cols[k]] += deltas[k]`` on row i of M, in order, with ``cols``
    and ``deltas`` two sequences (arrays or tuples) of one length.
    ``evaluate(M, i, cols, deltas, best)`` scores every move of the batch
    from the current entries, recomputing only what depends on M, and
    returns ``(scores, pick)``: one score per move (-inf for a degenerate
    family) and ``pick(k)``, the tuple describing the entries after move k.
    The first move scoring strictly higher is kept, ``pick`` runs for it
    after it is applied to M (a client's only notice of a keep), and the
    rest of the batch is scored again from the new entries, so the moves are
    tried in order, each against the entries every earlier kept move left.
    The climb stops after a sweep that keeps no move, or after ``sweeps``
    sweeps, and the matrices then hold the entries the returned tuple describes.

    One debug line per climb, headed ``name``, gives the sweeps, the batches
    scored, the moves scored in them, the moves a one-at-a-time ascent would
    have scored (each batch up to its kept move), the moves kept, and the
    reverse moves scored: moves on the entry a kept move just changed.
    """
    sweep = batches = scored = tried = kept = reverse = 0
    for sweep in range(1, sweeps + 1):
        improved = False
        for M, i, cols, deltas in moves():
            while len(cols):
                scores, pick = evaluate(M, i, cols, deltas, best)
                batches += 1
                scored += len(cols)
                for k, score in enumerate(scores):
                    if score > best[0]:
                        break
                else:
                    tried += len(cols)
                    break
                j = cols[k]
                M[i, j] += deltas[k]
                best, improved = pick(k), True
                tried += k + 1
                kept += 1
                cols, deltas = cols[k + 1 :], deltas[k + 1 :]
                reverse += len(cols) > 0 and cols[0] == j
        if not improved:
            break
    logger.debug(
        "%s: %d sweeps, %d batches, %d moves scored, %d tried in order, %d kept, %d reverse moves scored",
        name,
        sweep,
        batches,
        scored,
        tried,
        kept,
        reverse,
    )
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


class _Quotients(NamedTuple):
    """The quotients of a stack of families, one entry per family, and their parts.

    ``a_max`` and ``sub`` = (values, masks) hold one entry per family, or a
    float (and an int mask) shared by every family.  A family whose
    denominator is zero has quotient -inf.
    """

    quotient: np.ndarray
    numerator: np.ndarray
    denominator: np.ndarray
    a_max: object
    sub: tuple

    def at(self, k: int) -> Optional[_Quotient]:
        """Family k's quotient, or None when its denominator is zero."""
        if self.denominator[k] <= 0.0:
            return None
        a_max, value, mask = (v[k] if isinstance(v, np.ndarray) else v for v in (self.a_max, *self.sub))
        return _Quotient(
            float(self.quotient[k]),
            float(self.numerator[k]),
            float(self.denominator[k]),
            float(a_max),
            (float(value), int(mask)),
        )


def _quotient_parts(A, X, t: ExponentTriple, a_max=None, sub=None):
    """The quotients of the families A[k], X[k] of a stack.

    A and X are (m, n, d) arrays, or one of them a stack of one shared by
    every family, whose part is then given: ``a_max`` (max_k ||a_k||_p, one
    float) for A, ``sub`` (the (value, mask) of the exact subset max) for X.
    A part not given is computed per family, ``sub`` by
    ``_stack_subset_best``.  Two (n, d) arrays are one family, scored as a
    stack of one: the result is its ``_Quotient``, or None when the
    denominator is zero.  ``unconditionality_quotient``,
    ``main1_bound_check`` and the quotient search evaluate every quotient
    here.
    """
    single = A.ndim == 2
    if single:
        A, X = A[None], X[None]
    n, d = A.shape[1:]
    numerator = _product_norm(A, X, t.r)
    if a_max is None:
        a_max = row_norms(A.reshape(A.shape[0] * n, d), t.p).reshape(A.shape[0], n).max(axis=1, initial=0.0)
    if sub is None:
        sub = _stack_subset_best(X, t.q)
    denominator = a_max * sub[0]
    quotient = np.divide(numerator, denominator, out=np.full(numerator.shape, -np.inf), where=denominator > 0.0)
    res = _Quotients(quotient, numerator, denominator, a_max, sub)
    return res.at(0) if single else res


def _refine_families(A, X, t, best: _Quotient) -> _Quotient:
    """Coordinate ascent on A, then X, by moves of +-scale * max(1, |entry|).

    A and X are moved in place.  Each batch holds one row's moves, entry by
    entry, + before -, and is scored as one stack of moved families: a move
    on A reuses X's subset max, and a move on X reuses max_k ||a_k||_p.  The
    - move after a kept + move keeps the step of the entry before it moved.
    """
    cols = np.repeat(np.arange(A.shape[1]), 2)
    signs = np.tile([1.0, -1.0], A.shape[1])

    def moves():
        for scale in _REFINE_STEPS:
            for M in (A, X):
                for i in range(M.shape[0]):
                    yield M, i, cols, signs * np.repeat(scale * np.maximum(1.0, np.abs(M[i])), 2)

    def evaluate(M, i, cols, deltas, cur: _Quotient):
        moved = np.repeat(M[None], cols.size, axis=0)
        moved[np.arange(cols.size), i, cols] += deltas
        if M is A:
            res = _quotient_parts(moved, X[None], t, sub=cur.sub)
        else:
            res = _quotient_parts(A[None], moved, t, a_max=cur.a_max)
        return res.quotient.tolist(), res.at

    return _coordinate_ascent(best, moves, evaluate, _REFINE_SWEEPS, "refinement")


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
