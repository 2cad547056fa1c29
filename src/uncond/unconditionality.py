"""Subset-maximum norms and unconditionality quotients of finite families.

The central quantity is the quotient

    ||sum_k a_k x_k||_r  /  ( max_k ||a_k||_p * max_{F subset of n} ||sum_{k in F} x_k||_q )

whose supremum over all finite families is the smallest constant making the
action unconditional.  Every quotient computed here is therefore a certified
lower bound for that constant.

An exact maximum takes one of four routes, picked per call from n, d, q and
the number of positions (2^n subsets, or 2^(n-1) sign patterns): tiny
enumerations recompute every position from scratch; narrow ones (n >= 2d,
at least 2^15 positions) run a branch and bound and fall back to the walk
when its frontier outgrows a fixed byte budget; q = 2 with d >= 2n and at
least 2^12 positions walks an n x n Gram factor; everything else walks the
rows.  All four report the same (value, mask), bit for bit: the scratch norm
of the first position in Gray order attaining the largest scratch norm.

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
the last sign +1, since s and -s have the same norm.  For q = 2 a subset
sum's norm depends on the Gram matrix XX^T alone, so when d >= 2n and there
are at least 2^12 positions the walk ranks the n x n triangular factor W of
a QR factorization of X^T instead of the d wide rows: WW^T equals XX^T up
to an a posteriori bound eta, every squared key is within eta of the true
one, and the candidate floor drops by 2 eta.  Candidates are still
recomputed from the rows of X, so results are the same bit for bit.  The
branch and bound fixes one row per level, largest norm first, and prunes a
partial sum when the box holding all its completions provably cannot reach
the incumbent, a zonotope vertex, less a proven rounding margin; the
leaves left are recomputed from scratch in Gray order exactly as the walk's
candidates are.  The enumeration is serial; the ``threads`` argument of
``subset_max_norm`` and ``sign_max_norm`` is accepted and changes nothing.

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
    drift = 2.0 * (2 * n + d + 2) * _EPS * d ** q.reciprocal
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
    never lowers the norm.  Each key is that of a float evaluation of an
    actual subset (or signed) sum, as ``_bnb_candidates`` requires of its
    incumbent.
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


def _bnb_candidates(Xs: np.ndarray, shift: int, q: Exponent, signs: bool, key):
    """Sorted Gray ranks of every position that may attain the scratch maximum, or None; and the frontier peak.

    Xs is X scaled by 2^-shift, and ``key`` is the key of ``_ranking``:
    kappa(v) = ||v||_q^e up to rounding, with e = q for power sums and e = 1
    otherwise.  Rows are branched on in order of decreasing norm, breadth
    first, one level per row; for signs the root holds row n-1 with sign +1,
    as in the walk's half.  A node fixes the rows of the levels so far
    and holds their sum s.  Every completion of it lies coordinatewise in the
    box [s + sum_rest min(x, 0), s + sum_rest max(x, 0)] (for signs,
    s -+ sum_rest |x|), and every lq norm is monotone in the absolute values
    of the coordinates, so ||V||_q bounds the norm of every completion, where
    V = max(|lo|, |hi|) = |s + c| + w with c the box's centre offset and w
    its half-width.  A node is pruned when the key of its computed V is below
    a floor (``floor_of``); the nodes left after the last level are leaves,
    and their masks go back to Gray ranks by the prefix XOR.  None means a
    level would allocate more than _FRONTIER_BYTES, which ties can cause.

    Why the first position in Gray order attaining the scratch maximum, F*,
    is never pruned.  Let A_j = sum_k |x_kj| over the scaled rows, u = eps/2,
    and rho = (d + 8) eps.
    (1) Every float sum of the rows of a subset or sign pattern F, in any
        order (BLAS included), differs from the exact sum S_F by at most
        gamma_{n-1} A_j in coordinate j, gamma_m = m u / (1 - m u).  The
        computed V differs from the exact one by at most gamma_{n+3} A_j:
        the prefix sum and the suffix sums behind c and w each carry
        gamma_{n-1} times their own share of A_j, and the halving is exact
        while the last additions round four more times.  With
        gamma = (n + 4) eps > 2 gamma_{n+3}, let E_j = gamma A_j + t, where
        t = 4 n ulp(0) max(1, 2^-shift) covers gradual underflow in the
        scaled rows, the sums, and the scratch sums of the unscaled rows.
    (2) The scratch norm f(F) that ``_first_best`` ranks is, scaled by
        2^-shift, within a factor 1 +- rho of the lq norm of the scratch sum,
        a float sum as in (1).  A d-term key of a vector v is within a factor
        1 +- rho of ||v||_q^e, give or take d ulp(0) from underflowing powers.
    (3) Let G be the incumbent and g a float sum of its rows whose key is
        kappa_g, and write kappa' = kappa_g - d ulp(0).  Since
        f(F*) >= f(G), (1) and (2) give
        ||S_F*|| >= ||g|| - 2 rho ||g|| - 3 ||E||, and the computed V of an
        ancestor of F* has ||V|| >= ||S_F*|| - ||E||, so
        ||V|| >= kappa'^(1/e) (1 - 4 rho) - 4 ||E||, with
        ||E||_q <= gamma ||A||_q + d t; its key is at least (1 - rho) times
        the e-th power of that, less d ulp(0).
    The floor is that bound, lowered for the rounding of the scalar steps
    that compute it: 2 rho more in the first factor and in the last, and a
    factor 1 + 2 rho on the margin.  The first covers the root's own
    rounding and that of the exponent 1/e, which moves the root by at most
    u |ln ||g|||, under 3 eps, since the seeds give ||g|| >= max_j A_j / 2
    >= 2^-(bit_length(n) + 2).  So every ancestor of F*, and F* itself,
    keeps a key at or above the floor.  The incumbent starts at the best of
    ``_vertex_seeds``, and the last level's best leaf can raise it.  The
    margin is about 8 (n + d) eps ||A||_q, below the walk's slack, since
    ||A||_q is at most 2 d^(1/q) times the largest subset norm (d^(1/q) for
    signs).
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

    rho = (d + 8) * _EPS
    e = q.value if not q.is_infinite and q.value <= _POWER_MAX_Q else 1.0
    tiny = 4 * n * math.ldexp(_TINY, max(0, -shift))
    norm_a = float(row_norms(np.abs(Xs).sum(axis=0)[None], q)[0])
    margin = 4.0 * (1.0 + 2.0 * rho) * ((n + 4) * _EPS * norm_a + d * tiny)

    def floor_of(best_key):
        low = max(best_key - d * _TINY, 0.0) ** (1.0 / e) * (1.0 - 6.0 * rho) - margin
        return max(low, 0.0) ** e * (1.0 - 2.0 * rho) - d * _TINY

    best_key = _vertex_seeds(Xs, q, signs, key)
    floor = floor_of(best_key)
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
            floor = floor_of(best_key)
        keep = keys >= floor
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
    that is bit k-1 of its Gray code).  Blocks are ranked by power sums of an
    exactly scaled copy of X, and every position whose key comes within the
    rounding slack of the best so far is recomputed from scratch.  The value
    is the norm of the returned mask's scratch sum, and the mask is the first
    in Gray order attaining it, as in a from-scratch enumeration.  Sign
    patterns walk only the positions with bit n-1 clear: s and -s have the
    same norm, and the clear one comes first.

    For q = 2 with d >= _GRAM_MIN_RATIO * n and at least _GRAM_MIN_POSITIONS
    positions, the walk ranks an n x n factor W of the Gram matrix instead
    of the d wide rows (``_gram_factor``): every squared key is then within
    eta of the squared norm of the same subset of the scaled rows.  The floor
    drops by 2 eta, which keeps the first position attaining the scratch
    maximum among the candidates: its key is at least f* - eta less the
    walk's relative rounding, while the top key is at most f* + eta plus that
    rounding, for f* the largest squared norm, and the relative slack covers
    the rounding exactly as without W.  The slack is the one for the d wide
    rows, which bounds the rounding of the walk on W as well.

    With n >= _BNB_MIN_RATIO * d and at least _BNB_MIN_POSITIONS positions,
    ``_bnb_candidates`` runs first: its leaves include the first position
    attaining the scratch maximum, so ranking them with ``_first_best`` in
    Gray order gives the walk's (value, mask).  If its frontier outgrows
    _FRONTIER_BYTES, the walk runs instead.  Each call logs its route at
    debug level, with the positions, the frontier peak and the number of
    candidates recomputed.
    """
    n, d = X.shape
    absmax = float(np.abs(X).max()) if X.size else 0.0
    if absmax == 0.0:
        return 0.0, 0
    total = 1 << (n - 1 if signs else n)
    # scratch sums are evaluated in chunks of about _BLOCK_BYTES of terms
    chunk = max(1, _BLOCK_BYTES // (8 * n * d))
    if total * n * d <= _SCRATCH_ALL_TERMS:
        _log_route("scratch", total, 0, total)
        return _first_best(X, q, signs, [np.arange(total)], chunk, (-1.0, 0))
    # every subset sum of the scaled rows stays below 1 in absolute value
    shift = math.frexp(absmax)[1] + n.bit_length()
    Xs = np.ldexp(X, -shift)
    key, slack = _ranking(q, n, d)
    route, peak = "walk", 0
    if _BNB_MIN_RATIO * d <= n <= _BNB_MAX_N and total >= _BNB_MIN_POSITIONS:
        ranks, peak = _bnb_candidates(Xs, shift, q, signs, key)
        if ranks is not None:
            _log_route("branch and bound", total, peak, ranks.size)
            return _first_best(X, q, signs, [ranks], chunk, (-1.0, 0))
        route = "branch-and-bound fallback"
    walked, eta = Xs, 0.0
    if q.value == 2.0 and d >= _GRAM_MIN_RATIO * n and total >= _GRAM_MIN_POSITIONS:
        route = "Gram walk"
        W, eta = _gram_factor(Xs)
        # rescaled like Xs, so every subset sum of the walked rows stays below 1
        shift = math.frexp(float(np.abs(W).max()))[1] + n.bit_length()
        walked, eta = np.ldexp(W, -shift), math.ldexp(eta, -2 * shift)
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
            best_key, floor = top, top * (1.0 - slack) - 2.0 * eta
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
