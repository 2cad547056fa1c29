"""Subset-maximum norms and unconditionality quotients of finite families.

The central quantity is the quotient

    ||sum_k a_k x_k||_r  /  ( max_k ||a_k||_p * max_{F subset of n} ||sum_{k in F} x_k||_q )

whose supremum over all finite families is the smallest constant making the
action unconditional.  Every quotient computed here is therefore a certified
lower bound for that constant.

Every exact maximum, of one family or of a stack, comes from one
dispatcher (``_exhaustive_best``), which enumerates subsets only: with
s_{n-1} = +1 and bit k meaning s_k = -1, a signed sum is T + sum_{k in F}
(-2 x_k) for the all-plus sum T, a subset sum of the rows -2 x_k with T
always on.  It takes one of four routes, picked per call from n, d, q and
the number of positions (2^n subsets, or 2^(n-1) sign patterns): every
position from scratch (one pass for a whole stack of tiny families), a
branch and bound, a walk of an n x n Gram factor at q = 2, or a walk of
the rows in reflected-Gray-code order.  The last three rank positions by
keys and recompute from scratch, in binary64, every position whose key may
be the largest, with one relative rounding slack (``_slack``).  All four
report the same (value, mask), bit for bit: the norm of the first position
in Gray order attaining the largest scratch norm, its sum added in index
order.  Every scratch norm, on every route, comes from one evaluator
(``_scratch_norms``: the rows times an (n, P) coefficient table, added in
index order), and every coefficient table from one builder
(``_mask_coefs``), whose table of all Gray positions is cached per (n,
signs, dtype) for the scratch route, the walks' low sums and
``lemma_lab``'s flip screen (``_gray_coefs``).  The kernel alone bounds
what an exact maximum may cost: a maximum that the branch and bound cannot
settle and that needs a walk of more than
2^WALK_MAX_LOG positions, or of more than 2^35 positions times walked
columns, raises ReachError, a ValueError, before the walk starts.  Callers
that fall back on a refusal ask the kernel and catch that error; none of
them reads the reach.  The seeded searches, which run thousands of maxima
per call, draw families of at most SEARCH_MAX_N vectors.  The enumeration is serial, so the ``threads``
argument of ``subset_max_norm`` and ``sign_max_norm`` changes nothing.

Every quotient, public or inside a search, is evaluated by one routine
(``_quotient_parts``), which scores a stack of families at once; the public
functions pass a stack of one, so a search compares the very float
``unconditionality_quotient`` returns for the same entries.  The 2K
inequality behind the Preserves clause p <= 2, q <= r needs no routine of
its own: it is ``unconditionality_quotient`` at (2, q, q) <= 2 K_G, with
K_G below ``lemma_lab.KG_UPPER``.  The seeded
searches for large quotients here and for large sign-pattern ratios in
``lemma_lab`` share one restart loop (``_seeded_restarts``: argument checks,
seeded draws in blocks, skipped degenerate draws, strict improvement; the
quotient search scores each block of draws in one stacked pass before it
gates and climbs them in trial order) and one coordinate ascent on
matrix entries (``_coordinate_ascent``, which scores each batch of moves
once and keeps its best move if that improves); each supplies only its
draw and its climb.  The ascent works on the drawn float
arrays and recomputes only what a move changes: a move on the a-family
reuses the x-family's subset max, a move on the x-family reuses
max_k ||a_k||_p, and the x-family maxima of a whole stack of moved families
come from one ``_exhaustive_best`` call.  A result object is built for the winner alone.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Optional

import numpy as np

from .seqspace import (
    Exponent,
    ExponentLike,
    ExponentTriple,
    _TINY,
    _column_norms,
    _finite_array,
    _require_int,
    row_norms,
)

logger = logging.getLogger(__name__)

#: Cap on n * dim for the families a seeded search draws (8 MB per float64 array).
DRAW_MAX_ENTRIES = 1 << 20
#: Largest family a seeded search draws: it runs thousands of exact maxima per call.
SEARCH_MAX_N = 24

# Enumeration blocks hold the positions of about _BLOCK_BYTES of binary64 sums
# (at least one position, at most 2^_BLOCK_MAX_LOG), so their size depends on
# the ambient length alone and memory stays bounded for every n.
_BLOCK_BYTES = 1 << 20
_BLOCK_MAX_LOG = 15
#: Most restart trials drawn and scored as one block: at 64 families of
#: n = d = 4 a stacked score costs about 2 us per family, a tenth of a draw,
#: and a longer block would only draw further ahead of its climbs.
_RESTART_BLOCK = 64
#: numpy runs a broadcast add whose rows are shorter than its ufunc buffer
#: through the buffer, at about three times the cost, so a walk of several
#: blocks of fewer positions than ``np.getbufsize()`` sets the buffer to one
#: block row.  numpy takes only multiples of _MIN_BUFSIZE.
_MIN_BUFSIZE = 16
#: Enumerations with at most this many terms (positions * n * d) recompute
#: every position from scratch, which costs less than setting up a walk.
_SCRATCH_ALL_TERMS = 2048
#: Largest q whose power sums rank rows; above it rows rank by norm.
_POWER_MAX_Q = 64.0
#: Largest q whose walk ranks in binary32 (``_slack`` derives the cutoff from
#: underflow); above it the walk ranks in binary64.
_BINARY32_MAX_Q = 16.0
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
#: The walk's reach, as log2 of its positions: a walk of 2^30 took 14 s
#: (n = 30, d = 20, q = 1, one Xeon core, numpy 2.4), so ``_exhaustive_best``
#: refuses a longer one, and one of more than 2^35 positions times columns
#: (2^30 positions of 32 columns).
WALK_MAX_LOG = 30
#: Ascent steps from each zonotope-vertex seed of the branch-and-bound incumbent.
_SEED_STEPS = 3
#: Sweep cap of the quotient refinement, and its step scales.  Three is the
#: fewest sweeps whose benchmark quotients were no lower than those of two
#: sweeps of the earlier first-improvement rule, at 59% of its batches.
_REFINE_SWEEPS = 3
_REFINE_STEPS = (0.5, 0.1)
_EPS = float(np.finfo(np.float64).eps)
#: Half the largest binary64 value: column absolute sums up to it keep every subset sum finite.
_SUM_MAX = float(np.finfo(np.float64).max) / 2.0
#: The unit roundoff of binary32, the precision of the walk's power-sum keys.
_U32 = float(np.finfo(np.float32).eps) / 2.0


class ReachError(ValueError):
    """An exact maximum that the branch and bound cannot settle needs a walk past the kernel's reach."""


def _require_summable(M: np.ndarray) -> np.ndarray:
    """The absolute sums of the columns of M (of a 1-d M, its sum); ValueError if one exceeds _SUM_MAX."""
    with np.errstate(over="ignore"):
        sums = np.add.reduce(np.abs(M), axis=0)
    if np.count_nonzero(sums > _SUM_MAX):
        raise ValueError(
            "family entries too large: a column's absolute sum exceeds half the "
            "largest binary64 value, so subset sums could overflow"
        )
    return sums


@dataclass(frozen=True, eq=False)
class Family:
    """An ordered family of n vectors sharing one ambient length (rows of ``matrix``).

    Checked once, when made: ``matrix`` is read-only 2-d float64 ((0, 0) for an empty sequence)
    of finite reals, each column's absolute sum at most _SUM_MAX, so every subset and signed sum is finite.
    """

    matrix: np.ndarray

    def __post_init__(self):
        arr = _finite_array(self.matrix)
        if arr.shape == (0,):
            arr = arr.reshape(0, 0)
        if arr.ndim != 2:
            raise ValueError("family matrix must be 2-d (one row per vector)")
        _require_summable(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @staticmethod
    def of(vectors) -> "Family":
        """``vectors`` itself if it is a Family, else ``Family(vectors)``."""
        return vectors if isinstance(vectors, Family) else Family(vectors)

    @property
    def size(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def ambient_len(self) -> int:
        return int(self.matrix.shape[1])

    def __len__(self):
        return self.size

    def __getitem__(self, k: int) -> np.ndarray:
        """Row k as a read-only float64 view."""
        return self.matrix[k]

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
    """Outcome of an exact subset (or sign-pattern) maximization.

    ``argmax_subset`` is a bitmask over the family index; for sign patterns,
    bit = 1 means sign -1.  Every maximum is exhaustive, so ``certified``
    and ``mode`` are constants, kept for the JSON and its readers.
    """

    value: float
    argmax_subset: int
    certified: ClassVar[bool] = True
    mode: ClassVar[str] = "exhaustive"

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "subset_bitmask": f"{self.argmax_subset:#x}",
            "certified": self.certified,
            "mode": self.mode,
        }


@dataclass(frozen=True)
class QuotientResult:
    """An unconditionality quotient with its two ingredients."""

    numerator: float
    denominator: float
    quotient: float
    subset: SubsetMaxResult
    certified: ClassVar[bool] = True

    def to_json(self) -> dict:
        """The subset's JSON with its ``value`` replaced by the quotient, which comes first."""
        out = self.subset.to_json()
        del out["value"]
        return {"quotient": self.quotient, **out}


def _scratch_norms(X: np.ndarray, coef: np.ndarray, q: Exponent) -> np.ndarray:
    """The lq norm of each family's sum at each column of ``coef``: (m, P) for an (m, n, d) stack and an (n, P) table.

    The one scratch evaluator, under the scratch route and ``_first_best``:
    the rows times their coefficients are added over the rows in index
    order, into sums laid out (family, coordinate, position), and
    ``_column_norms`` takes their norms along the coordinates.  A lone sum
    of length 1 is evaluated as two, since numpy would add its n terms as
    one contiguous run, pairwise from 8 on.  A stack whose terms (n * d * P
    per family) exceed _BLOCK_BYTES is evaluated in chunks of families that
    fit.
    """
    m, n, d = X.shape
    if d * coef.shape[1] == 1:
        return _scratch_norms(X, coef.repeat(2, axis=1), q)[:, :1]
    per = max(1, _BLOCK_BYTES // (8 * max(1, coef.size * d)))
    if m > per:
        return np.concatenate([_scratch_norms(X[lo : lo + per], coef, q) for lo in range(0, m, per)])
    return _column_norms(np.add.reduce(X[:, :, :, None] * coef[:, None, :], axis=1), q)


def _first_best(X, q, signs, positions, chunk, best):
    """Merge Gray positions, in Gray order, into ``best`` = (value, mask) by scratch norm.

    Each chunk of positions is one ``_scratch_norms`` call on its masks'
    coefficients.  Only a strictly larger value replaces ``best``, so ties
    keep the first.
    """
    masks = np.concatenate(positions)
    masks ^= masks >> 1
    for at in range(0, masks.size, chunk):
        part = masks[at : at + chunk]
        vals = _scratch_norms(X[None], _mask_coefs(part, X.shape[0], signs, np.float64), q)[0]
        k = int(np.argmax(vals))
        if vals[k] > best[0]:
            best = (float(vals[k]), int(part[k]))
    return best


def _block_rows(d: int, total: int) -> int:
    """Positions per block: the largest power of two whose binary64 sums fit _BLOCK_BYTES, at least 1.

    A binary32 walk keeps these positions in half the bytes, so its add and
    key passes stay in cache: on n = 16 Gram walks this ran about 1.3 times
    as fast as blocks of twice the positions (1.2 against 1.6 ms, median,
    2-core Xeon, one BLAS thread).
    """
    log = (_BLOCK_BYTES // (8 * d)).bit_length() - 1
    return min(total, 1 << min(max(log, 0), _BLOCK_MAX_LOG))


def _mask_coefs(masks: np.ndarray, n: int, signs: bool, dtype) -> np.ndarray:
    """Row k's coefficient in the sum of each int64 mask, one column per mask: an (n, masks) array of ``dtype``.

    The one builder of coefficient tables.  Subsets take bit k of the mask;
    sign patterns take -1 where it is set and +1 elsewhere.  Every
    coefficient is exact in binary32.
    """
    bits = masks >> np.arange(n)[:, None] & 1
    return (1 - 2 * bits if signs else bits).astype(dtype)


@functools.lru_cache(maxsize=None)
def _gray_coefs(n: int, signs: bool, dtype) -> np.ndarray:
    """``_mask_coefs`` of every Gray position in Gray order (read-only), cached per (n, signs, dtype).

    Subsets have 2^n positions; sign patterns have 2^(n-1), so row n-1 is +1
    throughout.  The scratch route asks for binary64 tables of n <= 12 rows,
    the flip screen for binary64 sign tables of d <= 10, and each walk for
    the subset table of its low rows (k <= _BLOCK_MAX_LOG) in the dtype of
    its keys: at most 16 tables per dtype, about 4 MB in binary32.
    """
    j = np.arange(1 << (n - 1 if signs and n else n))
    coef = _mask_coefs(j ^ j >> 1, n, signs, dtype)
    coef.setflags(write=False)
    return coef


def _low_walk(Xs: np.ndarray, k: int) -> np.ndarray:
    """Subset sums of rows 0..k-1 of Xs at Gray positions 0..2^k-1, one column per position, in the dtype of Xs.

    Every later row, the always-on row of a sign walk among them, enters
    through each block's high-row sum.
    """
    return Xs[:k].T @ _gray_coefs(k, False, Xs.dtype.type)


def _slack(q: Exponent, n: int, d: int, u: float = _EPS / 2.0) -> float:
    """The relative rounding slack of every candidate floor, for n rows of length d and keys of roundoff u.

    The walk, the Gram walk and the branch and bound keep every position (or
    partial sum) whose key is at least ``top * (1 - slack)``, for ``top`` the
    largest key computed so far; ``lemma_lab``'s flip screen lowers its q = 1
    dual-table bounds by the same factor, except on an exact table (integer
    entries, sum |x_kj| <= 2^51), where no step rounds.  Keys (``_ranking``) are
    ||v||_q^e up to rounding, e = q for power sums and 1 otherwise.  The walk
    computes its keys in binary32 (u = 2^-24) up to q = _BINARY32_MAX_Q and
    at q = inf, and in binary64 (u = 2^-53, the default) above; the branch and
    bound, the screen and every scratch norm are binary64, whose rounding
    either u bounds.  With A_j = sum_k |x_kj| and gamma_m = m u / (1 - m u):

    * Sum error.  Every float sum behind a key adds rows times +-1 or +-2:
      a walk sum, a box bound |s + c| + w with its prefix and suffix sums, a
      seed or leaf sum, a dual-table bound, and the scratch sum
      ``_scratch_norms`` forms, which ``_first_best`` ranks.  A subset sum
      has at most m = n + 4 terms, so in any order it is within gamma_m A_j
      of its exact value in coordinate j.  A sign sum, and its box, adds rows -2 x_k to the all-plus sum T,
      itself a float sum of the n rows: counting T's rounding, m = 4n + 8.
      A binary32 walk first rounds each walked row to binary32, moving
      coordinate j of every sum by at most 3 u A_j more, inside either count.
    * Key error.  Each norm or key adds the rounding of its own d-term sum.
      A binary32 power key adds that of ``np.power``, a few ulps per term;
      the margin below covers 16.  ``np.power`` also rounds the exponent, a
      Python float, to q' = fl(q) with |q' - q| <= u q, so the key is an lq'
      power sum; ||v||_q' / ||v||_q lies within d^(+-|1/q - 1/q'|), so the
      key is ||v||_q^q' within a factor d^(+-u), and two keys compare within
      d^(2u) <= 1 + 2 u d of their lq norms.
    * Relative form.  Each A_j is at most twice the largest |coordinate j|
      of a subset sum (once for signs), so ||A||_q <= 2 d^(1/q) M for M the
      largest subset (or sign) norm; the screen uses ||A||_1 <= d M.  Chain
      the computed top key, the scratch norms of its position and of the
      first position F attaining the scratch maximum, and the computed key of
      F (or of the box of an ancestor of F, which the exact box bounds from
      above): sums and key sums move keys by a factor of at most about
      1 + 2e (4n + 4d + 28) u d^(1/q) for subsets, and, with A half as large
      against M but two key sums of 4n + 8 terms, 1 + 2e (5n + 4d + 24) u
      d^(1/q) for signs.  (On the Gram walk the sums are of the rows of W,
      n <= d/2 of them: each A_j of W is at most three times the largest
      |coordinate j| of a position, which the subset count covers.)  The
      slack, 16 e (2n + d + 2) u d^(1/q), exceeds both by at least
      2e (11n + 4d - 12) u d^(1/q), which is more than (64 + 3d) u wherever a
      binary32 key is computed (positions * n * d > _SCRATCH_ALL_TERMS):
      room for 16-ulp powers (64 u on two keys), the rounded exponent
      (2 u d) and underflow (below).  So F and each of its branch-and-bound
      ancestors keeps a key at or above the floor.
    * Underflow.  The walked family is scaled (``_below_one``) so that its
      largest entry, and so M (a one-row subset reaches it), is at least
      2^-(bit_length(n) + 1).  Binary64 keys near the top are then above
      2^-600, and the few ulps of 0 lost in the subnormal range are far
      below the slack.  Below 2^-126, binary32 rounds absolutely: the cast
      loses at most 2^-150 per entry (a sum of subnormals is exact), which
      is below d 2^-139 relative to M, and a key term may be off by up to
      2^-126 whatever its operation, so a key by d 2^-126.  A walk has
      n <= 31, so M >= 2^-6, and at q <= _BINARY32_MAX_Q = 16 the keys near
      the top are above 2^-97: a key loses at most d 2^-29 = d u / 32 of
      its value, inside the room above.  At q = 17 it could lose 2 d u,
      which the room no longer covers; hence the cutoff.  Max keys (q = inf)
      only take absolute values.  The screen works on the unscaled family at
      q = 1, where every operation is an addition, an absolute value or a
      product by +-1 or 2, none of which rounds in the subnormal range.
    * Floor.  ``top * (1 - slack)`` is formed in binary64 and rounded down to
      the keys' format before any key is compared with it (``_round_down``):
      numpy casts a Python float to the nearest binary32 value, which can
      raise the floor by half an ulp.
    """
    e = 1.0 if q.is_infinite or q.value > _POWER_MAX_Q else q.value
    return 4.0 * e * (4.0 * (2 * n + d + 2) * u * d ** q.reciprocal)


def _round_down(x: float, dtype) -> float:
    """The largest value of ``dtype`` at most x, as a Python float (x itself for binary64)."""
    y = dtype(x)
    if float(y) > x:
        y = np.nextafter(y, -np.inf)
    return float(y)


def _ranking(q: Exponent, d: int, dtype=np.float64):
    """A key monotone in the lq norm of each position (column) of a block of d rows of ``dtype``.

    Keys are power sums sum |s|^q (the max |s| for q = inf) of a family
    scaled by ``_below_one``, so no root is taken and nothing overflows; they
    are computed in the block's dtype, binary32 only up to _BINARY32_MAX_Q
    (``_slack``).  Above _POWER_MAX_Q binary64 power sums could underflow,
    and norms are the keys.
    """
    if q.is_infinite:

        def key(buf, out):
            np.abs(buf, out=buf)
            return buf.max(axis=0, out=out)

        return key
    p = q.value
    if p > _POWER_MAX_Q:
        return lambda buf, out: row_norms(buf.T, q)
    ones = np.ones(d, dtype)
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
    ||1_F^T Xs||^2 = 1_F^T (Xs Xs^T) 1_F, depends on the Gram matrix alone
    (so does a sign walk's, whose indicator also holds the always-on row), so

        | ||1_F^T W||^2 - ||1_F^T Xs||^2 |  =  |1_F^T E 1_F|  <=  sum_ij |E_ij|

    with E = WW^T - XsXs^T exactly, since every entry of 1_F has absolute
    value at most 1.  The bound is a posteriori: the factorization
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


def _vertex_seeds(Xs: np.ndarray, on: np.ndarray, q: Exponent, key) -> float:
    """The largest key over a few zonotope vertices of the subset sums of the rows of Xs, each plus ``on``.

    The vertex for a direction h is the subset {k : <h, x_k> >= 0}: its sum
    plus ``on`` maximizes <h, s> over every position's sum s.  From each of
    h = +-e_j, every step moves h to a subgradient of the lq norm at the sum
    just found, which by convexity never lowers the norm.  Each key is that
    of a float sum of an actual position, as ``_slack`` requires of the
    incumbent it prunes against.
    """
    d = Xs.shape[1]
    H = np.concatenate([np.eye(d), -np.eye(d)])
    best = 0.0
    for _ in range(_SEED_STEPS):
        S = (H @ Xs.T >= 0.0).astype(np.float64) @ Xs
        S += on
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


def _bnb_candidates(Xs: np.ndarray, on: np.ndarray, q: Exponent, shrink: float):
    """Sorted Gray ranks of every subset of the rows of Xs whose sum plus ``on`` may attain the scratch maximum, or None; and the frontier peak.

    Xs and ``on`` (the always-on row of a sign maximum, zero for subsets)
    are scaled by ``_below_one``, keys are those of ``_ranking`` and
    ``shrink`` is 1 - ``_slack`` for the whole family in binary64.  Rows
    are branched on in order of decreasing norm, breadth first, one level
    per row, from a root holding ``on``.  A node holds the sum s of ``on``
    and the rows taken so far.  Every completion lies coordinatewise in the
    box [s + sum_rest min(x, 0), s + sum_rest max(x, 0)], and lq norms are
    monotone in the absolute values of the coordinates, so ||V||_q bounds
    every completion's norm, where V = |s + c| + w with c the box's centre
    offset and w its half-width.  A node is pruned when the key of its
    computed V is below the incumbent's key times ``shrink``, which
    keeps every ancestor of the first position in Gray order attaining the
    scratch maximum.  The incumbent is the best of ``_vertex_seeds``, raised
    by the last level's best leaf, whose box is its own sum.  The leaves'
    masks go back to Gray ranks by the prefix XOR.  None means a level would
    allocate more than _FRONTIER_BYTES, which ties can cause.
    """
    n, d = Xs.shape
    order = np.argsort(-row_norms(Xs, q), kind="stable")
    R = Xs[order]
    # the box of the rows after level t is row t of (centre, half); the last is empty
    hi = np.cumsum(np.maximum(R[::-1], 0.0), axis=0)[::-1]
    lo = np.cumsum(np.minimum(R[::-1], 0.0), axis=0)[::-1]
    rest = np.zeros((2, n + 1, d))
    rest[0, :n], rest[1, :n] = (hi + lo) * 0.5, (hi - lo) * 0.5
    centre, half = rest[0, 1:, :, None], rest[1, 1:, :, None]

    key = _ranking(q, d)
    best_key = _vertex_seeds(Xs, on, q, key)
    sums = on[:, None].copy()
    masks = np.zeros(1, dtype=np.int64)
    peak = 1
    for t in range(n):
        m = masks.size
        if 16 * m * (2 * d + 2) > _FRONTIER_BYTES:
            return None, peak
        kids = np.empty((d, 2 * m))
        kids[:, :m] = sums
        np.add(sums, R[t][:, None], out=kids[:, m:])
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

    X is one (n, d) family, or an (m, n, d) stack, whose (values, masks)
    arrays hold each family's (value, mask).  Sign patterns keep bit n-1
    clear: s and -s have the same norm, and the clear one comes first.  At
    most _SCRATCH_ALL_TERMS terms per family (positions times n d), the
    family or the whole stack is one ``_scratch_norms`` call on the cached
    table of every Gray position (``_gray_coefs``), its first largest norm
    per family taken, and one route line, which counts every family's
    positions; a larger stack enumerates each family alone.  Otherwise X is
    scaled by ``_below_one`` and, for signs, its first n-1 rows become
    -2 x_k (exactly) and row n-1 the all-plus sum, on at every position;
    every route then enumerates subsets of the free rows, and only
    ``_first_best`` recomputes signed sums, of X itself, through the same
    evaluator on its candidates' coefficients.

    The walk goes through the positions in reflected-Gray-code order, in
    blocks of ``_block_rows`` positions.  Each block is the high-row sum of
    its first position (the always-on row included: its bit is set at every
    position) plus the low table (``_low_walk``).  When bit k of the block
    start is set (bit k-1 of its Gray code) the block runs through the table
    backwards: it is ranked on the table as stored, and its hits are
    reversed into Gray order.  A walk of several blocks of fewer positions
    than ``np.getbufsize()`` (and at least _MIN_BUFSIZE) sets numpy's ufunc
    buffer to one block row once, inside ``np.errstate``, which restores the
    caller's on exit; so each block's broadcast add runs unbuffered.
    Blocks are ranked by keys: in binary32 up to q = _BINARY32_MAX_Q and at
    q = inf, where the walked rows are rounded to binary32 once and the low
    table, the high-row sums, the blocks and the keys are all binary32, and
    in binary64 above.  The walk holds one floor, the running maximum over
    blocks of their largest key times 1 - ``_slack`` at the keys' unit
    roundoff, rounded down to the keys' format (``_round_down``).  A block's
    positions whose keys reach the floor wait for a recompute from scratch,
    in binary64, from X; each recompute first drops the waiting positions a
    later block raised the floor above.  The value is the norm of the
    returned mask's scratch sum, and the mask is the first in Gray order
    attaining it, as in a from-scratch enumeration.

    For q = 2 with d >= _GRAM_MIN_RATIO * n and at least _GRAM_MIN_POSITIONS
    positions, the walk ranks an n x n factor W of the Gram matrix of the n
    scaled rows instead of the d wide rows (``_gram_factor``), rescaled by
    ``_below_one``: each squared key is within eta of that of the same
    position of the scaled rows, so the floor drops by 2 eta as well.  Eta
    covers the factorization; the slack, the one for the d wide rows,
    covers the rounding of the walk on W.

    With n >= _BNB_MIN_RATIO * d and at least _BNB_MIN_POSITIONS positions,
    ``_bnb_candidates`` runs first, in binary64 and pruning at the binary64
    slack: its leaves include the first position attaining the scratch
    maximum, so ranking them with ``_first_best`` in Gray order gives the
    walk's (value, mask).  If its frontier outgrows _FRONTIER_BYTES, the walk
    runs instead.  Each call logs its route at debug level, with the key
    precision of a walk, the positions, the frontier peak and the number of
    candidates recomputed.  A walk of more than 2^WALK_MAX_LOG positions,
    or of more than 2^35 positions times walked columns (n on the Gram walk,
    d otherwise), raises ReachError, a ValueError, before it starts, and
    before X is scaled where the branch and bound cannot run; callers that
    fall back to another method or report no exact maximum catch that alone.
    """
    n, d = X.shape[-2:]
    if X.ndim == 2 and not X.any():
        return 0.0, 0
    free = n - 1 if signs and n else n
    total = 1 << free
    # a stack of vectors of length 0 goes family by family, each (0.0, 0), not through a table of 2^n positions
    if total * n * max(d, 1) <= _SCRATCH_ALL_TERMS:
        stack = X if X.ndim == 3 else X[None]
        _log_route("scratch", len(stack) * total, 0, len(stack) * total)
        vals = _scratch_norms(stack, _gray_coefs(n, signs, np.float64), q)
        k = vals.argmax(axis=1)
        values, masks = np.maximum.reduce(vals, axis=1), k ^ (k >> 1)
        return (values, masks) if X.ndim == 3 else (float(values[0]), int(masks[0]))
    if X.ndim == 3:
        values, masks = np.zeros(len(X)), np.zeros(len(X), dtype=np.int64)
        for i, x in enumerate(X):
            values[i], masks[i] = _exhaustive_best(x, q, signs)
        return values, masks
    gram = q.value == 2.0 and d >= _GRAM_MIN_RATIO * n and total >= _GRAM_MIN_POSITIONS
    width = n if gram else d
    # positions as a power of two: a decimal 2^n for n past ~14300 exceeds Python's int-to-str limit
    needs = f"an exact maximum over 2^{free} positions needs a walk"
    past = None
    if total > 1 << WALK_MAX_LOG:
        past = f"{needs} past the reach of 2^{WALK_MAX_LOG} positions"
    elif total * width > 1 << 35:
        past = f"{needs} of {width} columns, past the reach of 2^35 positions times columns"
    bnb = _BNB_MIN_RATIO * d <= n <= _BNB_MAX_N and total >= _BNB_MIN_POSITIONS
    if past and not bnb:
        # nothing can settle it, so it is refused before the family is scaled
        raise ReachError(f"{past} (branch-and-bound frontier peak 0)")
    # scratch sums are evaluated in chunks of about _BLOCK_BYTES of terms
    chunk = max(1, _BLOCK_BYTES // (8 * n * d))
    Xs = _below_one(X)[0]
    if signs:
        Xs[-1] = Xs.sum(axis=0)
        Xs[:-1] *= -2.0
    route, peak = "walk", 0
    if bnb:
        ranks, peak = _bnb_candidates(Xs[:free], Xs[free:].sum(axis=0), q, 1.0 - _slack(q, n, d))
        if ranks is not None:
            _log_route("branch and bound", total, peak, ranks.size)
            return _first_best(X, q, signs, [ranks], chunk, (-1.0, 0))
        route = "branch-and-bound fallback"
        if past:
            raise ReachError(f"{past} (branch-and-bound frontier peak {peak})")
    walked, eta = Xs, 0.0
    if gram:
        route = "Gram walk"
        W, eta = _gram_factor(Xs)
        walked, shift = _below_one(W)
        eta = math.ldexp(eta, -2 * shift)
    # the one choice of key precision: binary32 wherever _slack's underflow bound holds
    if q.is_infinite or q.value <= _BINARY32_MAX_Q:
        dtype, u, route = np.float32, _U32, route + " (binary32 keys)"
    else:
        dtype, u, route = np.float64, _EPS / 2.0, route + " (binary64 keys)"
    walked = walked.astype(dtype, copy=False)
    key, shrink = _ranking(q, width, dtype), 1.0 - _slack(q, n, d, u)
    rows = _block_rows(width, total)
    k = rows.bit_length() - 1
    high_rows, high_bits = walked[k:], np.arange(k, n)
    # the bits of the always-on rows, set at every position, and each high row's coefficient by its bit
    always = (1 << n) - total
    coef = np.array([0.0, 1.0], dtype)
    base = np.empty(width, dtype)
    buf = np.empty((width, rows), dtype)
    keys = np.empty(rows, dtype)

    floor = -math.inf
    best = (-1.0, 0)
    # per block with candidates since the last recompute: their Gray ranks and their keys
    pending: list[tuple[np.ndarray, np.ndarray]] = []
    pending_rows = recomputed = 0
    # errstate restores the caller's buffer size on exit; a one-block walk does not pay for the scope
    row_buffer = total > rows and _MIN_BUFSIZE <= rows < np.getbufsize()
    with np.errstate() if row_buffer else contextlib.nullcontext():
        if row_buffer:
            np.setbufsize(rows)
        low = _low_walk(walked, k)
        for lo in range(0, total, rows):
            on = (lo ^ (lo >> 1) | always) >> high_bits & 1
            np.dot(coef[on], high_rows, out=base)
            np.add(low, base[:, None], out=buf)
            ranked = key(buf, keys)
            top = float(ranked.max())
            if top >= floor:
                # a top whose unrounded floor is at most the held one cannot raise it
                raised = top * shrink - 2.0 * eta
                if raised > floor:
                    floor = _round_down(raised, dtype)
                hits = np.flatnonzero(ranked >= floor)
                if (lo >> k) & 1:
                    # column c of an odd block is Gray rank lo + rows - 1 - c: keep ranks ascending
                    hits = hits[::-1]
                    pending.append((lo + rows - 1 - hits, ranked[hits]))
                else:
                    pending.append((hits + lo, ranked[hits]))
                pending_rows += hits.size
            if pending and (pending_rows >= chunk or lo + rows == total):
                # candidates whose keys a floor raised after their block now excludes are dropped
                ranks = [hits[vals >= floor] for hits, vals in pending]
                recomputed += sum(map(len, ranks))
                best = _first_best(X, q, signs, ranks, chunk, best)
                pending, pending_rows = [], 0
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


def _exact_max(fam, q: ExponentLike, signs: bool, threads: int) -> SubsetMaxResult:
    """The public exact subset (or sign) maximum: checked inputs, then ``_exhaustive_best`` with overflow warnings off."""
    _require_int("threads", threads, 1)
    with np.errstate(over="ignore"):
        val, mask = _exhaustive_best(Family.of(fam).matrix, Exponent.of(q), signs)
    if not math.isfinite(val):
        raise ValueError(f"the maximum norm overflows binary64: {val!r}")
    return SubsetMaxResult(val, mask)


def subset_max_norm(fam, q: ExponentLike, *, threads: int = 1) -> SubsetMaxResult:
    """max over subsets F of ||sum_{k in F} x_k||_q, exact and certified.

    The value is the norm of the reported subset's sum recomputed from
    scratch, and the subset is the first attaining it in Gray-code order.
    The route is picked from n, d, q and the 2^n positions (see the module
    docstring), and every route gives the same result.  A maximum that only
    a walk past the kernel's reach would settle raises ValueError at once,
    and so does a maximum norm that overflows.
    """
    return _exact_max(fam, q, False, threads)


def sign_max_norm(fam, q: ExponentLike, *, threads: int = 1) -> SubsetMaxResult:
    """max over sign patterns s in {-1,1}^n of ||sum_k s_k x_k||_q.

    Exact over the 2^(n-1) patterns with s_{n-1} = +1, since s and -s have
    the same norm; the argmax bitmask has bit = 1 where the sign is -1, so
    its bit n-1 is always clear.  Routes and overflow are as in
    ``subset_max_norm``, with 2^(n-1) positions.
    """
    return _exact_max(fam, q, True, threads)


def unconditionality_quotient(avec, xvec, t: ExponentTriple) -> QuotientResult:
    """The quotient ||sum a_k x_k||_r / (max_k ||a_k||_p * subset_max(x, q)).

    Any constant C making the action unconditional satisfies C >= quotient,
    and the subset max is exact, so every quotient is a certified lower
    bound.  All-zero a- or x-families make the denominator vanish and are
    rejected as degenerate; overflowing numerators and denominators are
    rejected too, an overflowing subset max among them, and so is an
    x-family past the exact kernel's reach.
    """
    avec, xvec = Family.of(avec), Family.of(xvec)
    if avec.size != xvec.size:
        raise ValueError("a-family and x-family must have the same size")
    if avec.size and avec.ambient_len != xvec.ambient_len:
        raise ValueError("a-family and x-family must share the ambient length")
    t.require_holder_valid()
    parts = _finite_parts(avec.matrix, xvec.matrix, t)
    if parts is None:
        raise ValueError("degenerate family: denominator is zero")
    return parts.result()


def _finite_parts(A, X, t: ExponentTriple, sub=None) -> Optional[_Quotient]:
    """``_quotient_parts`` of one family, or ValueError if its numerator or denominator is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        parts = _quotient_parts(A, X, t, sub=sub)
    if parts is not None and not (math.isfinite(parts.numerator) and math.isfinite(parts.denominator)):
        raise ValueError(f"quotient overflows binary64: numerator {parts.numerator!r}, denominator {parts.denominator!r}")
    return parts


def _coordinate_ascent(best, moves, evaluate, sweeps: int, name: str):
    """Best-of-batch coordinate ascent on the entries of float matrices.

    ``best`` describes the current entries: a tuple whose first field is the
    score, carrying whatever ``evaluate`` may reuse.  A sweep runs through
    ``moves()``, which yields batches ``(M, i, cols, deltas)``: the moves
    ``M[i, cols[k]] += deltas[k]`` on row i of M, with ``cols`` and
    ``deltas`` two sequences (arrays or tuples) of one length.
    ``evaluate(M, i, cols, deltas, best)`` scores every move of the batch
    from the current entries, recomputing only what depends on M, and
    returns ``(scores, pick)``: a list or tuple of one score per move (-inf
    for a degenerate family) and ``pick(k)``, the tuple describing the
    entries after move k.  Each batch is scored once: its best move, the
    first of equal best scores, is kept if it scores strictly higher than
    ``best``, and ``pick`` runs for it after it is applied to M (a client's
    only notice of a keep).  The climb stops after a sweep that keeps no
    move, or after ``sweeps`` sweeps, and the matrices then hold the
    entries the returned tuple describes.

    One debug line per climb, headed ``name``, gives the sweeps, the batches
    scored, the moves scored in them and the moves kept.
    """
    sweep = batches = scored = kept = 0
    for sweep in range(1, sweeps + 1):
        kept_before = kept
        for M, i, cols, deltas in moves():
            scores, pick = evaluate(M, i, cols, deltas, best)
            batches += 1
            scored += len(scores)
            top = max(scores)
            if top > best[0]:
                k = scores.index(top)
                M[i, cols[k]] += deltas[k]
                best = pick(k)
                kept += 1
        if kept == kept_before:
            break
    logger.debug("%s: %d sweeps, %d batches, %d moves scored, %d kept", name, sweep, batches, scored, kept)
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

    def result(self) -> QuotientResult:
        """The public result, its subset maximization built from ``sub``."""
        return QuotientResult(self.numerator, self.denominator, self.quotient, SubsetMaxResult(*self.sub))


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
        a_max, (value, mask) = self.a_max, self.sub
        if isinstance(a_max, np.ndarray):
            a_max = a_max[k]
        if isinstance(value, np.ndarray):
            value, mask = value[k], mask[k]
        return _Quotient(
            self.quotient.item(k),
            self.numerator.item(k),
            self.denominator.item(k),
            float(a_max),
            (float(value), int(mask)),
        )


def _quotient_parts(A, X, t: ExponentTriple, a_max=None, sub=None):
    """The quotients of the families A[k], X[k] of a stack.

    A and X are (m, n, d) arrays, or one of them a stack of one shared by
    every family, whose part is then given: ``a_max`` (max_k ||a_k||_p, one
    float) for A, ``sub`` (the (value, mask) of the exact subset max) for X.
    A part not given is computed per family, ``sub`` by one
    ``_exhaustive_best`` call on the stack.  Two (n, d) arrays are one
    family, scored as a stack of one: the result is its ``_Quotient``, or
    None when the denominator is zero.  ``unconditionality_quotient`` and
    the quotient search evaluate every quotient here; the numerator is
    ||sum_k a_k x_k||_r of each family, one ``row_norms`` call on the stack.
    """
    single = A.ndim == 2
    if single:
        A, X = A[None], X[None]
    n, d = A.shape[1:]
    numerator = row_norms(np.add.reduce(A * X, axis=1), t.r)
    if a_max is None:
        a_max = np.maximum.reduce(row_norms(A.reshape(A.shape[0] * n, d), t.p).reshape(A.shape[0], n), axis=1, initial=0.0)
    if sub is None:
        sub = _exhaustive_best(X, t.q, False)
    denominator = a_max * sub[0]
    quotient = np.divide(numerator, denominator, out=np.full(numerator.shape, -np.inf), where=denominator > 0.0)
    res = _Quotients(quotient, numerator, denominator, a_max, sub)
    return res.at(0) if single else res


def _refine_families(A, X, t, best: _Quotient) -> _Quotient:
    """Coordinate ascent on A, then X, by moves of +-scale * max(1, |entry|).

    A and X are moved in place.  Each batch holds one row's moves, entry by
    entry, + before -, and is scored as stacks of moved families, each
    holding at most _BLOCK_BYTES (at least one family): a move on A reuses
    X's subset max, and a move on X reuses max_k ||a_k||_p.  A sweep scores
    2 scales x 2 families x n rows, one batch each.
    """
    cols = np.repeat(np.arange(A.shape[1]), 2)
    plus_minus = np.tile([1.0, -1.0], A.shape[1])
    per = max(1, _BLOCK_BYTES // (8 * A.size))
    family = np.arange(min(per, cols.size))

    def moves():
        for scale in _REFINE_STEPS:
            for M in (A, X):
                for i in range(M.shape[0]):
                    yield M, i, cols, plus_minus * (scale * np.maximum(1.0, np.abs(M[i]))).repeat(2)

    def evaluate(M, i, cols, deltas, cur: _Quotient):
        chunks = []
        for lo in range(0, cols.size, per):
            c = cols[lo : lo + per]
            moved = M[None].repeat(c.size, axis=0)
            moved[family[: c.size], i, c] += deltas[lo : lo + per]
            if M is A:
                chunks.append(_quotient_parts(moved, X[None], t, sub=cur.sub))
            else:
                chunks.append(_quotient_parts(A[None], moved, t, a_max=cur.a_max))
        return [s for res in chunks for s in res.quotient.tolist()], lambda k: chunks[k // per].at(k % per)

    return _coordinate_ascent(best, moves, evaluate, _REFINE_SWEEPS, "refinement")


def _checked_seed(seed):
    """The seed, if it is None or an integer >= 0; else ValueError naming it, which numpy's errors do not."""
    return seed if seed is None else _require_int("seed", seed, 0)


def _trial_rngs(seed, budget: int):
    """Trial k's generator for k < budget, that of ``SeedSequence(seed).spawn(budget)[k]``.

    The root spawns one child as each trial starts, continuing its count;
    spawning every child up front would cost about 400 bytes and 12 us each.
    """
    root = np.random.SeedSequence(seed)
    return (np.random.default_rng(root.spawn(1)[0]) for _ in range(budget))


def _seeded_restarts(n: int, dim: int, budget: int, seed, draw, climb, start=None):
    """The best climbed draw over ``budget`` seeded restarts, shared by both family searches.

    Trial k runs on the k-th child of ``SeedSequence(seed)`` (``_trial_rngs``):
    ``draw(rng, lattice)`` returns fresh float arrays, lattice entries at
    even trials and standard normal ones at odd trials.  Trials run in
    blocks of at most _RESTART_BLOCK, holding at most _BLOCK_BYTES of draws
    at two n x dim binary64 arrays per trial.  A block is drawn in trial
    order; ``start(draws)``, when given, turns its draws into the climbs'
    inputs, one per draw, in order (so a search can score the whole block in
    one pass), and by default each input is its draw.  Then, in trial order,
    ``climb(input, best)`` refines each into a tuple whose first field is the
    score, or returns None for a degenerate draw, which is skipped.  Only a
    strictly higher score replaces the best.  An n, dim or budget other than
    an integer >= 1, n * dim > DRAW_MAX_ENTRIES, n > SEARCH_MAX_N and a seed
    other than None or an integer >= 0 raise ValueError before anything is
    drawn.
    """
    n, dim, budget = _require_int("n", n, 1), _require_int("dim", dim, 1), _require_int("budget", budget, 1)
    if n * dim > DRAW_MAX_ENTRIES:
        raise ValueError(f"n * dim = {n * dim} exceeds the cap of {DRAW_MAX_ENTRIES} entries per draw")
    if n > SEARCH_MAX_N:
        raise ValueError(f"family size {n} exceeds the exhaustive cap {SEARCH_MAX_N} (2^{n} subsets)")
    rngs = _trial_rngs(_checked_seed(seed), budget)
    per_block = min(_RESTART_BLOCK, max(1, _BLOCK_BYTES // (16 * n * dim)))
    best = None
    for first in range(0, budget, per_block):
        draws = [draw(next(rngs), trial % 2 == 0) for trial in range(first, min(first + per_block, budget))]
        for arrays in draws if start is None else start(draws):
            res = climb(arrays, best)
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
) -> QuotientResult:
    """Best exhaustive quotient over ``budget`` seeded random families.

    Restarts alternate entries drawn from the {-1,0,1} lattice and from the
    standard normal distribution; each draw scoring above 0.8 times the best
    so far is refined by coordinate ascent on its entries, which keeps the
    best move of each row's batch (``_refine_families``).  Draws with a
    zero denominator are skipped.  Deterministic given ``seed``.  Every
    quotient equals ``unconditionality_quotient`` of the same entries, and a
    result object is built for the winner alone.
    """
    t.require_holder_valid()

    def draw(rng, lattice):
        if lattice:
            return [rng.integers(-1, 2, size=(n, dim)).astype(np.float64) for _ in range(2)]
        return [rng.standard_normal((n, dim)) for _ in range(2)]

    def start(draws):
        # one stacked pass scores every draw of the block, each as a stack of one would
        parts = _quotient_parts(np.stack([A for A, _ in draws]), np.stack([X for _, X in draws]), t)
        return [(A, X, parts.at(k)) for k, (A, X) in enumerate(draws)]

    def climb(AXres, best):
        A, X, res = AXres
        if res is not None and (best is None or res.quotient > 0.8 * best.quotient):
            res = _refine_families(A, X, t, res)
        return res

    best = _seeded_restarts(n, dim, budget, seed, draw, climb, start)
    return best.result()
