"""Numerical checks of the elementary inequalities behind the quotient machinery.

Covered here:

* the real subset-sum inequality  sum |x_k| <= 2 max_F |sum_F x_k|
  (constant 2 is sharp; the max is computed exactly from the positive /
  negative split, no enumeration needed);
* its complex version with constant 4, sharp constant pi, measured by one
  ratio (``complex_subset_ratio``): the subset max over the nonzero entries
  is the exact kernel's wherever the kernel settles it, and certified; where
  the kernel refuses it, the half-plane arc scan finds it in O(n^2),
  uncertified;
* the lp-lq sandwich  ||v||_q <= ||v||_p <= n^(1/p-1/q) ||v||_q  over random
  vectors, each (pair, dimension) cell one draw of all its vectors and one
  ``row_norms`` call per exponent;
* empirical lower bounds for the sign-pattern constant K in
  sum ||x_k||_2 <= K max_{s in {-1,1}^n} ||sum s_k x_k||_1, reported
  against the fixed envelope KG_UPPER, defined here: a larger ratio is
  logged at CRITICAL.
  The search (``grothendieck_search``) runs on the restart loop and the
  coordinate ascent of ``unconditionality`` with a climb by single-entry
  sign flips, screened on a dual table (``_flip_floors``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .seqspace import EPS_NUM, Exponent, ExponentLike, _finite_array, _require_int, row_norms
from .unconditionality import (
    DRAW_MAX_ENTRIES,
    Family,
    ReachError,
    _BLOCK_BYTES,
    _checked_seed,
    _coordinate_ascent,
    _exhaustive_best,
    _gray_coefs,
    _require_summable,
    _seeded_restarts,
    _slack,
    sign_max_norm,
)

logger = logging.getLogger(__name__)

#: Conservative upper envelope for the constant K_G of the sign-pattern
#: inequality, chosen above every published bound: a ratio above it is a
#: critical finding, not noise.  The 2K inequality behind the Preserves
#: clause p <= 2, q <= r reads quotient(2, q, q) <= 2 K_G < 2 KG_UPPER.
KG_UPPER = 1.8

#: Sharp constant for the complex subset-sum inequality: pi, rounded to binary64.
SHARP_COMPLEX_BOUND = math.pi

REAL_SUBSET_BOUND = 2.0
COMPLEX_SUBSET_BOUND = 4.0
#: Sweep cap of the sign-flip climb in ``grothendieck_search``.
_SIGN_FLIP_SWEEPS = 8
#: Largest sum of |x_kj| of an integer family whose flip screen (``_flip_floors``) is exact.
_EXACT_TABLE_SUM = float(1 << 51)


@dataclass(frozen=True, eq=False)
class RatioReport:
    """A ratio, the inequality's constant it is measured against, and the input."""

    ratio: float
    bound: float
    slack: float
    witness: object
    certified: bool
    sharp_bound: Optional[float] = None

    def _witness_json(self):
        w = self.witness
        if isinstance(w, Family):
            return w.to_json()
        if np.iscomplexobj(w):
            return [[float(z.real), float(z.imag)] for z in w]
        return [float(v) for v in w]

    def to_json(self) -> dict:
        return {
            "ratio": self.ratio,
            "bound": self.bound,
            "slack": self.slack,
            "witness": self._witness_json(),
            "certified": self.certified,
        }


def real_subset_ratio(x: Sequence[float]) -> RatioReport:
    """sum |x_k| divided by the exact subset max |sum_F x_k|.

    The subset max is max(sum of positives, -sum of negatives): one of the
    two sign classes always attains it.  x is checked as a ``Family`` column.
    """
    arr = _finite_array(x).reshape(-1)
    total = float(_require_summable(arr))
    pos = float(arr[arr > 0].sum())
    neg = float(-arr[arr < 0].sum())
    denom = max(pos, neg)
    if denom <= 0.0:
        raise ValueError("degenerate input: all entries are zero")
    ratio = total / denom
    return RatioReport(ratio, REAL_SUBSET_BOUND, REAL_SUBSET_BOUND - ratio, arr, True)


def _planar(z) -> tuple[np.ndarray, np.ndarray]:
    """z as a flat complex array and its (Re, Im) columns, checked as a family's columns."""
    arr = _finite_array(z, np.complex128).reshape(-1)
    planar = np.column_stack([arr.real, arr.imag])
    _require_summable(planar)
    return arr, planar


def _halfplane_max(nz: np.ndarray) -> float:
    """max_F |sum_F z_k| over the nonzero complex entries nz, at least one, by the half-plane arc scan.

    The optimal subset is always of the form {k : Re(e^{-i theta} z_k) > 0};
    sweeping theta across the 2n membership-change angles and summing each
    arc costs O(n^2).
    """
    ang = np.angle(nz)
    events = np.concatenate([ang - 0.5 * math.pi, ang + 0.5 * math.pi])
    events = np.unique(np.mod(events, 2.0 * math.pi))
    # midpoints of consecutive arcs, including the wrap-around arc
    thetas = (events + np.roll(events, -1)) / 2.0
    thetas[-1] = (events[-1] + events[0] + 2.0 * math.pi) / 2.0
    best = 0.0
    for theta in thetas:
        members = np.cos(ang - theta) > 0.0
        val = abs(nz[members].sum())
        if val > best:
            best = float(val)
    return best


def complex_subset_ratio(z) -> RatioReport:
    """sum |z_k| divided by max_F |sum_F z_k|, for any number of entries.

    The max is asked of the exact kernel (``_exhaustive_best``) over the
    nonzero entries' (Re, Im) rows: |sum_F z_k| is the l2 norm of that pair,
    and zero entries change no subset sum.  Wherever the kernel settles it,
    that is the denominator and the ratio is certified.  Only where the
    kernel refuses it, past its reach, does the arc scan (``_halfplane_max``)
    find the max, and the ratio is not certified.  The entries are checked
    once, as a family's columns.
    """
    arr, planar = _planar(z)
    total = float(np.abs(arr).sum())
    if total <= 0.0:
        raise ValueError("degenerate input: all entries are zero")
    nonzero = arr != 0
    try:
        denom, certified = _exhaustive_best(planar[nonzero], Exponent(2.0), signs=False)[0], True
    except ReachError:
        denom, certified = _halfplane_max(arr[nonzero]), False
    ratio = total / denom
    return RatioReport(
        ratio,
        COMPLEX_SUBSET_BOUND,
        COMPLEX_SUBSET_BOUND - ratio,
        arr,
        certified,
        sharp_bound=SHARP_COMPLEX_BOUND,
    )


def _sign_ratio(numer: float, smax: float, n: int) -> float:
    """numer / smax, logged at CRITICAL when it exceeds the envelope KG_UPPER."""
    ratio = numer / smax
    if ratio > KG_UPPER + EPS_NUM:
        logger.critical(
            "sign-pattern ratio %.12g exceeds the configured upper bound %.3g "
            "on a %d-vector family; this contradicts the inequality envelope",
            ratio,
            KG_UPPER,
            n,
        )
    return ratio


def grothendieck_ratio(fam) -> RatioReport:
    """sum_k ||x_k||_2 divided by the exact sign-pattern max of ||sum s_k x_k||_1.

    Every returned ratio is a valid lower bound for the constant of the sign
    inequality, reported against the envelope KG_UPPER; a ratio above it
    would be a critical finding and is logged as such.
    """
    fam = Family.of(fam)
    smax = sign_max_norm(fam, 1)
    if smax.value <= 0.0:
        raise ValueError("degenerate family: all vectors are zero")
    numer = float(row_norms(fam.matrix, 2).sum())
    ratio = _sign_ratio(numer, smax.value, fam.size)
    return RatioReport(ratio, KG_UPPER, KG_UPPER - ratio, fam, True)


def _flip_floors(X: np.ndarray) -> np.ndarray:
    """Proven lower bounds on the q = 1 sign max of X after negating each single entry.

    With P = S X^T the dual table over the sign vectors s with s_{d-1} = +1
    (S, one row per vector in Gray order, is the kernel's cached sign table
    ``_gray_coefs(d, True, float64)`` transposed; the screen asks for it
    only at d <= 10, where its bounds fit one block), negating X[i, j] moves
    P[s, i] by -2 s_j X[i, j], so the dual score h(s) = sum_k |P[s, k]|
    becomes h(s) - |P[s, i]| + |P[s, i] - 2 s_j X[i, j]|.
    The best such score is the exact sign max after the flip, since
    max_s <s, v> = ||v||_1.  The float sign max ``_exhaustive_best`` reports
    is at least the float score times 1 - ``_slack`` at q = 1, whose proof
    covers both (a flip leaves every |x_kj| as it was).  Entry (i, j) is that
    bound, except on an exact table, where it is the score itself.

    The table is exact when every entry of X is an integer and
    sum |x_kj| <= 2^51; a flip keeps both, so every build of one climb
    decides alike.  (The float sum of |x_kj| adds nonnegative integers: it
    is exact up to 2^53, and a sum past 2^51 cannot round back to it.)  On
    an exact table every entry of P, of the row sums of |P|, of
    |P[s, i] - 2 s_j X[i, j]| and of the scores is an integer of magnitude at
    most 3 sum |x_kj| < 2^53, and so is every partial sum behind it, so each
    is exact in any summation order, with or without fused multiply-adds.
    The score is then the exact sign max after the flip.  So is the float
    sign max of ``_exhaustive_best``: whatever its route, its value is the
    largest q = 1 norm of a scratch sum of +-rows over all sign patterns,
    and each such sum and norm adds integers below 2^53.  The floor is thus
    the very float the kernel would return, and a flip the screen skips is
    one the climb would score and revert without a log line.
    """
    S = _gray_coefs(X.shape[1], True, np.float64).T
    P = S @ X.T
    absP = np.abs(P)
    moved = np.abs(P[:, :, None] - 2.0 * S[:, None, :] * X)
    moved += (absP.sum(axis=1)[:, None] - absP)[:, :, None]
    scores = moved.max(axis=0)
    if (np.rint(X) == X).all() and np.abs(X).sum() <= _EXACT_TABLE_SUM:
        return scores
    return scores * (1.0 - _slack(Exponent(1.0), *X.shape))


def grothendieck_search(
    n: int,
    dim: int,
    budget: int,
    seed: Optional[int] = None,
) -> RatioReport:
    """Best sign-pattern ratio over seeded random families with sign-flip refinement.

    Negating a single entry never changes sum ||x_k||_2, not even in its last
    bit, so it is computed once per draw and refinement recomputes only the
    sign max of the denominator.  Flips are screened on the dual table
    (``_flip_floors``, built once per climb and after each kept flip): a flip
    whose sign max provably stays at or above the one held, with a ratio
    provably at most KG_UPPER + EPS_NUM, would be scored, reverted and
    not logged, so it is skipped.  On integer families (the lattice draws)
    the screen's bounds are the exact sign maxima, so it skips every flip
    that ties the held one as well; only kept flips, and flips that could
    log, are scored there.  The screen runs when dim < n, where the
    dual table has fewer rows than there are sign patterns, and its bounds
    fit one _BLOCK_BYTES block (dim <= 10); otherwise every floor is -inf
    and every flip is scored.  Whether it runs depends on n and dim alone.
    The running best is nondecreasing over the budget, and the whole run is
    deterministic per seed.  Every ratio equals ``grothendieck_ratio`` of the
    same entries, and one above KG_UPPER is logged the same way.
    """
    l1 = Exponent(1.0)
    limit = KG_UPPER + EPS_NUM

    def floors_of(X):
        # decided by the shape alone, once the restart loop has checked it
        screened = dim < n and 8 * n * dim << (dim - 1) <= _BLOCK_BYTES
        return _flip_floors(X) if screened else np.broadcast_to(-np.inf, X.shape)

    def draw(rng, lattice):
        if lattice:
            return (rng.integers(0, 2, size=(n, dim)) * 2 - 1).astype(np.float64)
        return rng.standard_normal((n, dim))

    def climb(X, best):
        numer = float(row_norms(X, 2).sum())
        # the sign max of the entries the climb holds, and their screen
        held = _exhaustive_best(X, l1, signs=True)[0]
        if held <= 0.0:
            return None
        floors = floors_of(X)

        def evaluate(M, i, cols, deltas, cur):
            # every batch is one flip: x - 2x is -x and -x + 2x is x exactly
            X[i, cols[0]] += deltas[0]
            smax = _exhaustive_best(X, l1, signs=True)[0]
            X[i, cols[0]] -= deltas[0]
            ratio = -np.inf if smax <= 0.0 else _sign_ratio(numer, smax, n)

            def pick(k):
                # the ascent kept the flip and has applied it
                nonlocal held, floors
                held, floors = smax, floors_of(X)
                return ratio, X

            return (ratio,), pick

        def flips():
            for i in range(n):
                for j in range(dim):
                    floor = floors[i, j]
                    if not (floor >= held and numer / floor <= limit):
                        yield X, i, (j,), (-2.0 * X[i, j],)

        start = (_sign_ratio(numer, held, n), X)
        return _coordinate_ascent(start, flips, evaluate, _SIGN_FLIP_SWEEPS, "sign-flip climb")

    ratio, X = _seeded_restarts(n, dim, budget, seed, draw, climb)
    return RatioReport(ratio, KG_UPPER, KG_UPPER - ratio, Family(X), True)


@dataclass(frozen=True)
class SandwichSweepRecord:
    p: Exponent
    q: Exponent
    dim: int
    trials: int
    violations: int
    min_lower_slack: float
    min_upper_slack: float

    def to_json(self) -> dict:
        return {**asdict(self), "p": self.p.to_json(), "q": self.q.to_json()}


@dataclass(frozen=True)
class SandwichSweepReport:
    records: tuple[SandwichSweepRecord, ...]

    @property
    def violations(self) -> int:
        return sum(r.violations for r in self.records)

    def to_json(self) -> dict:
        return {
            "violations": self.violations,
            "records": [r.to_json() for r in self.records],
        }


def sandwich_sweep(
    dims: Sequence[int],
    p_q_pairs: Sequence[tuple[ExponentLike, ExponentLike]],
    trials: int,
    seed: Optional[int] = None,
) -> SandwichSweepReport:
    """Probe the lp-lq sandwich on random vectors.

    For each pair and dimension, draws ``trials`` standard-normal vectors as
    the rows of one array, takes both norms of every row with one
    ``row_norms`` call each, and records the violation count (which must
    stay zero) and the tightest slack observed on each side.  A seed other
    than None or an integer >= 0, trials or a dimension other than an
    integer >= 1, trials * max(dims) > DRAW_MAX_ENTRIES and a pair outside
    1 <= p <= q < inf raise ValueError before anything is drawn.
    """
    trials = _require_int("trials", trials, 1)
    dims = [_require_int(f"dims[{k}]", dim, 1) for k, dim in enumerate(dims)]
    entries = trials * max(dims, default=0)  # Python ints: no int64 wrap
    if entries > DRAW_MAX_ENTRIES:
        raise ValueError(f"trials * max(dims) = {entries} exceeds the cap of {DRAW_MAX_ENTRIES} entries per draw")
    pairs = [(Exponent.of(pv), Exponent.of(qv)) for pv, qv in p_q_pairs]
    if any(q.is_infinite or p.is_infinite or p.value > q.value for p, q in pairs):
        raise ValueError("pairs must satisfy 1 <= p <= q < inf")
    rng = np.random.default_rng(_checked_seed(seed))
    records = []
    for p, q in pairs:
        for dim in dims:
            V = rng.standard_normal((trials, dim))
            np_ = row_norms(V, p)
            nq = row_norms(V, q)
            lower = np_ - nq
            upper = float(dim) ** (p.reciprocal - q.reciprocal) * nq - np_
            tol = -EPS_NUM * np.maximum(1.0, np_)
            violations = int(np.count_nonzero((lower < tol) | (upper < tol)))
            mins = float(lower.min()), float(upper.min())
            records.append(SandwichSweepRecord(p, q, dim, trials, violations, *mins))
    return SandwichSweepReport(tuple(records))
