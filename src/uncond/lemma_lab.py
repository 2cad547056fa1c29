"""Numerical checks of the elementary inequalities behind the quotient machinery.

Covered here:

* the real subset-sum inequality  sum |x_k| <= 2 max_F |sum_F x_k|
  (constant 2 is sharp; the max is computed exactly from the positive /
  negative split, no enumeration needed);
* its complex version with constant 4, sharp constant pi, measured by one
  ratio (``complex_subset_ratio``): the subset max is enumerated exactly up
  to the exhaustive cap, and found by the half-plane arc scan, in O(n^2)
  and uncertified, above it;
* the lp-lq sandwich  ||v||_q <= ||v||_p <= n^(1/p-1/q) ||v||_q  over random
  vectors, each (pair, dimension) cell one draw of all its vectors and one
  ``row_norms`` call per exponent;
* empirical lower bounds for the sign-pattern constant K in
  sum ||x_k||_2 <= K max_{s in {-1,1}^n} ||sum s_k x_k||_1,
  reported against a configurable upper envelope.  The search runs on the
  restart loop and the coordinate ascent of ``unconditionality``, supplying
  a +-1 or normal draw and a climb by single-entry sign flips, one flip per
  batch of the ascent; a flip leaves the numerator unchanged, so only the
  sign max is recomputed.  Flips are screened on the dual table P = S X^T,
  built once per climb and after each kept flip: one pass bounds the sign
  max after every single-entry flip from below, at the enumeration's
  rounding slack, and a flip that provably neither lowers the sign max
  below the one held nor lifts the ratio above the envelope is skipped,
  since it would be scored, reverted and not logged.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .seqspace import EPS_NUM, Exponent, ExponentLike, _finite_array, row_norms
from .unconditionality import (
    DEFAULT_N_EXH,
    KG_UPPER,
    Family,
    _BLOCK_BYTES,
    _SIGN_FLIP_SWEEPS,
    _coordinate_ascent,
    _exhaustive_best,
    _require_exhaustible,
    _seeded_restarts,
    _slack,
    sign_max_norm,
)

logger = logging.getLogger(__name__)

#: Sharp constant for the complex subset-sum inequality, to 1e-12.
SHARP_COMPLEX_BOUND = 3.141592653589793

REAL_SUBSET_BOUND = 2.0
COMPLEX_SUBSET_BOUND = 4.0


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
        arr = np.asarray(w)
        if np.iscomplexobj(arr):
            return [[float(z.real), float(z.imag)] for z in arr]
        return [float(v) for v in arr]

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
    two sign classes always attains it, so no enumeration is involved.
    """
    arr = _finite_array(x).reshape(-1)
    pos = float(arr[arr > 0].sum())
    neg = float(-arr[arr < 0].sum())
    denom = max(pos, neg)
    if denom <= 0.0:
        raise ValueError("degenerate input: all entries are zero")
    ratio = float(np.abs(arr).sum()) / denom
    return RatioReport(ratio, REAL_SUBSET_BOUND, REAL_SUBSET_BOUND - ratio, arr, True)


def _as_complex(z) -> np.ndarray:
    return _finite_array(z, np.complex128).reshape(-1)


def complex_subset_max(z, *, n_exh: int = DEFAULT_N_EXH) -> tuple[float, int]:
    """Exact max_F |sum_F z_k| by subset enumeration; returns (value, bitmask)."""
    arr = _as_complex(z)
    _require_exhaustible(arr.size, n_exh)
    # |sum_F z_k| is the l2 norm of the (Re, Im) pair, so the complex subset
    # max is the planar subset max with its stable modulus.
    return _exhaustive_best(np.column_stack([arr.real, arr.imag]), Exponent(2.0), signs=False)


def halfplane_subset_max(z) -> float:
    """max_F |sum_F z_k| via the half-plane scan.

    The optimal subset is always of the form {k : Re(e^{-i theta} z_k) > 0};
    sweeping theta across the 2n membership-change angles and summing each
    arc costs O(n^2).
    """
    arr = _as_complex(z)
    nz = arr[arr != 0]
    if nz.size == 0:
        return 0.0
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


def complex_subset_ratio(z, *, n_exh: int = DEFAULT_N_EXH) -> RatioReport:
    """sum |z_k| divided by max_F |sum_F z_k|, for any number of entries.

    Up to ``n_exh`` entries the max is enumerated and the ratio certified;
    above that the arc scan finds it, and the ratio is not certified.
    """
    arr = _as_complex(z)
    total = float(np.abs(arr).sum())
    if total <= 0.0:
        raise ValueError("degenerate input: all entries are zero")
    certified = arr.size <= n_exh
    denom = complex_subset_max(arr, n_exh=n_exh)[0] if certified else halfplane_subset_max(arr)
    ratio = total / denom
    return RatioReport(
        ratio,
        COMPLEX_SUBSET_BOUND,
        COMPLEX_SUBSET_BOUND - ratio,
        arr,
        certified,
        sharp_bound=SHARP_COMPLEX_BOUND,
    )


def _sign_ratio(numer: float, smax: float, kg_upper: float, n: int) -> float:
    """numer / smax, logged at CRITICAL when it exceeds the envelope ``kg_upper``."""
    ratio = numer / smax
    if ratio > kg_upper + EPS_NUM:
        logger.critical(
            "sign-pattern ratio %.12g exceeds the configured upper bound %.3g "
            "on a %d-vector family; this contradicts the inequality envelope",
            ratio,
            kg_upper,
            n,
        )
    return ratio


def grothendieck_ratio(
    fam,
    *,
    kg_upper: float = KG_UPPER,
    n_exh: int = DEFAULT_N_EXH,
) -> RatioReport:
    """sum_k ||x_k||_2 divided by the exact sign-pattern max of ||sum s_k x_k||_1.

    Every returned ratio is a valid lower bound for the constant of the sign
    inequality; a ratio above ``kg_upper`` would be a critical finding and is
    logged as such.  A NaN ``kg_upper`` raises ValueError.
    """
    if math.isnan(kg_upper):
        raise ValueError("kg_upper cannot be NaN")
    fam = Family.of(fam)
    smax = sign_max_norm(fam, 1, n_exh=n_exh)
    if smax.value <= 0.0:
        raise ValueError("degenerate family: all vectors are zero")
    numer = float(row_norms(fam.matrix, 2).sum())
    ratio = _sign_ratio(numer, smax.value, kg_upper, fam.size)
    return RatioReport(ratio, kg_upper, kg_upper - ratio, fam, True)


@functools.lru_cache(maxsize=None)
def _half_signs(d: int) -> np.ndarray:
    """The 2^(d-1) sign vectors of length d with s_{d-1} = +1, one per row (read-only).

    Row j is -1 where bit i of j is set.  The screen builds them only for
    d <= 10, where its bounds fit one block.
    """
    table = 1.0 - 2.0 * (np.arange(1 << (d - 1))[:, None] >> np.arange(d) & 1)
    table.setflags(write=False)
    return table


def _flip_floors(X: np.ndarray) -> np.ndarray:
    """Proven lower bounds on the q = 1 sign max of X after negating each single entry.

    With P = S X^T the dual table over the sign vectors s with s_{d-1} = +1,
    negating X[i, j] moves P[s, i] by -2 s_j X[i, j], so the dual score
    h(s) = sum_k |P[s, k]| becomes h(s) - |P[s, i]| + |P[s, i] - 2 s_j X[i, j]|.
    The best such score is the exact sign max after the flip, since
    max_s <s, v> = ||v||_1.  The float sign max ``_exhaustive_best`` reports
    is at least the float score times 1 - ``_slack`` at q = 1, whose proof
    covers both (a flip leaves every |x_kj| as it was).  Entry (i, j) is that
    bound.
    """
    S = _half_signs(X.shape[1])
    P = S @ X.T
    absP = np.abs(P)
    moved = np.abs(P[:, :, None] - 2.0 * S[:, None, :] * X)
    moved += (absP.sum(axis=1)[:, None] - absP)[:, :, None]
    return moved.max(axis=0) * (1.0 - _slack(Exponent(1.0), *X.shape))


def grothendieck_search(
    n: int,
    dim: int,
    budget: int,
    seed: Optional[int] = None,
    *,
    kg_upper: float = KG_UPPER,
    n_exh: int = DEFAULT_N_EXH,
) -> RatioReport:
    """Best sign-pattern ratio over seeded random families with sign-flip refinement.

    Negating a single entry never changes sum ||x_k||_2, not even in its last
    bit, so it is computed once per draw and refinement recomputes only the
    sign max of the denominator.  Flips are screened on the dual table
    (``_flip_floors``, built once per climb and after each kept flip): a flip
    whose sign max provably stays at or above the one held, with a ratio
    provably at most ``kg_upper`` + EPS_NUM, would be scored, reverted and
    not logged, so it is skipped.  The screen runs when dim < n, where the
    dual table has fewer rows than there are sign patterns, and its bounds
    fit one _BLOCK_BYTES block (dim <= 10); otherwise every floor is -inf
    and every flip is scored.  Whether it runs is decided once per search.
    The running best is nondecreasing over the budget, and the whole run is
    deterministic per seed.  Every ratio equals ``grothendieck_ratio`` of the
    same entries, and one above ``kg_upper`` is logged the same way.
    """
    if math.isnan(kg_upper):
        raise ValueError("kg_upper cannot be NaN")
    l1 = Exponent(1.0)
    limit = kg_upper + EPS_NUM
    # the screen's bounds fill a 2^(dim-1) x n x dim array; unscreened, every
    # floor is -inf, so every flip is scored
    screened = 0 < dim < n and 8 * n * dim << (dim - 1) <= _BLOCK_BYTES
    floors_of = _flip_floors if screened else lambda X: np.broadcast_to(-np.inf, X.shape)

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
            ratio = -np.inf if smax <= 0.0 else _sign_ratio(numer, smax, kg_upper, n)

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

        start = (_sign_ratio(numer, held, kg_upper, n), X)
        return _coordinate_ascent(start, flips, evaluate, _SIGN_FLIP_SWEEPS, "sign-flip climb")

    ratio, X = _seeded_restarts(n, dim, budget, seed, n_exh, draw, climb)
    return RatioReport(ratio, kg_upper, kg_upper - ratio, Family(X), True)


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
    stay zero) and the tightest slack observed on each side.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    records = []
    for pv, qv in p_q_pairs:
        p = Exponent.of(pv)
        q = Exponent.of(qv)
        if q.is_infinite or p.is_infinite or p.value > q.value:
            raise ValueError("pairs must satisfy 1 <= p <= q < inf")
        for dim in dims:
            V = rng.standard_normal((trials, dim))
            np_ = row_norms(V, p)
            nq = row_norms(V, q)
            lower = np_ - nq
            upper = float(dim) ** (p.reciprocal - q.reciprocal) * nq - np_
            tol = -EPS_NUM * np.maximum(1.0, np_)
            violations = int(np.count_nonzero((lower < tol) | (upper < tol)))
            mins = float(lower.min()), float(upper.min())
            records.append(SandwichSweepRecord(p, q, int(dim), trials, violations, *mins))
    return SandwichSweepReport(tuple(records))
