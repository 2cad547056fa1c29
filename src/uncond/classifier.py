"""Decision engine for the triples (p, q, r) under coordinatewise multiplication.

The decision table:

* NotApplicable when 1/r > 1/p + 1/q (the product map does not land in lr);
* Preserves when r = inf, or when p <= 2 and q <= r;
* NotPreserves when r < q, or when 1/2 + 1/r > 1/p + 1/min(2,q) strictly;
* Unknown otherwise (an open region; the engine represents ignorance rather
  than guessing).

One exception to the gate: for p = inf the failure 1/r > 1/q is exactly
r < q, and sup-bounded multipliers act termwise on every coordinate space,
so the divergent-tail counterexample applies even though the global product
map is unbounded.  Those triples are classified NotPreserves via r < q
rather than NotApplicable.

One kernel, ``_classify_lattice``, evaluates the table over a whole (p, q)
lattice at fixed r as broadcast float64 arrays: ``region_grid`` is one call
of it and ``classify`` its 1 x 1 case.  The strict clause's gap comes from
the routine behind ``witness.second_clause_gap``, so it is the float
``witness_size`` tests, and it enters the margin.

Strict comparisons require margin EPS_CMP and boundary equalities resolve
toward the non-strict side.  That includes the one place two clauses of
opposite verdicts overlap: p <= 2 and q <= r within EPS_CMP each allow a gap
of up to 2 EPS_CMP, so the nested clause and the strict clause both hold
where the gap lies in (EPS_CMP, 2 EPS_CMP], as at (2.000000000003, 2,
1.999999999998).  There the nested clause decides (Preserves).  Every other
pair is disjoint with room to spare for rounding, which is about 1e-16 here:
r = inf gives 1/q >= 1/r, so r < q fails, and a gap of at most
1/2 - 1/p - 1/2 <= 0; the nested clause and r < q would need
1/r - EPS_CMP <= 1/q < 1/r - EPS_CMP.  Both clause families are still
evaluated at every point; if any other pair ever fires together the engine
raises InternalInconsistencyError, since that would falsify the
implementation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .errors import InternalInconsistencyError
from .seqspace import EPS_CMP, INF, Exponent, ExponentLike, ExponentTriple
from .unconditionality import check_threads, quotient_lower_bound_search
from .witness import _strict_gap, hadamard_witness, tail_witness, witness_size

logger = logging.getLogger(__name__)


class Verdict(str, Enum):
    PRESERVES = "Preserves"
    NOT_PRESERVES = "NotPreserves"
    UNKNOWN = "Unknown"
    NOT_APPLICABLE = "NotApplicable"


class Clause(str, Enum):
    """Which clause of the decision table fired (wire-format tags)."""

    R_INFINITE = "T1.4-1-rInf"
    SMALL_P_NESTED_Q = "T1.4-1-pLe2qLeR"
    R_BELOW_Q = "T1.4-2-rLtQ"
    STRICT_GAP = "T1.4-2-strict"
    HOLDER_INVALID = "HolderInvalid"
    OPEN = "Open"


class Classification(NamedTuple):
    """The verdict, clause and margin of one triple.

    A named tuple, like ``ExponentTriple`` and for the same reason: a region
    grid builds one per point.  It equals and hashes as the plain tuple
    (triple, verdict, clause, margin), and assigning a field raises
    AttributeError.
    """

    triple: ExponentTriple
    verdict: Verdict
    clause: Clause
    margin: float

    def to_json(self) -> dict:
        return {
            "p": self.triple.p.to_json(),
            "q": self.triple.q.to_json(),
            "r": self.triple.r.to_json(),
            "verdict": self.verdict.value,
            "clause": self.clause.value,
            "margin": self.margin,
        }


#: The verdict and clause of each kernel code; a clause's code is its index in ``Clause``.
_DECISIONS = (
    (Verdict.PRESERVES, Clause.R_INFINITE),
    (Verdict.PRESERVES, Clause.SMALL_P_NESTED_Q),
    (Verdict.NOT_PRESERVES, Clause.R_BELOW_Q),
    (Verdict.NOT_PRESERVES, Clause.STRICT_GAP),
    (Verdict.NOT_APPLICABLE, Clause.HOLDER_INVALID),
    (Verdict.UNKNOWN, Clause.OPEN),
)
_R_INFINITE, _NESTED, _R_BELOW_Q, _STRICT_GAP, _HOLDER_INVALID, _OPEN = range(len(_DECISIONS))
#: The code of each layer of the kernel's flag stack, in the order the table
#: tries its clauses; the first layer that holds decides, and the last always holds.
_LAYER_CODES = np.array([_R_BELOW_Q, _HOLDER_INVALID, _R_INFINITE, _NESTED, _R_BELOW_Q, _STRICT_GAP, _OPEN])


def _classify_lattice(
    ps: list[Exponent], qs: list[Exponent], r: Exponent
) -> tuple[list[Classification], np.ndarray]:
    """Classify every (p, q, r) with p in ``ps`` and q in ``qs``, row-major (p outer, q inner).

    Returns the records and the (len(ps), len(qs)) array of clause codes.
    Every quantity of the decision table is one broadcast float64 array over
    a column of 1/p and a row of 1/q, built by the same IEEE operations in
    the same order as a scalar evaluation (the gap by ``witness._strict_gap``,
    as ``second_clause_gap`` takes it), so each point gets the floats, and
    hence the clause and margin, that evaluating it alone gives.

    Each clause is one layer of a boolean stack, in the order of
    ``_LAYER_CODES``, and a point's code is that of its first layer that
    holds: one lookup for the whole lattice.
    """
    rp = np.array([p.reciprocal for p in ps])[:, None]
    rq = np.array([q.reciprocal for q in qs])[None, :]
    rr = r.reciprocal
    holder = rp + rq
    gap = _strict_gap(rp, rq, rr)
    margin = np.minimum(
        np.minimum(np.abs(holder - rr), np.abs(rp - 0.5)),
        np.minimum(np.abs(rq - rr), np.abs(gap)),
    )
    layers = np.empty((len(_LAYER_CODES), len(ps), len(qs)), dtype=bool)
    gate_p_infinite, gate, r_infinite, nested, r_below_q, strict, open_ = layers
    np.greater(rr, holder + EPS_CMP, out=gate)
    # 1/p is 0.0 exactly for p = inf and positive for every finite p
    np.logical_and(gate, rp == 0.0, out=gate_p_infinite)
    # non-strict clause family: r = inf, or p <= 2 and q <= r
    r_infinite[...] = r.is_infinite
    np.logical_and(rp >= 0.5 - EPS_CMP, rq >= rr - EPS_CMP, out=nested)
    # strict clause family: r < q, or 1/2 + 1/r > 1/p + 1/min(2,q); the
    # nested clause takes the band of the strict one it overlaps
    np.greater(rr, rq + EPS_CMP, out=r_below_q)
    np.greater(gap, EPS_CMP, out=strict)
    strict &= ~nested
    open_[...] = True
    clash = ~gate & (r_infinite | nested) & (r_below_q | strict)
    if clash.any():
        i, j = divmod(int(np.argmax(clash)), len(qs))
        raise InternalInconsistencyError(
            f"both clause families fire for {ExponentTriple(ps[i], qs[j], r)}; "
            "the implemented clauses must be disjoint"
        )
    codes = _LAYER_CODES[layers.argmax(axis=0)]
    # tuple.__new__ makes the same named tuples the class calls make, without
    # their Python-level __new__, which would take 40% of this loop's time
    record, rows = tuple.__new__, []
    for p, code_row, margin_row in zip(ps, codes.tolist(), margin.tolist()):
        for q, code, m in zip(qs, code_row, margin_row):
            verdict, clause = _DECISIONS[code]
            rows.append(record(Classification, (record(ExponentTriple, (p, q, r)), verdict, clause, m)))
    return rows, codes


def classify(t: ExponentTriple) -> Classification:
    """Classify one triple; see the module docstring for the decision table.

    The margin is the distance, in reciprocal coordinates, to the nearest
    clause boundary: the planes 1/r = 1/p + 1/q, 1/p = 1/2, 1/q = 1/r and the
    kinked surface 1/2 + 1/r = 1/p + 1/min(2,q), at signed distance ``gap``.
    This is the 1 x 1 lattice of ``region_grid``'s kernel.
    """
    return _classify_lattice([t.p], [t.q], t.r)[0][0]


#: Cap on the points of a region grid, inf samples included; [1, 64]^2 at
#: step 0.125 with inf is 506^2 = 256 036 points.
GRID_MAX_POINTS = 1 << 18


def _lattice_len(rng: tuple[float, float], step: float) -> float:
    """The number of points ``_lattice`` gives on ``rng``, up to rounding, without building it."""
    lo, hi = float(rng[0]), float(rng[1])
    if lo > hi:
        return 0.0
    if not (1.0 <= lo and hi <= 64.0):
        raise ValueError("ranges must lie within [1, 64]")
    return (hi - lo + EPS_CMP) // step + 1.0


def _lattice(rng: tuple[float, float], step: float, count: float) -> list[Exponent]:
    """The points lo + k * step of ``rng`` = (lo, hi) up to hi + EPS_CMP, clipped at hi.

    They never decrease in k, so k runs past ``count``, ``_lattice_len``'s, by
    two and by the steps in the few ulps of hi that rounding moves a point.
    """
    lo, hi = float(rng[0]), float(rng[1])
    ks = int(count) + 2 + int(4.0 * math.ulp(hi + EPS_CMP) / step)
    points = (lo + k * step for k in range(ks))
    return [Exponent(min(v, hi)) for v in points if v <= hi + EPS_CMP]


def region_grid(
    r: ExponentLike,
    p_range: tuple[float, float] = (1.0, 4.0),
    q_range: tuple[float, float] = (1.0, 4.0),
    step: float = 1.0,
    *,
    include_infinite: bool = True,
    threads: int = 1,
) -> list[Classification]:
    """Classify every point of a (p, q) lattice at fixed r.

    The infinite exponent is sampled explicitly as an extra lattice point on
    each axis (1/inf = 0 exactly; no large finite stand-in), unless disabled.
    Rows are emitted in row-major (p outer, q inner) order.  The number of
    points is worked out before any is built, and a grid of more than
    GRID_MAX_POINTS raises ValueError.  The whole lattice is classified by
    one call of the kernel ``classify`` uses, so every record equals
    ``classify`` of its triple.  ``threads`` is accepted for compatibility
    and validated; the grid is evaluated serially.  Each call logs its point
    count and the count per clause at debug level.
    """
    check_threads(threads)
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step!r}")
    r = Exponent.of(r)
    lens = [_lattice_len(rng, step) for rng in (p_range, q_range)]
    ps: list[Exponent] = []
    qs: list[Exponent] = []
    if all(lens):
        extra = 1 if include_infinite else 0
        if (lens[0] + extra) * (lens[1] + extra) > GRID_MAX_POINTS:
            raise ValueError(f"grid exceeds the cap of {GRID_MAX_POINTS} points; use a larger step")
        ps = _lattice(p_range, step, lens[0]) + [INF] * extra
        qs = _lattice(q_range, step, lens[1]) + [INF] * extra
    rows, codes = _classify_lattice(ps, qs, r)
    if logger.isEnabledFor(logging.DEBUG):
        counts = np.bincount(codes.ravel(), minlength=len(_DECISIONS)).tolist()
        logger.debug(
            "region grid at r=%s: %d points; %s",
            r,
            codes.size,
            ", ".join(f"{clause.value} {k}" for (_, clause), k in zip(_DECISIONS, counts)),
        )
    return rows


GRID_CSV_HEADER = "p,q,r,verdict,clause,margin"


def grid_to_csv(rows: list[Classification]) -> str:
    """Render grid records as CSV with the fixed header; 'inf' denotes infinity."""
    lines = [GRID_CSV_HEADER]
    for c in rows:
        t = c.triple
        lines.append(
            f"{t.p.token()},{t.q.token()},{t.r.token()},"
            f"{c.verdict.value},{c.clause.value},{c.margin!r}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class WitnessCheck:
    kind: str
    parameter: float
    ok: bool
    detail: dict

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CrossValidation:
    """A classification together with the evidence backing it."""

    classification: Classification
    checks: tuple[WitnessCheck, ...]
    best_quotient: Optional[float]

    def to_json(self) -> dict:
        out = {
            "classification": self.classification.to_json(),
            "checks": [c.to_json() for c in self.checks],
        }
        if self.best_quotient is not None:
            out["best_quotient"] = self.best_quotient
        return out


def cross_validate(
    t: ExponentTriple,
    budget: int = 200,
    seed: Optional[int] = None,
    *,
    n: int = 4,
    dim: int = 4,
) -> CrossValidation:
    """Tie the verdict for ``t`` to concrete computations.

    NotPreserves via the strict clause must survive witness construction for
    C in {1, 10, 100}; NotPreserves via r < q must survive tail construction
    for B in {2, 5}.  A failed construction raises
    InternalInconsistencyError; a witness too large for desk scale (see
    ``witness_size``) raises ValueError, a domain limit.  Preserves and
    Unknown verdicts run the seeded quotient search and report the best
    quotient found (bounded evidence resp. exploration only).
    """
    cls = classify(t)
    if cls.verdict is Verdict.NOT_APPLICABLE:
        t.require_holder_valid()  # raises: NotApplicable triples are never holder_valid
    checks: list[WitnessCheck] = []
    best_quotient = None
    if cls.verdict is Verdict.NOT_PRESERVES:
        if cls.clause is Clause.STRICT_GAP:
            for C in (1.0, 10.0, 100.0):
                # a witness beyond desk scale is a domain limit, not a contradiction
                witness_size(t, C)
                try:
                    rep = hadamard_witness(t, C)
                except ValueError as exc:
                    raise InternalInconsistencyError(
                        f"strict clause fired for {t} but the witness failed at C={C}: {exc}"
                    ) from exc
                detail = {"n": rep.n, "certified_ratio_log2": rep.certified_ratio_log2}
                if rep.exhaustive_quotient is not None:
                    detail["exhaustive_quotient"] = rep.exhaustive_quotient
                checks.append(WitnessCheck("hadamard", C, True, detail))
        else:
            # escalating levels, specified in harmonic-sum space so the
            # crossing stays at desk scale for every r (B^r would not)
            for target in (2.0, 5.0):
                B = target ** t.r.reciprocal
                try:
                    tw = tail_witness(t.q, t.r, B)
                except ValueError as exc:
                    raise InternalInconsistencyError(
                        f"r<q fired for {t} but the tail witness failed at B={B}: {exc}"
                    ) from exc
                checks.append(WitnessCheck("tail", B, True, tw._asdict()))
    else:
        res = quotient_lower_bound_search(t, n, dim, budget, seed)
        best_quotient = res.quotient
        detail = {"best_quotient": res.quotient, "certified": res.certified}
        checks.append(WitnessCheck("search", float(budget), True, detail))
    return CrossValidation(cls, tuple(checks), best_quotient)
