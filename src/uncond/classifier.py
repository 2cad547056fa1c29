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

Both verdict-bearing clause families are evaluated on every call; if they
ever fire together the engine raises InternalInconsistencyError, since that
would falsify the implementation.  Strict comparisons require margin EPS_CMP
and boundary equalities resolve toward the non-strict side.  One call of
``witness.second_clause_gap`` per triple decides the strict clause and
enters the margin, the same float ``witness_size`` tests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum
from typing import Optional

from .errors import InternalInconsistencyError
from .seqspace import EPS_CMP, INF, Exponent, ExponentLike, ExponentTriple
from .unconditionality import DEFAULT_N_EXH, check_threads, quotient_lower_bound_search
from .witness import hadamard_witness, second_clause_gap, tail_witness, witness_size


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


@dataclass(frozen=True)
class Classification:
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


def classify(t: ExponentTriple) -> Classification:
    """Classify one triple; see the module docstring for the decision table.

    The margin is the distance, in reciprocal coordinates, to the nearest
    clause boundary: the planes 1/r = 1/p + 1/q, 1/p = 1/2, 1/q = 1/r and the
    kinked surface 1/2 + 1/r = 1/p + 1/min(2,q), at signed distance ``gap``.
    """
    rp, rq, rr = t.p.reciprocal, t.q.reciprocal, t.r.reciprocal
    gap = second_clause_gap(t)
    margin = min(abs(rp + rq - rr), abs(rp - 0.5), abs(rq - rr), abs(gap))
    if rr > rp + rq + EPS_CMP:
        if t.p.is_infinite:
            # gate failure with 1/p = 0 says exactly r < q; the tail witness applies
            return Classification(t, Verdict.NOT_PRESERVES, Clause.R_BELOW_Q, margin)
        return Classification(t, Verdict.NOT_APPLICABLE, Clause.HOLDER_INVALID, margin)

    # non-strict clause family: r = inf, or p <= 2 and q <= r
    preserves_r_inf = t.r.is_infinite
    preserves_nested = rp >= 0.5 - EPS_CMP and rq >= rr - EPS_CMP
    # strict clause family: r < q, or 1/2 + 1/r > 1/p + 1/min(2,q)
    not_preserves_r_lt_q = rr > rq + EPS_CMP
    not_preserves_strict = gap > EPS_CMP

    fires_preserve = preserves_r_inf or preserves_nested
    fires_not = not_preserves_r_lt_q or not_preserves_strict
    if fires_preserve and fires_not:
        raise InternalInconsistencyError(
            f"both clause families fire for {t}; the implemented clauses must be disjoint"
        )
    if fires_preserve:
        clause = Clause.R_INFINITE if preserves_r_inf else Clause.SMALL_P_NESTED_Q
        return Classification(t, Verdict.PRESERVES, clause, margin)
    if fires_not:
        clause = Clause.R_BELOW_Q if not_preserves_r_lt_q else Clause.STRICT_GAP
        return Classification(t, Verdict.NOT_PRESERVES, clause, margin)
    return Classification(t, Verdict.UNKNOWN, Clause.OPEN, margin)


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


def _lattice(rng: tuple[float, float], step: float) -> list[Exponent]:
    lo, hi = float(rng[0]), float(rng[1])
    vals = []
    k = 0
    while True:
        v = lo + k * step
        if v > hi + EPS_CMP:
            break
        vals.append(Exponent(min(v, hi)))
        k += 1
    return vals


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
    GRID_MAX_POINTS raises ValueError.  ``threads`` is accepted for
    compatibility; classification is pure Python under the GIL, so the grid
    is evaluated serially.
    """
    check_threads(threads)
    if step <= 0:
        raise ValueError("step must be positive")
    r = Exponent.of(r)
    lens = [_lattice_len(rng, step) for rng in (p_range, q_range)]
    if not all(lens):
        return []
    extra = 1 if include_infinite else 0
    if (lens[0] + extra) * (lens[1] + extra) > GRID_MAX_POINTS:
        raise ValueError(f"grid exceeds the cap of {GRID_MAX_POINTS} points; use a larger step")
    ps = _lattice(p_range, step) + [INF] * extra
    qs = _lattice(q_range, step) + [INF] * extra
    return [classify(ExponentTriple(p, q, r)) for p in ps for q in qs]


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
    n_exh: int = DEFAULT_N_EXH,
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
                    rep = hadamard_witness(t, C, n_exh=n_exh)
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
        res = quotient_lower_bound_search(t, n, dim, budget, seed, n_exh=n_exh)
        best_quotient = res.quotient
        checks.append(
            WitnessCheck(
                "search",
                float(budget),
                True,
                {"best_quotient": res.quotient, "certified": res.certified},
            )
        )
    return CrossValidation(cls, tuple(checks), best_quotient)
