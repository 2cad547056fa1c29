"""Finite-dimensional toolkit for unconditional convergence under coordinatewise multiplication.

The package computes exact unconditionality quotients of finite families in
lp sequence spaces, constructs certified counterexample witnesses (orthogonal
+-1 families and divergent power tails), classifies exponent triples
(p, q, r) into Preserves / NotPreserves / Unknown / NotApplicable, and
numerically probes the elementary inequalities the machinery rests on.
"""

from .classifier import (
    Classification,
    Clause,
    CrossValidation,
    Verdict,
    WitnessCheck,
    classify,
    cross_validate,
    grid_to_csv,
    region_grid,
)
from .errors import InternalInconsistencyError
from .lemma_lab import (
    COMPLEX_SUBSET_BOUND,
    KG_UPPER,
    REAL_SUBSET_BOUND,
    SHARP_COMPLEX_BOUND,
    RatioReport,
    SandwichSweepReport,
    complex_subset_ratio,
    grothendieck_ratio,
    grothendieck_search,
    real_subset_ratio,
    sandwich_sweep,
)
from .seqspace import (
    EPS_CMP,
    EPS_NUM,
    INF,
    Exponent,
    ExponentTriple,
    norm,
    row_norms,
)
from .unconditionality import (
    Family,
    QuotientResult,
    SubsetMaxResult,
    quotient_lower_bound_search,
    sign_max_norm,
    subset_max_norm,
    unconditionality_quotient,
)
from .witness import (
    TailWitness,
    WitnessReport,
    divergent_tail_norm,
    hadamard_witness,
    sylvester,
    tail_q_bound,
    tail_witness,
)

__version__ = "0.1.0"

__all__ = [
    "COMPLEX_SUBSET_BOUND",
    "Classification",
    "Clause",
    "CrossValidation",
    "EPS_CMP",
    "EPS_NUM",
    "Exponent",
    "ExponentTriple",
    "Family",
    "INF",
    "InternalInconsistencyError",
    "KG_UPPER",
    "QuotientResult",
    "REAL_SUBSET_BOUND",
    "RatioReport",
    "SHARP_COMPLEX_BOUND",
    "SandwichSweepReport",
    "SubsetMaxResult",
    "TailWitness",
    "Verdict",
    "WitnessCheck",
    "WitnessReport",
    "classify",
    "complex_subset_ratio",
    "cross_validate",
    "divergent_tail_norm",
    "grid_to_csv",
    "grothendieck_ratio",
    "grothendieck_search",
    "hadamard_witness",
    "norm",
    "quotient_lower_bound_search",
    "real_subset_ratio",
    "region_grid",
    "row_norms",
    "sandwich_sweep",
    "sign_max_norm",
    "subset_max_norm",
    "sylvester",
    "tail_q_bound",
    "tail_witness",
    "unconditionality_quotient",
]
