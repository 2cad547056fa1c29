"""Coordinatewise multiplication between lp spaces, gated by the exponent condition.

The product map lp x lq -> lr is well-defined and continuous exactly when
1/r <= 1/p + 1/q, in which case ||ax||_r <= ||a||_p ||x||_q.  Triples failing
the condition are rejected by ``holder_bound_check``; the decision engine
treats them separately as NotApplicable.
"""

from __future__ import annotations

from .seqspace import EPS_NUM, ExponentTriple, FinSeq, norm


def multiply(a: FinSeq, x: FinSeq) -> FinSeq:
    """The coordinatewise product (a_k * x_k)_k of two equal-length vectors."""
    if a.ambient_len != x.ambient_len:
        raise ValueError(
            f"ambient length mismatch: {a.ambient_len} vs {x.ambient_len}"
        )
    return FinSeq(a.entries * x.entries)


def holder_bound_check(a: FinSeq, x: FinSeq, t: ExponentTriple) -> bool:
    """Whether ||ax||_r <= ||a||_p ||x||_q holds, with relative slack EPS_NUM.

    True for every input when the triple is valid; this is checked by tests
    rather than assumed.
    """
    t.require_holder_valid()
    prod = multiply(a, x)
    return norm(prod, t.r) <= norm(a, t.p) * norm(x, t.q) * (1.0 + EPS_NUM)

