#!/usr/bin/env python3
"""Unconditionality quotients: exact enumeration and seeded search.

A quotient is a certified lower bound on the constant any unconditional
action must admit.  Exhaustive subset maxima walk all 2^n subsets in
Gray-code order (one vector update per step), and sign maxima are subset
maxima of the same walk.  The seeded search (``quotient_lower_bound_search``:
seeded random draws, climbed by coordinate ascent, each scored by an exact
quotient) probes family space for large quotients, rediscovering the
orthogonal-row extremals where the theory says the constant is infinite and
staying bounded where it says it is finite.
"""

import numpy as np

from uncond import (
    ExponentTriple,
    Family,
    quotient_lower_bound_search,
    sign_max_norm,
    subset_max_norm,
    sylvester,
    unconditionality_quotient,
)

# Exhaustive subset maxima, two small stories:
fam = Family.of([[1, 0], [0, 1]])
res = subset_max_norm(fam, 2)
print(f"orthonormal pair, q=2: max {res.value:.6f} at subset {res.argmax_subset:#b}")

fam = Family.of([[1], [-1]])
res = subset_max_norm(fam, 1)
print(f"cancelling pair, q=1:  max {res.value:.6f} at subset {res.argmax_subset:#b} "
      "(full set cancels to 0)")

# The quotient of the 2x2 orthogonal rows under (inf, 2, 2):
t = ExponentTriple.of("inf", 2, 2)
fam = sylvester(1)
qres = unconditionality_quotient(fam, fam, t)
print(f"\n2x2 rows at {t}: quotient {qres.quotient:.12f} "
      f"= {qres.numerator:.6f} / {qres.denominator:.6f}")

# Seeded search over random families.  At (inf, 2, 2) the constant is
# unbounded and the search promptly finds the sqrt(2) extremal or better;
# at (2, 2, 2) preservation holds and everything stays below 2 * 1.8.
for p, q, r in (("inf", 2, 2), (2, 2, 2), (3, 3, 3)):
    t = ExponentTriple.of(p, q, r)
    best = quotient_lower_bound_search(t, n=3, dim=4, budget=150, seed=42)
    print(f"search at ({p}, {q}, {r}): best quotient {best.quotient:.6f}")

# Larger families: 2^20 subsets, or 2^19 sign patterns, in a fraction of a
# second.  A sign maximum is a subset maximum of the rows -2 x_k with the
# all-plus sum always on, so one enumeration gives both.  A subset sum is
# (T + sum_k s_k x_k) / 2, with T the all-plus sum and s_k = +1 on the
# subset, and a signed sum is the difference of two subset sums, so
# subset max <= sign max <= 2 * subset max.
rng = np.random.default_rng(0)
fam = Family(rng.standard_normal((20, 8)))
sub = subset_max_norm(fam, 2.5)
sig = sign_max_norm(fam, 2.5)
assert sub.value <= sig.value <= 2.0 * sub.value
print(f"\nn=20, q=2.5: subset max {sub.value:.6f} at {sub.argmax_subset:#07x}, "
      f"sign max {sig.value:.6f} at {sig.argmax_subset:#07x} (ratio {sig.value / sub.value:.4f})")

# The CLI equivalents:
#   uncond quotient --p inf --q 2 --r 2 --avec family.json
#   uncond search --p 3 --q 3 --r 3 --n 3 --dim 4 --budget 150 --seed 42
