#!/usr/bin/env python3
"""Defeat any prescribed constant with orthogonal +-1 families.

Where 1/2 + 1/r > 1/p + 1/min(2,q), no constant C can bound the quotient

    ||sum_k a_k x_k||_r / (max_k ||a_k||_p * max_F ||sum_F x_k||_q):

take the 2^n rows of the doubling construction H(2m) = [[H, H], [H, -H]] as
both multipliers and summands.  Their coordinatewise squares are all ones,
so the product sum is the constant vector 2^n and the numerator is exactly
2^(n(1+1/r)), while orthogonality caps every subset sum at 2^(n(1/2+1/q'')).
The numerator's exponent grows strictly faster, so some finite n wins.
"""

import numpy as np

from uncond import ExponentTriple, hadamard_witness, subset_max_norm, sylvester

t = ExponentTriple.of("inf", 2, 2)

print(f"triple {t}: escalating constants")
print("-" * 72)
for C in (1, 10, 100, 1e6):
    rep = hadamard_witness(t, C)
    certified = 2.0 ** rep.certified_ratio_log2
    line = (f"  C = {C:>9g}: n = {rep.n:>2}, family of {rep.family_size:>4} rows, "
            f"certified quotient {certified:#.5g}")
    if rep.exhaustive_quotient is not None:
        line += f", exhaustive check {rep.exhaustive_quotient:.6f}"
    print(line)

# Look inside the smallest witness: the 2x2 case against C = 1.
rep = hadamard_witness(t, 1.0)
fam = rep.family
print(f"\nthe n = 1 family (rows of the 2x2 matrix): {fam.matrix.tolist()}")
prod = (fam.matrix * fam.matrix).sum(axis=0)
print(f"coordinatewise product sum: {prod.tolist()}  (constant 2^n, exactly)")

# The subset-sum cap from orthogonality, checked exhaustively at n = 3:
fam3 = sylvester(3)
for q in (1.0, 1.5, 2.0, 4.0):
    rq2 = max(0.5, 1.0 / q)
    bound = 2.0 ** (3 * (0.5 + rq2))
    res = subset_max_norm(fam3, q)
    print(f"  n=3, q={q:<3}: exhaustive subset max {res.value:9.4f} <= bound {bound:9.4f}")

# Row orthogonality, checked exactly in integer arithmetic:
E = fam3.matrix.astype(np.int64)
assert np.array_equal(E @ E.T, 8 * np.eye(8, dtype=np.int64))
print("\n8x8 row orthogonality: exact")

# The CLI equivalent:
#   uncond witness-hadamard --p inf --q 2 --r 2 --C 10
