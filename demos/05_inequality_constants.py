#!/usr/bin/env python3
"""The elementary constants under the hood: 2, 4 (sharp pi), and the sign-pattern bound.

Three inequalities carry the whole quotient machinery:

  real:     sum |x_k|     <= 2 max_F |sum_F x_k|          (2 is attained)
  complex:  sum |z_k|     <= 4 max_F |sum_F z_k|          (pi is sharp)
  vectors:  sum ||x_k||_2 <= K max_s ||sum s_k x_k||_1    (s in {-1,1}^n)

This script measures each ratio on witnesses and random inputs, watches the
roots of unity creep toward pi, and runs the seeded lower-bound search for
the sign-pattern constant K.
"""

import math

import numpy as np

from uncond import (
    Family,
    complex_subset_ratio,
    grothendieck_ratio,
    grothendieck_search,
    real_subset_ratio,
    sandwich_sweep,
)

print("real subset-sum ratio (bound 2)")
for x in ([1, -1], [1, 1], [3, -4, 5]):
    rep = real_subset_ratio(x)
    print(f"  {str(x):<12} ratio {rep.ratio:.4f}  slack {rep.slack:.4f}")

print("\ncomplex subset-sum ratio (bound 4, sharp constant pi)")
rep = complex_subset_ratio([1, 1j, -1, -1j])
print(f"  4th roots of unity: ratio {rep.ratio:.6f} (= 2*sqrt(2))")
for n in (8, 16, 32, 64, 256, 1024):
    z = np.exp(2j * math.pi * np.arange(n) / n)
    rep = complex_subset_ratio(z)
    tag = "certified" if rep.certified else "arc scan"
    print(f"  {n:>5}th roots: ratio {rep.ratio:.9f}  ({tag}; pi = {math.pi:.9f})")

print("\nsign-pattern ratio (lower bounds for the constant K; envelope 1.8)")
pair = grothendieck_ratio(Family.of([[1, 1], [1, -1]]))
print(f"  orthogonal 2x2 rows: ratio {pair.ratio:.9f} (= sqrt(2))")
for n, dim in ((2, 2), (3, 4), (4, 4)):
    rep = grothendieck_search(n, dim, budget=400, seed=7)
    print(f"  search n={n}, dim={dim}: best ratio {rep.ratio:.9f}")

print("\nlp-lq sandwich sweep (violations must be zero)")
sweep = sandwich_sweep(dims=(2, 5, 16), p_q_pairs=((1, 2), (1.5, 3), (2, 4)),
                       trials=500, seed=0)
print(f"  {sweep.violations} violations over {len(sweep.records)} (pair, dim) cells")
for rec in sweep.records[:3]:
    print(f"  p={rec.p}, q={rec.q}, dim={rec.dim}: "
          f"tightest lower slack {rec.min_lower_slack:.4f}, "
          f"upper slack {rec.min_upper_slack:.4f}")

# The CLI equivalents:
#   uncond lemmas --budget 1000 --dim 12 --seed 0
#   uncond grothendieck --n 3 --dim 4 --budget 400 --seed 7
