#!/usr/bin/env python3
"""How fast the per-piece error shrinks with piece size.

Carves the Euler spiral into arcs of fixed diameter alpha, fits one line
and one circle per arc, and regresses log mean squared residual on
log alpha. Line pieces decay like alpha^4 (quadratic pointwise error,
squared); circle pieces like alpha^6 (cubic pointwise error) — two extra
orders per halving of scale, which is why sphere pieces cover a curved
manifold with far fewer cells.
"""
import numpy as np

from spherelets.bench import rate_study

alpha_grid = list(np.geomspace(0.05, 0.5, 6))
slopes, records = rate_study(alpha_grid)

print(f"{'alpha':>8} | {'line mse':>10} | {'circle mse':>10}")
for alpha in alpha_grid:
    mean = {
        m: np.mean([r.mse for r in records if r.method == m and np.isclose(r.alpha, alpha)])
        for m in ("pca", "spca")
    }
    print(f"{alpha:8.3f} | {mean['pca']:10.2e} | {mean['spca']:10.2e}")

print(f"\nlog-log slope, line pieces:   {slopes['pca']:.2f}  (theory: 4)")
print(f"log-log slope, circle pieces: {slopes['spca']:.2f}  (theory: 6)")

spca_records = [r for r in records if r.method == "spca"]
alpha_max = max(r.alpha for r in spca_records)
theta = max(r.mse / r.alpha**4 for r in spca_records if r.alpha == alpha_max)
worst = max(r.mse / (theta * r.alpha**4) for r in spca_records)
print(f"\nsingle-constant quartic envelope: theta = {theta:.2e}, "
      f"worst segment at {worst * 100:.1f}% of the bound")
