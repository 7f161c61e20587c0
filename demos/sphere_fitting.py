#!/usr/bin/env python3
"""Closed-form sphere fitting versus plane fitting on curved data.

Fits a single sphere and a single plane to points from a circle embedded
in R^5 (exact, then noisy) and to a genuinely curved patch, printing the
recovered parameters and the residuals of each model. The sphere fit is
algebraic: project to the top-(d+1) PCA subspace, solve one linear
system, done — no iteration.
"""
import numpy as np

from spherelets import fit_sphere, project_sphere
from spherelets.datasets import sphere_sample
from spherelets.spca import fit_pieces

rng = np.random.default_rng(0)

print("== exact circle in R^5 ==")
center = np.array([2.0, -1.0, 0.5, 3.0, 0.0])
X = sphere_sample(60, d=1, D=5, center=center, radius=2.0, seed=1)
s, fits = fit_sphere(X, d=1)
print(f"true center {center}")
print(f"fit  center {np.round(s.center, 12)}")
print(f"true radius 2.0, fit radius {s.radius:.15f}")
print(f"geometric mse {fits.residual_sq.mean():.3e}")

print("\n== the same circle, sd 0.05 noise ==")
Xn = X + rng.normal(0, 0.05, X.shape)
s_n, fits_n = fit_sphere(Xn, d=1)
line = fit_pieces(Xn, [0], 1, "pca")  # the 1-dimensional competitor: a line
mse_line = line.residual_sq.mean()
print(f"fit radius {s_n.radius:.4f} (true 2.0), center error {np.linalg.norm(s_n.center - center):.4f}")
print(f"circle mse {fits_n.residual_sq.mean():.5f} vs best-line mse {mse_line:.5f}")

print("\n== projection: closest point on the sphere ==")
x = center + np.array([3.0, 4.0, 0.0, 0.0, 0.0])
p = project_sphere(x, s)
print(f"x at distance {np.linalg.norm(x - s.center):.3f} from center")
print(f"projection lands at distance {np.linalg.norm(p - s.center):.12f} (= radius)")
print(f"closest-point distance {np.linalg.norm(x - p):.6f}")
