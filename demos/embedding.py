#!/usr/bin/env python3
"""Student-t embeddings of iris from spherical versus straight-line distances.

Both runs share the same k-NN graph, bandwidth, and optimizer; the only
difference is whether pairwise distances are measured as arcs on local
best-fit spheres or as Euclidean chords. The bandwidth comes from the
data: the kernel is exp(-D / sigma^2), so sigma^2 is set to the median
distance from a point to its k-th neighbour, and the affinities respond
to the distances. Prints the bandwidth, how far the two affinity
matrices differ, the KL trace endpoints and the 1-NN label agreement of
each embedding, and writes iris_embeddings.png when matplotlib is
available.
"""
import numpy as np

from spherelets import EmbedConfig, affinities, embed, knn_distances
from spherelets.datasets import load_iris
from spherelets.numeric import knn_indices

K = 20

X, labels = load_iris()
print(f"iris: {X.shape[0]} samples, {X.shape[1]} features, 3 classes")

kth = np.linalg.norm(X[knn_indices(X, K)[:, -1]] - X, axis=1)
sigma = float(np.sqrt(np.median(kth)))
print(f"median k-th neighbour distance {np.median(kth):.3f} (k={K}), sigma={sigma:.3f}")

embeddings, P = {}, {}
for mode in ("spherical", "euclidean"):
    cfg = EmbedConfig(m=2, k=K, sigma=sigma, iters=1000, learning_rate=100.0,
                      distance_mode=mode, seed=0)
    P[mode] = affinities(knn_distances(X, d=2, k=cfg.k, mode=mode), cfg.sigma)
    Y, log = embed(P[mode], cfg, return_log=True)
    # each row's nearest other row: its first neighbour, or its second
    # where the first is the row itself (a duplicate of lower index comes first)
    nbr = knn_indices(Y, 2)
    nearest = np.where(nbr[:, 0] == np.arange(len(Y)), nbr[:, 1], nbr[:, 0])
    agree = np.sum(labels[nearest] == labels)
    embeddings[mode] = Y
    print(f"{mode:9s}: KL {log[0][1]:.3f} -> {log[-1][1]:.3f}, "
          f"1-NN label agreement {agree / len(Y):.3f}")

# both modes share one k-NN graph, so their affinities have one support
sph, euc = P["spherical"], P["euclidean"]
assert np.array_equal(sph.rows, euc.rows) and np.array_equal(sph.cols, euc.cols)
dP = np.max(np.abs(sph.vals - euc.vals))
print(f"spherical vs euclidean affinities: max |dP| = {dP:.3e} "
      f"({dP / np.max(euc.vals):.1%} of max P)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping plot")
else:
    fig, axes = plt.subplots(1, 2, figsize=(10, 4.5))
    for ax, mode in zip(axes, ("spherical", "euclidean")):
        Y = embeddings[mode]
        for c, marker in zip(range(3), "o^s"):
            pts = Y[labels == c]
            ax.scatter(pts[:, 0], pts[:, 1], s=14, marker=marker, label=f"class {c}")
        ax.set_title(f"{mode} distances")
        ax.legend()
    fig.tight_layout()
    fig.savefig("iris_embeddings.png", dpi=120)
    print("wrote iris_embeddings.png")
