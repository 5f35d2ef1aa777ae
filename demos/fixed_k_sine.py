"""
Landmark posterior on a sine curve with a fixed landmark count
==============================================================

The curve [t, sin(4 pi t)] has two peaks and two valleys, so k = 4
landmarks have four natural places to settle.  This script runs the
random-walk Metropolis sampler and prints the posterior location summaries.
"""

import numpy as np

import curvemark as cm

# build and preprocess the curve: unit length, uniform arc-length samples
curve = cm.rescale_unit_length(cm.sine_curve(200), 200)
grid = cm.EvaluationGrid(200, cm.OPEN)
sample = cm.CurveSample.build([curve], grid)

# model defaults: Gamma(1, 0.01) on the marginalized precision, uniform
# Dirichlet on spacings
spec = cm.ModelSpec(n_eval=200)

cfg = cm.ChainConfig(n_iter=100_000, thin=100, seed=7)
result = cm.run_chain(sample, spec, cfg, k=4)
summary = cm.summarize(result)

print(f"acceptance rate: {summary['accept_rate']:.4f}")
print(f"retained samples: {summary['n_samples']}")
print("posterior mean:  ", np.round(summary["mean"], 4))
print("posterior median:", np.round(summary["median"], 4))
print("MAP sample:      ", np.round(summary["map"], 4))
for j in range(4):
    print(
        f"theta_{j + 1}: 95% interval "
        f"[{summary['ci_lower'][j]:.4f}, {summary['ci_upper'][j]:.4f}]"
    )

# the extrema of sin(4 pi t) sit at t = 1/8, 3/8, 5/8, 7/8; the posterior
# concentrates next to them (not exactly on them: the arc-length
# reparameterization moves the extrema slightly)
print("sine extrema at:", [0.125, 0.375, 0.625, 0.875])

# smoothed marginal of the first landmark
t, dens = cm.marginal_density(result, 0)
peak = t[np.argmax(dens)]
print(f"first landmark density peaks at t = {peak:.4f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax0, ax1) = plt.subplots(1, 2, figsize=(10, 4))
    ax0.plot(curve.points[:, 0], curve.points[:, 1], "k-", lw=1)
    anchors = cm.evaluate_at(curve, np.array(summary["mean"]))
    ax0.plot(anchors[:, 0], anchors[:, 1], "ro", label="posterior mean")
    ax0.set_title("curve and landmark means")
    ax0.legend()
    for j in range(4):
        tj, dj = cm.marginal_density(result, j)
        ax1.plot(tj, dj, label=f"theta_{j + 1}")
    ax1.set_title("marginal landmark densities")
    ax1.set_xlabel("t")
    ax1.legend()
    fig.tight_layout()
    fig.savefig("fixed_k_sine.png", dpi=120)
    print("wrote fixed_k_sine.png")
except ImportError:
    pass
