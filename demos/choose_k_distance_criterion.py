"""
Choosing the landmark count with the reconstruction-distance criterion
======================================================================

For each candidate k the fixed-k sampler runs on its own, and the average
cumulative squared reconstruction error d_k^2 over the retained posterior
samples is recorded.  The elbow of the resulting curve marks the point
where extra landmarks stop paying for themselves; on the sine curve that
happens at k = 4.
"""

import numpy as np

import curvemark as cm

curve = cm.rescale_unit_length(cm.sine_curve(200), 100)
sample = cm.CurveSample.build([curve], cm.EvaluationGrid(100, cm.OPEN))
spec = cm.ModelSpec(n_eval=100)

# short chains suffice here: d_k^2 is an average over the whole posterior,
# not a fine location estimate
cfg = cm.ChainConfig(n_iter=20_000, thin=20, seed=3)
table = cm.distance_criterion(sample, spec, range(1, 9), cfg)

print(" k    d_k^2")
for k, d in table:
    bar = "#" * int(60 * d / table[0][1])
    print(f"{k:2d}  {d:9.5f}  {bar}")

ds = dict(table)
drops = {k: ds[k] - ds[k + 1] for k in range(1, 8)}
elbow = max(drops, key=lambda k: drops[k] / max(ds[k + 1], 1e-12))
print(f"\nlargest relative drop ends at k = {elbow + 1}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    ks = [k for k, _ in table]
    vals = [d for _, d in table]
    plt.figure(figsize=(5, 4))
    plt.plot(ks, vals, "o-")
    plt.xlabel("k")
    plt.ylabel("average $d_k^2$")
    plt.title("distance criterion on the sine curve")
    plt.tight_layout()
    plt.savefig("distance_criterion.png", dpi=120)
    print("wrote distance_criterion.png")
except ImportError:
    pass
