"""
Inferring the landmark count with the birth-death sampler
=========================================================

When k is unknown, a shifted Poisson prior k = k_min + Poisson(lambda)
regularizes the landmark count and a reversible-jump chain explores
(k, theta) jointly.  Small lambda keeps the posterior of k at the
parsimonious value the distance criterion picks (4 for the sine curve);
growing lambda drags the posterior toward larger counts.
"""

import numpy as np

import curvemark as cm

curve = cm.rescale_unit_length(cm.sine_curve(200), 100)
sample = cm.CurveSample.build([curve], cm.EvaluationGrid(100, cm.OPEN))

cfg = cm.ChainConfig(n_iter=50_000, thin=25, seed=11)

print("lambda    mode k   mean k   posterior k counts")
for lam in (1e-6, 1e-5, 0.1, 1.0):
    spec = cm.ModelSpec(n_eval=100, lam=lam)
    res = cm.run_rjmcmc(sample, spec, cfg)
    counts = res.k_counts()
    mode = max(counts, key=counts.get)
    print(f"{lam:7.0e}   {mode:4d}   {res.ks.mean():7.3f}   {counts}")

# location inference at the modal dimension
spec = cm.ModelSpec(n_eval=100, lam=1e-6)
res = cm.run_rjmcmc(sample, spec, cfg)
modal = res.select_k(4)
summary = cm.summarize(modal)
print("\nposterior mean at k = 4:", np.round(summary["mean"], 4))
