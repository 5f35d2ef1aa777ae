"""
Landmarks on closed outlines: reference points and cyclic alignment
===================================================================

A closed curve has no natural start, so inference first anchors t = 0 at
the maximal-curvature node of the first outline, shifts the remaining
outlines to their best cyclic offset in SRVF distance, and relabels the
posterior samples by the cyclic rotation closest to the first draw.  The
demo uses half-disc outlines, whose two base corners are sharp features.
"""

import numpy as np

import curvemark as cm

n_eval = 100
grid = cm.EvaluationGrid(n_eval, cm.CLOSED)

# a small sample of similar outlines: a half disc and two variants with a
# corner of the arc cut off
curves = [
    cm.rescale_unit_length(cm.half_circle(120), n_eval),
    cm.rescale_unit_length(cm.cut_half_circle(120, cut=0.15), n_eval),
    cm.rescale_unit_length(cm.cut_half_circle(120, cut=0.25), n_eval),
]
sample = cm.CurveSample.build(curves, grid)

# start-point alignment: afterwards node 0 of the first outline is its
# sharpest corner
sample = cm.align_sample_starts(sample)
print("reference node of first curve:", cm.select_reference_point(sample.curves[0]))

spec = cm.ModelSpec(n_eval=n_eval, topology=cm.CLOSED)
cfg = cm.ChainConfig(n_iter=50_000, thin=50, seed=1)
result = cm.run_chain(sample, spec, cfg, k=4)

# label alignment removes the cyclic relabeling ambiguity before summaries
aligned = cm.align_posterior_samples(result)
summary = cm.summarize(aligned)
print("acceptance rate:", round(summary["accept_rate"], 4))
print("posterior mean: ", np.round(summary["mean"], 4))
print("posterior MAP:  ", np.round(summary["map"], 4))

# the extrinsic mean outline of the aligned sample
mean_curve = cm.extrinsic_mean(sample)
print("extrinsic mean length:", round(cm.polygonal_length(mean_curve), 4))

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    plt.figure(figsize=(5, 5))
    for c in sample.curves:
        pts = np.vstack([c.points, c.points[:1]])
        plt.plot(pts[:, 0], pts[:, 1], lw=1, alpha=0.6)
    anchors = cm.evaluate_at(sample.curves[0], np.array(summary["mean"]))
    plt.plot(anchors[:, 0], anchors[:, 1], "ro", label="landmark means")
    plt.axis("equal")
    plt.legend()
    plt.title("aligned outlines and posterior landmark means")
    plt.tight_layout()
    plt.savefig("closed_curve_alignment.png", dpi=120)
    print("wrote closed_curve_alignment.png")
except ImportError:
    pass
