#!/usr/bin/env python3
"""How total reliability shapes the Mixup interpolation law and the
per-pair gating weight."""

import numpy as np

from noisylab import RamConfig, total_reliability
from noisylab.mixup import DELTA, sample_lambda_batch

cfg = RamConfig()
rng = np.random.default_rng(0)
n = 100_000

print("total reliability clamps alpha+beta into [%.1f, %.1f]:" % (cfg.r_min, cfg.r_max))
for a, b in [(0.0, 0.0), (0.4, 0.6), (2.0, 3.0)]:
    print("  alpha=%.1f beta=%.1f -> r=%.2f" % (a, b, total_reliability(a, b, cfg)))

print("\ninterpolation coefficient under different reliability pairs"
      " (10^5 draws each):")
for r_i, r_j in [(1.0, 1.0), (3.0, 1.0), (0.1, 2.0), (2.0, 0.1)]:
    lam = sample_lambda_batch(np.full(n, r_i), np.full(n, r_j), cfg, rng)
    denom = r_i + r_j + DELTA
    a, b = cfg.gamma * r_i / denom, cfg.gamma * r_j / denom
    print("  r_i=%.1f r_j=%.1f: Beta(%.2f, %.2f)  mean %.3f (analytic %.3f)"
          "  frac>0.5 %.3f" % (r_i, r_j, a, b, lam.mean(), a / (a + b),
                               (lam > 0.5).mean()))

print("\ngating weight takes the stronger endpoint:")
for r_i, r_j in [(0.4, 0.7), (cfg.r_min, cfg.r_min), (2.0, 0.1)]:
    print("  max(%.1f, %.1f) = %.1f" % (r_i, r_j, np.maximum(r_i, r_j)))
print("a pair of two unreliable samples keeps weight r_min = %.1f," % cfg.r_min)
print("so ambiguous mixes contribute little gradient instead of being")
print("renormalized back to full mass.")
