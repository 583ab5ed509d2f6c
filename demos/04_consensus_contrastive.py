#!/usr/bin/env python3
"""The consensus-gated contrastive loss on a small cross-view bank, checked
against a scalar double-loop restatement."""

import numpy as np

from noisylab import CdclConfig, normalize_beta
from noisylab.contrastive import cdcl_feature_grad
from noisylab.oracles import consensus_weights, l2_normalize, naive_infonce, positive_sets

cfg = CdclConfig()
rng = np.random.default_rng(5)

half = 6
z = l2_normalize(rng.standard_normal((2 * half, 8)))
pseudo_half = rng.integers(0, 3, half)
beta_half = rng.random(half)
pseudo_class = np.concatenate([pseudo_half, pseudo_half])  # one entry per bank row
beta = np.concatenate([beta_half, beta_half])

positives = positive_sets(pseudo_class)
print("positive set sizes per anchor:", [len(p) for p in positives])

bnorm = normalize_beta(beta)
weights = consensus_weights(bnorm, positives)
print("normalized reliabilities:", np.round(bnorm, 3))
print("anchor 0 pair weights   :", np.round(weights[0], 3))

fast, _, _ = cdcl_feature_grad(z, pseudo_class, beta, cfg)
slow = naive_infonce(z, pseudo_class, beta, cfg.tau)
print("vectorized loss %.12f" % fast)
print("double loop     %.12f" % slow)
print("difference      %.2e" % abs(fast - slow))

# observed labels cannot enter: the module's interface has no label argument
import inspect

from noisylab import contrastive

print("module mentions y_obs anywhere:", "y_obs" in inspect.getsource(contrastive))
