#!/usr/bin/env python3
"""Score held-out and displaced-blob inputs with the trained ensemble's
maximum softmax probability and measure the separation."""

import numpy as np

from noisylab import (OodScoreSet, TrainConfig, auroc, co_train, fpr_at_95_tpr,
                      inject_symmetric_noise, make_blobs, split_meta)
from noisylab.data import default_augment_config
from noisylab.metrics import msp_scores_ensemble
from noisylab.oracles import pairwise_auroc

pool = make_blobs(num_classes=4, per_class=250, dim=16, spread=0.6, seed=81)
noisy = inject_symmetric_noise(pool, rate=0.4, seed=82)
train, meta = split_meta(noisy, m=24, seed=83)
test = make_blobs(num_classes=4, per_class=100, dim=16, spread=0.6, seed=84)

cfg = TrainConfig(epochs=16, batch_size=64, warmup_start=4, warmup_full=9,
                  decay_epochs=(10, 14), hidden=48, proj=12,
                  augment=default_augment_config(0.6),
                  net1_seed=91, net2_seed=92, loop_seed=93)
report, params = co_train(train, meta, test, cfg)
print("trained to ensemble accuracy %.3f" % report.summary["last_acc"]["ensemble"])

# displaced blobs: same radius, rotated halfway between the training classes,
# so they sit outside the training clusters without drifting into the
# far-field where a rectifier net extrapolates overconfidently
ood = make_blobs(num_classes=4, per_class=100, dim=16, spread=0.6, seed=85,
                 radius_factor=1.0, angle_frac=0.5)
id_scores = msp_scores_ensemble(params, test.x)
ood_scores = msp_scores_ensemble(params, ood.x)

print("mean max-softmax: held-out %.3f, displaced %.3f"
      % (id_scores.mean(), ood_scores.mean()))
scores = OodScoreSet(id_scores, ood_scores)
print("auroc (rank-based)      : %.4f" % auroc(scores))
print("auroc (pairwise oracle) : %.4f" % pairwise_auroc(id_scores, ood_scores))
print("fpr at 95%% recall       : %.4f" % fpr_at_95_tpr(scores))
