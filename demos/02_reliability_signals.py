#!/usr/bin/env python3
"""Estimate per-sample reliabilities for observed labels and pseudo-labels
via the bilevel meta-gradient, and verify the exact path against the
literal virtual-update finite-difference oracle."""

import numpy as np

from noisylab import (TrainConfig, co_train, disentangle, inject_symmetric_noise,
                      make_blobs, meta_gradients_closed, split_meta)
from noisylab.data import default_augment_config
from noisylab.net import forward_batch, softmax
from noisylab.oracles import max_rel_error, meta_gradients_fd
from noisylab.reliability import one_hot

pool = make_blobs(4, 150, 4, 0.5, seed=21)
pool = inject_symmetric_noise(pool, 0.4, seed=22)
train, meta = split_meta(pool, 16, seed=23)
test = make_blobs(4, 50, 4, 0.5, seed=24)

# a short warm-up-only run gives the estimator something to work with
cfg = TrainConfig(epochs=6, batch_size=64, warmup_start=6, warmup_full=6,
                  decay_epochs=(), hidden=32, proj=8,
                  augment=default_augment_config(0.5),
                  net1_seed=31, net2_seed=32, loop_seed=33)
_, params = co_train(train, meta, test, cfg)

co_probs = softmax(forward_batch(params[1], train.x).logits)
pseudo = one_hot(co_probs.argmax(axis=1), 4)
given = one_hot(train.y_obs, 4)

e1, e2 = meta_gradients_closed(params[0], train.x, given, pseudo, meta, cfg.lr)
rb = disentangle(e1, e2)

clean = train.y_obs == train.y_true
print("alpha (observed-label reliability):")
print("  clean-labeled samples: mean %.3f" % rb.alpha[clean].mean())
print("  corrupted samples    : mean %.3f" % rb.alpha[~clean].mean())
print("beta (pseudo-label reliability): mean %.3f" % rb.beta.mean())
print("batch mass sum(alpha+beta) = %.6f (batch size %d)"
      % (rb.alpha.sum() + rb.beta.sum(), train.n))

# the exact inner-product path agrees with running the one-step virtual
# update literally and differencing through it
rows = np.arange(8)
e1c, e2c = meta_gradients_closed(params[0], train.x[rows], given[rows],
                                 pseudo[rows], meta, cfg.lr)
e1f, e2f = meta_gradients_fd(params[0], train.x[rows], given[rows],
                             pseudo[rows], meta, cfg.lr)
print("closed vs virtual-update oracle, max rel err: %.2e"
      % max(max_rel_error(e1c, e1f, 1e-10), max_rel_error(e2c, e2f, 1e-10)))
