"""Disentangled per-sample reliabilities for the observed label (alpha) and
the co-network pseudo-label (beta), estimated by bilevel meta-gradients.

The meta-gradient uses the exact chain-rule identity: a one-step virtual
update is affine in the per-sample perturbation weights, so the derivative of
the held-out loss at zero perturbation is -eta * <grad of held-out loss,
per-sample gradient>, with no approximation. oracles.meta_gradients_fd
performs the virtual SGD update literally and central-differences through it
to check this route.

A stack of networks gets one row of sensitivities per net, and disentangle
clamps and normalizes the whole stack in one call, each row along its own
batch axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import MetaSet
from .net import (BatchForward, Buffers, ModelParams, backward_batch, ce_grad, forward_batch,
                  per_sample_grad_dots, softmax)
from .util import ConfigError

# guards the batch normalization of alpha and beta against a mass S = 0
XI = 1e-10


@dataclass
class ReliabilityBatch:
    """(..., B) arrays: one batch, or one row per net of a stack."""
    alpha: np.ndarray  # observed-label reliability, >= 0
    beta: np.ndarray   # pseudo-label reliability, >= 0
    mass: np.ndarray   # (..., 1) S, each batch's clamped meta-gradient mass

    def mass_identity_gap(self) -> float:
        """|sum(alpha+beta) - B*S/(S+XI)|, the largest over a stack's rows."""
        s = self.mass[..., 0]
        lhs = self.alpha.sum(axis=-1) + self.beta.sum(axis=-1)
        return float(np.max(np.abs(lhs - self.alpha.shape[-1] * s / (s + XI))))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    eye = np.eye(num_classes)
    return eye[np.asarray(labels, dtype=np.int64)]


def meta_gradients_closed(params: ModelParams, batch_x: np.ndarray,
                          given_targets: np.ndarray, pseudo_targets: np.ndarray,
                          meta: MetaSet, eta_inner: float,
                          out: BatchForward | None = None,
                          probs: np.ndarray | None = None,
                          meta_out: BatchForward | None = None,
                          meta_probs: np.ndarray | None = None,
                          meta_targets: np.ndarray | None = None,
                          buffers: Buffers | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact derivative of the held-out loss w.r.t. each per-sample weight.

    Returns (e1, e2): the sensitivities of the held-out loss to upweighting
    the observed-label term and the pseudo-label term of each sample, taken
    at zero perturbation through a single virtual SGD step of learning rate
    eta_inner; for a stack of networks (with pseudo_targets per net), one
    row of each per net. `out` is batch_x's forward under params, `probs`
    the softmax of its logits, `meta_out` meta.x's forward under params,
    `meta_probs` the softmax of its logits and `meta_targets` the one-hot
    rows of meta.y, when the caller has them; co_train takes both forwards
    from its step's shared forward and both softmaxes from its one
    log-softmax of that forward's leading rows.

    The held-out rows' head is net.ce_grad on their softmax, since no one
    reads the held-out loss's value. The held-out gradient lives in the
    backward pass's roles of `buffers` (a fresh workspace when None), and
    net.per_sample_grad_dots reads its named views from there (Buffers.grad)
    and borrows the backward's temporaries, which are free until the
    caller's next backward.
    """
    if eta_inner < 0:
        raise ConfigError("eta_inner must be nonnegative")
    if meta.m == 0:
        raise ConfigError("meta set must be nonempty")
    if out is None:
        out = forward_batch(params, batch_x)
    if meta_out is None:
        meta_out = forward_batch(params, meta.x)
    if meta_targets is None:
        meta_targets = one_hot(meta.y, given_targets.shape[1])
    if meta_probs is None:
        meta_probs = softmax(meta_out.logits)
    buffers = buffers or Buffers()
    dlogits = ce_grad(meta_probs, meta_targets, np.ones(meta.m))
    backward_batch(params, meta_out.cache, dlogits, buffers=buffers)
    mgrad = buffers.grad(params.arch, params.flat.shape[:-1])[1]
    d1, d2 = per_sample_grad_dots(params, out, given_targets, pseudo_targets, mgrad,
                                  buffers, probs)
    return -eta_inner * d1, -eta_inner * d2


def disentangle(e1_grads: np.ndarray, e2_grads: np.ndarray) -> ReliabilityBatch:
    """Clamp harmful directions to zero and normalize mass along the batch,
    the last axis of (..., B) meta-gradients.

    raw_k = max(-e_k, 0); alpha_i = raw1_i * B / (S + XI) and likewise beta,
    with S the batch's total raw mass, so sum(alpha + beta) = B * S / (S + XI).
    """
    e1_grads = np.asarray(e1_grads, dtype=np.float64)
    e2_grads = np.asarray(e2_grads, dtype=np.float64)
    if e1_grads.shape != e2_grads.shape:
        raise ValueError("e1 and e2 must have one shape")
    raw1 = np.maximum(-e1_grads, 0.0)
    raw2 = np.maximum(-e2_grads, 0.0)
    mass = raw1.sum(axis=-1, keepdims=True) + raw2.sum(axis=-1, keepdims=True)
    scale = e1_grads.shape[-1] / (mass + XI)
    return ReliabilityBatch(alpha=raw1 * scale, beta=raw2 * scale, mass=mass)
