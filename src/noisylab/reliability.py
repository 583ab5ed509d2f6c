"""Disentangled per-sample reliabilities for the observed label (alpha) and
the co-network pseudo-label (beta), estimated by bilevel meta-gradients.

Two routes compute the same quantity. The production route uses the exact
chain-rule identity: a one-step virtual update is affine in the per-sample
perturbation weights, so the derivative of the held-out loss at zero
perturbation is -eta * <grad of held-out loss, per-sample gradient>, with no
approximation. The oracle route performs the virtual SGD update literally and
central-differences through it; it exists to check the production route and
is never used in training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import MetaSet
from .net import (ModelParams, forward_batch, grad_batch, log_softmax,
                  per_sample_grad_dots)
from .util import ConfigError


@dataclass(frozen=True)
class MetaConfig:
    eta_inner: float          # learning rate of the one-step virtual update
    xi: float = 1e-10         # guards the batch normalization against S = 0
    fd_step: float = 1e-4     # probe size for the finite-difference oracle

    def __post_init__(self):
        if self.eta_inner < 0:
            raise ConfigError("eta_inner must be nonnegative")
        if self.xi <= 0 or self.fd_step <= 0:
            raise ConfigError("xi and fd_step must be positive")


@dataclass
class ReliabilityBatch:
    alpha: np.ndarray  # observed-label reliability, >= 0
    beta: np.ndarray   # pseudo-label reliability, >= 0
    raw1: np.ndarray   # clamped meta-gradients before batch normalization
    raw2: np.ndarray
    ids: np.ndarray

    @property
    def batch_size(self) -> int:
        return len(self.alpha)

    def mass_identity_gap(self, xi: float) -> float:
        """|sum(alpha+beta) - B*S/(S+xi)| with S the total clamped raw mass."""
        s = float(self.raw1.sum() + self.raw2.sum())
        lhs = float(self.alpha.sum() + self.beta.sum())
        return abs(lhs - self.batch_size * s / (s + xi))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    eye = np.eye(num_classes)
    return eye[np.asarray(labels, dtype=np.int64)]


def meta_loss(params: ModelParams, meta: MetaSet, num_classes: int) -> float:
    """Mean cross-entropy on the held-out clean set."""
    out = forward_batch(params, meta.x)
    targets = one_hot(meta.y, num_classes)
    return float(-(targets * log_softmax(out.logits)).sum(axis=1).mean())


def meta_gradients_closed(params: ModelParams, batch_x: np.ndarray,
                          given_targets: np.ndarray, pseudo_targets: np.ndarray,
                          meta: MetaSet, cfg: MetaConfig) -> tuple[np.ndarray, np.ndarray]:
    """Exact derivative of the held-out loss w.r.t. each per-sample weight.

    Returns (e1, e2): the sensitivities of the held-out loss to upweighting
    the observed-label term and the pseudo-label term of each sample, taken
    at zero perturbation through a single virtual SGD step.
    """
    if meta.m == 0:
        raise ConfigError("meta set must be nonempty")
    num_classes = given_targets.shape[1]
    mgrad = grad_batch(params, meta.x, one_hot(meta.y, num_classes), np.ones(meta.m))
    d1, d2 = per_sample_grad_dots(params, batch_x, given_targets, pseudo_targets, mgrad)
    return -cfg.eta_inner * d1, -cfg.eta_inner * d2


def meta_gradients_fd(params: ModelParams, batch_x: np.ndarray,
                      given_targets: np.ndarray, pseudo_targets: np.ndarray,
                      meta: MetaSet, cfg: MetaConfig) -> tuple[np.ndarray, np.ndarray]:
    """Finite-difference oracle: run the virtual update literally.

    For each sample and each of the two loss terms, perturb that weight by
    +/- fd_step, take one plain SGD step (no momentum, no weight decay) on the
    composite weighted batch loss, evaluate the held-out loss at the stepped
    parameters, and central-difference. Independent of the closed form above.
    """
    if meta.m == 0:
        raise ConfigError("meta set must be nonempty")
    batch_x = np.asarray(batch_x, dtype=np.float64)
    b = batch_x.shape[0]
    num_classes = given_targets.shape[1]

    def held_out(flat: np.ndarray) -> float:
        return meta_loss(ModelParams(params.arch, flat), meta, num_classes)

    def virtual_step(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
        g = (grad_batch(params, batch_x, given_targets, w1)
             + grad_batch(params, batch_x, pseudo_targets, w2))
        return params.flat - cfg.eta_inner * g

    h = cfg.fd_step
    results = []
    for targets_idx in (0, 1):
        est = np.empty(b)
        for i in range(b):
            w1 = np.zeros(b)
            w2 = np.zeros(b)
            probe = w1 if targets_idx == 0 else w2
            probe[i] = h
            up = held_out(virtual_step(w1, w2))
            probe[i] = -h
            down = held_out(virtual_step(w1, w2))
            est[i] = (up - down) / (2.0 * h)
        results.append(est)
    return results[0], results[1]


def disentangle(e1_grads: np.ndarray, e2_grads: np.ndarray, cfg: MetaConfig,
                batch_size: int, ids: np.ndarray | None = None) -> ReliabilityBatch:
    """Clamp harmful directions to zero and normalize mass along the batch.

    raw_k = max(-e_k, 0); alpha_i = raw1_i * B / (S + xi) and likewise beta,
    with S the total raw mass, so sum(alpha + beta) = B * S / (S + xi).
    """
    e1_grads = np.asarray(e1_grads, dtype=np.float64)
    e2_grads = np.asarray(e2_grads, dtype=np.float64)
    if len(e1_grads) != batch_size or len(e2_grads) != batch_size:
        raise ValueError("meta-gradient sequences must have length batch_size")
    raw1 = np.maximum(-e1_grads, 0.0)
    raw2 = np.maximum(-e2_grads, 0.0)
    scale = batch_size / (raw1.sum() + raw2.sum() + cfg.xi)
    if ids is None:
        ids = np.arange(batch_size)
    return ReliabilityBatch(alpha=raw1 * scale, beta=raw2 * scale,
                            raw1=raw1, raw2=raw2, ids=np.asarray(ids))
