"""Small dense classifier with a projection head, written with explicit
forward and backward passes so every loss in the pipeline has an exact,
finite-difference-checkable gradient.

Architecture: rectifier MLP trunk (dim -> hidden -> hidden), a linear
classification head (hidden -> num_classes) and a linear projection head
(hidden -> proj). Parameters live in one flat float64 vector so gradients
support addition, scaling and inner products directly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

CHECKPOINT_MAGIC = b"NLCK"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class Architecture:
    dim: int
    hidden: int
    num_classes: int
    proj: int

    def __post_init__(self):
        if min(self.dim, self.hidden, self.num_classes, self.proj) < 1:
            raise ValueError("architecture sizes must be positive")

    def param_shapes(self):
        d, h, c, p = self.dim, self.hidden, self.num_classes, self.proj
        return [
            ("w1", (d, h)), ("b1", (h,)),
            ("w2", (h, h)), ("b2", (h,)),
            ("wc", (h, c)), ("bc", (c,)),
            ("wp", (h, p)), ("bp", (p,)),
        ]

    @property
    def n_params(self) -> int:
        return sum(int(np.prod(s)) for _, s in self.param_shapes())


def _param_views(arch: Architecture, flat: np.ndarray) -> dict:
    """Named views into any vector living in the parameter space."""
    views = {}
    offset = 0
    for name, shape in arch.param_shapes():
        size = int(np.prod(shape))
        views[name] = flat[offset:offset + size].reshape(shape)
        offset += size
    return views


class ModelParams:
    """Flat parameter vector plus named views into each weight matrix.

    Treated as immutable by callers; sgd_step returns a fresh instance.
    """

    __slots__ = ("arch", "flat", "w1", "b1", "w2", "b2", "wc", "bc", "wp", "bp")

    def __init__(self, arch: Architecture, flat: np.ndarray):
        flat = np.ascontiguousarray(flat, dtype=np.float64)
        if flat.shape != (arch.n_params,):
            raise ValueError(
                "flat vector has %s entries, architecture needs %d"
                % (flat.shape, arch.n_params)
            )
        if not np.all(np.isfinite(flat)):
            raise ValueError("non-finite parameter entries")
        object.__setattr__(self, "arch", arch)
        object.__setattr__(self, "flat", flat)
        for name, view in _param_views(arch, flat).items():
            object.__setattr__(self, name, view)

    def __setattr__(self, name, value):
        raise AttributeError("ModelParams is read-only")


def init_params(arch: Architecture, seed: int) -> ModelParams:
    """Zero-mean weights scaled by 1/sqrt(fan_in); biases exactly zero."""
    rng = np.random.default_rng(seed)
    parts = []
    for name, shape in arch.param_shapes():
        if len(shape) == 2:
            parts.append(rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape).ravel())
        else:
            parts.append(np.zeros(shape))
    return ModelParams(arch, np.concatenate(parts))


@dataclass
class BatchForward:
    logits: np.ndarray  # (B, C)
    emb: np.ndarray     # (B, P), pre-normalization
    cache: tuple        # (x, h1p, h1, h2p, h2) for the backward pass


def forward_batch(params: ModelParams, x: np.ndarray, eval_mode: bool = False) -> BatchForward:
    """Run the MLP on a (B, dim) batch.

    This architecture has no train-time-only state, so eval_mode changes
    nothing. The keyword stays because perfbench/worker.py's checkpoint
    check passes eval_mode=True.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.arch.dim:
        raise ValueError("expected inputs of shape (B, %d)" % params.arch.dim)
    h1p = x @ params.w1 + params.b1
    h1 = np.maximum(h1p, 0.0)
    h2p = h1 @ params.w2 + params.b2
    h2 = np.maximum(h2p, 0.0)
    logits = h2 @ params.wc + params.bc
    emb = h2 @ params.wp + params.bp
    return BatchForward(logits, emb, (x, h1p, h1, h2p, h2))


def log_softmax(logits: np.ndarray) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def ce_loss(logits: np.ndarray, target_dist: np.ndarray) -> float:
    """Cross-entropy of a target distribution against softmax(logits)."""
    target_dist = np.asarray(target_dist, dtype=np.float64)
    if abs(target_dist.sum() - 1.0) > 1e-6:
        raise ValueError("target distribution must sum to 1")
    return float(-(target_dist * log_softmax(logits)).sum())


def ce_batch(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-row cross-entropy for (B, C) logits and (B, C) target rows."""
    return -(targets * log_softmax(logits)).sum(axis=1)


def backward_batch(params: ModelParams, cache: tuple, dlogits: np.ndarray,
                   demb: np.ndarray | None = None) -> np.ndarray:
    """Reverse pass from head gradients to the flat parameter gradient.

    dlogits and demb are summed over the batch as given; callers bake any
    1/B normalization and per-sample weights into them.
    """
    x, h1p, h1, h2p, h2 = cache
    gwc = h2.T @ dlogits
    gbc = dlogits.sum(axis=0)
    dh2 = dlogits @ params.wc.T
    if demb is None:
        gwp = np.zeros_like(params.wp)
        gbp = np.zeros_like(params.bp)
    else:
        gwp = h2.T @ demb
        gbp = demb.sum(axis=0)
        dh2 = dh2 + demb @ params.wp.T
    dh2p = dh2 * (h2p > 0)
    gw2 = h1.T @ dh2p
    gb2 = dh2p.sum(axis=0)
    dh1p = (dh2p @ params.w2.T) * (h1p > 0)
    gw1 = x.T @ dh1p
    gb1 = dh1p.sum(axis=0)
    return np.concatenate([
        gw1.ravel(), gb1, gw2.ravel(), gb2,
        gwc.ravel(), gbc, gwp.ravel(), gbp,
    ])


def weighted_ce_loss_grad(params: ModelParams, x: np.ndarray, targets: np.ndarray,
                          weights: np.ndarray) -> tuple[float, np.ndarray]:
    """Value and gradient of (1/B) * sum_i weights_i * CE(f(x_i), targets_i)."""
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    b = x.shape[0]
    out = forward_batch(params, x)
    logp = log_softmax(out.logits)
    per = -(targets * logp).sum(axis=1)
    loss = float((weights * per).sum() / b)
    dlogits = (np.exp(logp) - targets) * (weights / b)[:, None]
    return loss, backward_batch(params, out.cache, dlogits)


def grad_batch(params: ModelParams, x: np.ndarray, targets: np.ndarray,
               weights: np.ndarray) -> np.ndarray:
    """Gradient of the weighted mean cross-entropy over a batch."""
    return weighted_ce_loss_grad(params, x, targets, weights)[1]


def per_sample_grad_dots(params: ModelParams, x: np.ndarray,
                         given_targets: np.ndarray, pseudo_targets: np.ndarray,
                         vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<g_k_i, vec> for every sample, without materializing the gradients.

    Same quantities as dotting oracles.per_sample_grads output with vec:
    each layer's per-sample gradient is an outer product, so its inner
    product with vec's matching block is (activation @ block) . delta.
    """
    x = np.asarray(x, dtype=np.float64)
    b = x.shape[0]
    out = forward_batch(params, x)
    probs = softmax(out.logits)
    v = _param_views(params.arch, np.asarray(vec, dtype=np.float64))
    xc, h1p, h1, h2p, h2 = out.cache
    xv1 = x @ v["w1"]
    h1v2 = h1 @ v["w2"]
    h2vc = h2 @ v["wc"]
    dots = []
    for targets in (given_targets, pseudo_targets):
        dl = (probs - targets) / b
        dh2p = (dl @ params.wc.T) * (h2p > 0)
        dh1p = (dh2p @ params.w2.T) * (h1p > 0)
        dots.append((xv1 * dh1p).sum(axis=1) + dh1p @ v["b1"]
                    + (h1v2 * dh2p).sum(axis=1) + dh2p @ v["b2"]
                    + (h2vc * dl).sum(axis=1) + dl @ v["bc"])
    return dots[0], dots[1]


@dataclass(frozen=True)
class Schedule:
    base_lr: float
    decay_epochs: tuple[int, ...] = ()
    decay_factor: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4

    def lr_at(self, epoch: int) -> float:
        drops = sum(1 for e in self.decay_epochs if epoch >= e)
        return self.base_lr * self.decay_factor ** drops


@dataclass
class OptState:
    velocity: np.ndarray
    step: int
    epoch: int
    schedule: Schedule


def init_opt_state(arch: Architecture, schedule: Schedule) -> OptState:
    return OptState(np.zeros(arch.n_params), 0, 0, schedule)


def sgd_step(params: ModelParams, grad: np.ndarray, state: OptState) -> tuple[ModelParams, OptState]:
    """Momentum SGD with coupled weight decay and stepwise lr decay."""
    sched = state.schedule
    lr = sched.lr_at(state.epoch)
    velocity = sched.momentum * state.velocity + grad + sched.weight_decay * params.flat
    new_params = ModelParams(params.arch, params.flat - lr * velocity)
    return new_params, OptState(velocity, state.step + 1, state.epoch, sched)


def l2_normalize(v: np.ndarray, with_flag: bool = False):
    """Rows scaled to unit norm via v / (||v|| + 1e-12).

    An exactly zero vector maps to the zero vector; with_flag=True also
    returns the mask of such degenerate rows.
    """
    v = np.asarray(v, dtype=np.float64)
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    out = v / (norms + 1e-12)
    if with_flag:
        return out, np.squeeze(norms, axis=-1) == 0.0
    return out


def save_checkpoint(params: ModelParams, path) -> None:
    """Versioned binary layout: magic, version, arch, little-endian float64."""
    arch = params.arch
    header = struct.pack("<4sIIIII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                         arch.dim, arch.hidden, arch.num_classes, arch.proj)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(params.flat.astype("<f8").tobytes())


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as fh:
        header = fh.read(struct.calcsize("<4sIIIII"))
        if len(header) < struct.calcsize("<4sIIIII") or header[:4] != CHECKPOINT_MAGIC:
            raise ValueError("not a parameter checkpoint: bad header")
        magic, version, d, h, c, p = struct.unpack("<4sIIIII", header)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError("not a parameter checkpoint: bad magic %r" % magic)
        if version != CHECKPOINT_VERSION:
            raise ValueError("unsupported checkpoint version %d" % version)
        arch = Architecture(d, h, c, p)
        flat = np.frombuffer(fh.read(), dtype="<f8")
    if flat.size != arch.n_params:
        raise ValueError("checkpoint payload truncated")
    return ModelParams(arch, flat.astype(np.float64))
