"""Small dense classifier with a projection head, written with explicit
forward and backward passes so every loss in the pipeline has an exact,
finite-difference-checkable gradient.

Architecture: rectifier MLP trunk (dim -> hidden -> hidden), a linear
classification head (hidden -> num_classes) and a linear projection head
(hidden -> proj). Parameters live in one flat float64 vector so gradients
support addition, scaling and inner products directly.

One network or a stack of them: a flat vector of shape lead + (n_params,)
holds one network when lead is () and a stack of networks side by side when
lead is (K,). Every pass, head and step here accepts either, with one
implementation: biases broadcast as b[..., None, :], transposes are .mT and
batch sums run over axis -2, and the inputs may be shared by the stack
((B, dim)) or given per network (lead + (B, dim)). Each net's slice of a
stacked result has the bits of the single-net call with that net's
parameters, because numpy runs the same kernel on each slice; co-training
steps its two networks as one stack this way.

A training run keeps its large per-step arrays in one Buffers workspace,
created once and reused, instead of allocating (and having the allocator
unmap) fresh ones every step. Each array has a role: "x", "h1", "h2",
"logits" and "emb" for the forward, "grad", "dh1" and "dh2" for the
backward, "sgd" for sgd_step's temporary, and the callers' own. Lifetime
rule: an array obtained from a Buffers object, directly or inside a forward,
cache or gradient computed into it, is valid until the next request for the
same role; keep anything needed longer as a copy or a derived array. So
forward_batch(..., row0=k) keeps an earlier forward's first k rows, and
per_sample_grad_dots borrows "dh1" and "dh2" until the next backward. A
stack holds each net's rows as one block, so a forward that later rows will
extend is sized for all of them when it runs (total_rows), or the extension
raises. A forward's blocks of rows are forwards of their own (rows()): a
network step forwards the meta step's held-out rows with its batch, and
backward_batch runs on either block. Without buffers the passes allocate
fresh arrays, with the same bits.

The cross-entropy heads read log-probabilities, not logits: a caller takes
one log_softmax per block of rows (for a stack, for every net at once) and
its exp, and every head that reads those rows, or a subset of them, uses
the same two arrays. ce_grad is the heads' one gradient formula; the meta
step's held-out head, which needs no loss value, calls it alone.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def layout(self) -> tuple:
        """(name, shape, start, stop) of each block of the flat vector."""
        blocks, offset = [], 0
        for name, shape in self.param_shapes():
            size = int(np.prod(shape))
            blocks.append((name, shape, offset, offset + size))
            offset += size
        return tuple(blocks)

    @cached_property
    def n_params(self) -> int:
        return self.layout[-1][3]


def _param_views(arch: Architecture, flat: np.ndarray) -> dict:
    """Named views into any vector (or stack of vectors) living in the
    parameter space."""
    lead = flat.shape[:-1]
    return {name: flat[..., start:stop].reshape(lead + shape)
            for name, shape, start, stop in arch.layout}


def _require_finite(flat: np.ndarray) -> None:
    if not np.isfinite(flat).all():
        raise ValueError("non-finite parameter entries")


class ModelParams:
    """Flat parameter vector plus named views into each weight matrix.

    flat has shape lead + (n_params,): one network, or with lead = (K,) a
    stack of K networks, whose views carry the same leading axis. The
    attributes are fixed, but sgd_step updates flat's entries in place, and
    the views with them: a training run builds one stack and steps it. Keep
    a copy of flat for anything that must outlive the next step.
    """

    __slots__ = ("arch", "flat", "w1", "b1", "w2", "b2", "wc", "bc", "wp", "bp")

    def __init__(self, arch: Architecture, flat: np.ndarray):
        flat = np.ascontiguousarray(flat, dtype=np.float64)
        if flat.shape[-1:] != (arch.n_params,):
            raise ValueError(
                "flat vector has %s entries, architecture needs %d"
                % (flat.shape, arch.n_params)
            )
        _require_finite(flat)
        object.__setattr__(self, "arch", arch)
        object.__setattr__(self, "flat", flat)
        for name, view in _param_views(arch, flat).items():
            object.__setattr__(self, name, view)

    def __setattr__(self, name, value):
        raise AttributeError("ModelParams is read-only")

    def __getitem__(self, k) -> "ModelParams":
        """Network k of a stack (a view of its slice)."""
        return ModelParams(self.arch, self.flat[k])


def stack_params(nets) -> ModelParams:
    """One stack (leading net axis) of networks of one architecture."""
    return ModelParams(nets[0].arch, np.stack([p.flat for p in nets]))


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


class Buffers:
    """Arrays reused across the steps of one run, one per role.

    array(role, shape) hands out a C-contiguous view of the leading entries
    of the role's storage, so a smaller request (the last partial batch)
    computes in the same memory order as a fresh array of its shape; a larger
    request gets fresh storage. Views are memoized by (role, shape): a step
    asks for the same few shapes again and again. The "grad" role's array
    also keeps its named views (grad()), built once until the storage grows.
    """

    def __init__(self):
        self._store = {}
        self._views = {}
        self._named = {}
        self.forward_rows = None  # lead + (rows,) of the last forward_batch here

    def array(self, role: str, shape: tuple) -> np.ndarray:
        view = self._views.get((role, shape))
        if view is None:
            size = math.prod(shape)
            store = self._store.get(role)
            if store is None or store.size < size:
                self._store[role] = store = np.empty(size)
                self._views = {key: v for key, v in self._views.items() if key[0] != role}
                self._named = {key: v for key, v in self._named.items() if key[0] != role}
            view = self._views[(role, shape)] = store[:size].reshape(shape)
        return view

    def grad(self, arch: Architecture, lead: tuple) -> tuple[np.ndarray, dict]:
        """The "grad" role's lead + (n_params,) array and its named parameter
        views (the dict is the same object on every call)."""
        key = ("grad", arch, lead)
        entry = self._named.get(key)
        if entry is None:
            flat = self.array("grad", lead + (arch.n_params,))
            entry = self._named[key] = (flat, _param_views(arch, flat))
        return entry


@dataclass
class BatchForward:
    logits: np.ndarray  # lead + (B, C)
    emb: np.ndarray     # lead + (B, P), pre-normalization
    cache: tuple        # (x, h1, h2) for the backward pass

    def rows(self, sl: slice) -> "BatchForward":
        """The forward of a contiguous block of rows (views, no copy)."""
        return BatchForward(self.logits[..., sl, :], self.emb[..., sl, :],
                            tuple(a[..., sl, :] for a in self.cache))


def forward_batch(params: ModelParams, x: np.ndarray, eval_mode: bool = False,
                  buffers: Buffers | None = None, row0: int = 0,
                  total_rows: int | None = None) -> BatchForward:
    """Run the MLP (or each net of a stack) on a batch of inputs: (B, dim),
    shared by a stack, or lead + (B, dim), one block per net.

    With `buffers`, every array of the result lives there, in arrays of
    total_rows rows per net (default row0 + B), and x's rows go after the
    first row0 rows, which the last forward into the same buffers wrote with
    the same total_rows (else ValueError) and which stay as they are:
    the result covers all row0 + B rows, so one backward pass can run over
    both blocks (a network step's Mixup rows extend its shared forward this
    way). Without buffers, row0 must be 0 and the arrays are fresh.

    This architecture has no train-time-only state, so eval_mode changes
    nothing. The keyword stays because perfbench/worker.py's checkpoint
    check passes eval_mode=True.
    """
    x = np.asarray(x, dtype=np.float64)
    arch = params.arch
    lead = params.flat.shape[:-1]
    if x.ndim not in (2, 2 + len(lead)) or x.shape[-1] != arch.dim:
        raise ValueError("expected inputs of shape (B, %d)" % arch.dim)
    if buffers is None:
        buffers = Buffers()
    n = row0 + x.shape[-2]
    total = n if total_rows is None else total_rows
    if total < n:
        raise ValueError("total_rows %d is below the %d rows written" % (total, n))
    if row0 and buffers.forward_rows != lead + (total,):
        raise ValueError("row0 needs the last forward into buffers to reserve %d rows" % total)
    buffers.forward_rows = lead + (total,)
    rows = tuple(buffers.array(role, lead + (total, width)) for role, width in
                 (("x", arch.dim), ("h1", arch.hidden), ("h2", arch.hidden),
                  ("logits", arch.num_classes), ("emb", arch.proj)))
    x_new, h1_new, h2_new, logits_new, emb_new = (a[..., row0:n, :] for a in rows)
    # h = max(x @ w + b, 0) and the heads, each step in place: the same bits
    # as fresh arrays
    x_new[...] = x
    np.matmul(x, params.w1, out=h1_new)
    h1_new += params.b1[..., None, :]
    np.maximum(h1_new, 0.0, out=h1_new)
    np.matmul(h1_new, params.w2, out=h2_new)
    h2_new += params.b2[..., None, :]
    np.maximum(h2_new, 0.0, out=h2_new)
    np.matmul(h2_new, params.wc, out=logits_new)
    logits_new += params.bc[..., None, :]
    np.matmul(h2_new, params.wp, out=emb_new)
    emb_new += params.bp[..., None, :]
    xs, h1, h2, logits, emb = (a[..., :n, :] if n < total else a for a in rows)
    return BatchForward(logits, emb, (xs, h1, h2))


def log_softmax(logits: np.ndarray) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def backward_batch(params: ModelParams, cache: tuple, dlogits: np.ndarray,
                   demb: np.ndarray | None = None,
                   buffers: Buffers | None = None) -> np.ndarray:
    """Reverse pass from head gradients to the flat parameter gradient (one
    per net of a stack).

    dlogits and demb are summed over the batch as given; callers bake any
    1/B normalization and per-sample weights into them. The rectifier masks
    come from h > 0, which is hp > 0 since h = max(hp, 0). With `buffers`,
    the temporaries and the returned gradient live there.
    """
    x, h1, h2 = cache
    if buffers is None:
        buffers = Buffers()
    arch = params.arch
    lead = params.flat.shape[:-1]
    n = x.shape[-2]
    grad, g = buffers.grad(arch, lead)
    np.matmul(h2.mT, dlogits, out=g["wc"])
    np.add.reduce(dlogits, axis=-2, out=g["bc"])
    dh2 = buffers.array("dh2", lead + (n, arch.hidden))
    dh1 = buffers.array("dh1", lead + (n, arch.hidden))
    np.matmul(dlogits, params.wc.mT, out=dh2)
    if demb is None:
        g["wp"][...] = 0.0
        g["bp"][...] = 0.0
    else:
        np.matmul(h2.mT, demb, out=g["wp"])
        np.add.reduce(demb, axis=-2, out=g["bp"])
        dh2 += np.matmul(demb, params.wp.mT, out=dh1)  # dh1 is free until below
    dh2 *= h2 > 0
    np.matmul(h1.mT, dh2, out=g["w2"])
    np.add.reduce(dh2, axis=-2, out=g["b2"])
    np.matmul(dh2, params.w2.mT, out=dh1)
    dh1 *= h1 > 0
    np.matmul(x.mT, dh1, out=g["w1"])
    np.add.reduce(dh1, axis=-2, out=g["b1"])
    return grad


def weighted_ce_head(logp: np.ndarray, targets: np.ndarray, weights: np.ndarray,
                     probs: np.ndarray | None = None) -> tuple[float | np.ndarray, np.ndarray]:
    """Value of (1/B) * sum_i weights_i * CE(logits_i, targets_i) and its
    gradient w.r.t. the logits (ce_grad), from logp = log_softmax(logits)
    and probs its exp when the caller has it; for a stack, one value per
    net."""
    targets = np.asarray(targets, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    per = -(targets * logp).sum(axis=-1)
    loss = (weights * per).sum(axis=-1) / logp.shape[-2]
    return (loss if loss.ndim else float(loss),
            ce_grad(np.exp(logp) if probs is None else probs, targets, weights))


def ce_grad(probs: np.ndarray, targets: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The gradient of weighted_ce_head's value w.r.t. the logits, from
    their softmax probs: (probs - targets) * weights / B, row by row."""
    return (probs - targets) * (weights / probs.shape[-2])[..., None]


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for matrices m and vectors v with matching leading axes."""
    return np.matmul(m, v[..., None])[..., 0]


def per_sample_grad_dots(params: ModelParams, out: BatchForward,
                         given_targets: np.ndarray, pseudo_targets: np.ndarray,
                         vec: np.ndarray,
                         buffers: Buffers | None = None,
                         probs: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """<g_k_i, vec> for every sample of the cached forward `out` (per net of
    a stack, with one vec each), without materializing the gradients.

    Same quantities as dotting oracles.per_sample_grads output with vec:
    each layer's per-sample gradient is an outer product, so its inner
    product with vec's matching block is (activation @ block) . delta. With
    `buffers`, the (B, hidden) temporaries live in the backward pass's
    "dh1" and "dh2" roles, which are free until the next backward. `probs`
    is softmax(out.logits) when the caller has it.
    """
    x, h1, h2 = out.cache
    arch = params.arch
    lead = params.flat.shape[:-1]
    b = x.shape[-2]
    work = buffers or Buffers()
    xv1, h1v2, prod = work.array("dh1", (3,) + lead + (b, arch.hidden))
    dh2p, dh1p = work.array("dh2", (2,) + lead + (b, arch.hidden))
    if probs is None:
        probs = softmax(out.logits)
    v = _param_views(arch, np.asarray(vec, dtype=np.float64))
    np.matmul(x, v["w1"], out=xv1)
    np.matmul(h1, v["w2"], out=h1v2)
    h2vc = h2 @ v["wc"]
    mask1, mask2 = h1 > 0, h2 > 0
    dots = []
    for targets in (given_targets, pseudo_targets):
        dl = (probs - targets) / b
        np.matmul(dl, params.wc.mT, out=dh2p)
        dh2p *= mask2
        np.matmul(dh2p, params.w2.mT, out=dh1p)
        dh1p *= mask1
        dots.append(np.multiply(xv1, dh1p, out=prod).sum(axis=-1) + _matvec(dh1p, v["b1"])
                    + np.multiply(h1v2, dh2p, out=prod).sum(axis=-1) + _matvec(dh2p, v["b2"])
                    + (h2vc * dl).sum(axis=-1) + _matvec(dl, v["bc"]))
    return dots[0], dots[1]


def sgd_step(params: ModelParams, grad: np.ndarray, velocity: np.ndarray, lr: float,
             momentum: float, weight_decay: float, buffers: Buffers) -> None:
    """Momentum SGD with coupled weight decay, in place (for a network or a
    stack of them): velocity <- momentum * velocity + grad + weight_decay *
    theta, then theta <- theta - lr * velocity, with theta params.flat.

    Each operation is the one a fresh expression would run, in its order, so
    the bits are the same; the one temporary lives in the "sgd" role of
    `buffers`. Raises ModelParams' ValueError if an updated entry is not
    finite.
    """
    flat = params.flat
    work = buffers.array("sgd", flat.shape)
    np.multiply(momentum, velocity, out=velocity)
    velocity += grad
    velocity += np.multiply(weight_decay, flat, out=work)
    flat -= np.multiply(lr, velocity, out=work)
    _require_finite(flat)


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
        _, version, d, h, c, p = struct.unpack("<4sIIIII", header)
        if version != CHECKPOINT_VERSION:
            raise ValueError("unsupported checkpoint version %d" % version)
        arch = Architecture(d, h, c, p)
        flat = np.frombuffer(fh.read(), dtype="<f8")
    if flat.size != arch.n_params:
        raise ValueError("checkpoint payload truncated")
    return ModelParams(arch, flat.astype(np.float64))
