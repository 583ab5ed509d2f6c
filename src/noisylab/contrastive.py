"""Consensus-gated contrastive learning over a cross-view feature bank.

Positives are defined purely from pseudo-label agreement across the 2N rows
(weak views first, strong views second); observed labels never enter this
module, by interface, and true labels enter only the purity diagnostics. Each
positive pair's attraction is gated by the product of the two sides'
normalized pseudo-label reliabilities. Training calls cdcl_head, which
returns the gradient w.r.t. the raw bank embeddings for the network step's
one backward pass; the reference forms (explicit positive sets and weights,
the double loop, the dense form, the parameter gradient) live in oracles.py.

A positive is any other row of the same pseudo-class and each gate b_i * b_j
factors, so the loss value and the purity totals, which only report and never
steer training, come from per-pseudo-class sums of b, b * z and b per true
class in O(2N * K). Only the softmax denominator and the gradient need the
(2N)^2 similarity matrix. The gradient keeps the dense operation order of
oracles.dense_cdcl_feature_grad, bit for bit, in one work matrix reused across
a run's steps (the "cdcl" role of a net.Buffers) and row blocks of it: its
float rounding steers the whole trajectory, and a per-class gradient, equal up
to reassociation, moved an ablation seed enough to flip acceptance criterion
6, whose margin is about 0.005.

For the same reason the similarities stay np.matmul(z, z.T, out=sims). Handing
BLAS a contiguous copy of z.T is about 3x faster at 2N = 512, but it takes a
different kernel path and differs from z @ z.T in the last bits on most banks
(475 of 546 random 16-wide banks), which would move the trajectory.

A stack of banks (one per co-trained network, along a leading axis) runs in
one call: the row normalization, the reliability normalization, the class
counts and purity totals (one bincount, with a net offset on the class
index), the loss and the normalization backward run once for the stack, and
the (2N)^2 passes run net by net in the one work matrix. Each net's class
sums run over its own class count, since padding the class axis changes the
BLAS kernel path and the bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import Buffers, l2_normalize
from .util import ConfigError

# below this pre-normalization norm a row is flagged degenerate and zeroed
DEGENERATE_NORM = 1e-6
# below this spread of a batch's reliabilities the gating is uniform
RANGE_EPS = 1e-6


@dataclass(frozen=True)
class CdclConfig:
    tau: float = 0.2          # softmax temperature on cosine similarities

    def __post_init__(self):
        if not self.tau > 0:  # also rejects NaN
            raise ConfigError("cdcl.tau must be positive")


@dataclass
class FeatureBank:
    """One network's bank, or with a leading net axis one per net of a stack."""

    z: np.ndarray             # (..., 2N, P) unit rows (or flagged zero rows)
    pseudo_class: np.ndarray  # (..., 2N) pseudo-label per row, shared across views
    beta: np.ndarray          # (..., 2N) raw pseudo-label reliability per row
    degenerate: np.ndarray    # (..., 2N) bool

    @property
    def rows(self) -> int:
        return self.z.shape[-2]


def normalize_beta(beta: np.ndarray) -> np.ndarray:
    """Min-max normalization of the pseudo-label reliabilities to [0, 1],
    along the last axis (each net of a stack on its own).

    A batch with no spread (below RANGE_EPS) carries no ranking information;
    the literal formula would zero every weight and silently disable the
    loss, so such batches fall back to uniform weight one instead.
    """
    beta = np.asarray(beta, dtype=np.float64)
    lo = beta.min(axis=-1, keepdims=True)
    spread = beta.max(axis=-1, keepdims=True) - lo
    return np.where(spread < RANGE_EPS, 1.0, (beta - lo) / (spread + 1e-8))


def _bank_from_raw(raw: np.ndarray, pseudo_class: np.ndarray,
                   beta: np.ndarray) -> FeatureBank:
    """The bank of raw (..., 2N, P) embeddings, weak views first: rows
    normalized, degenerate rows flagged and zeroed, per-sample metadata
    duplicated."""
    z = l2_normalize(raw)
    degenerate = np.linalg.norm(raw, axis=-1) < DEGENERATE_NORM
    z[degenerate] = 0.0
    dup = lambda a: np.concatenate([a, a], axis=-1)
    return FeatureBank(z=z, pseudo_class=dup(np.asarray(pseudo_class)),
                       beta=dup(np.asarray(beta)), degenerate=degenerate)


_BLOCK = 64  # rows per block of the (2N)^2 passes that need a second matrix


def _symmetrize(m: np.ndarray) -> None:
    """m += m.T in place, block by block (each entry is m_ij + m_ji)."""
    n = m.shape[0]
    for i in range(0, n, _BLOCK):
        for j in range(i, n, _BLOCK):
            rows, cols = slice(i, i + _BLOCK), slice(j, j + _BLOCK)
            t = m[rows, cols] + m[cols, rows].T
            m[rows, cols] = t
            if j > i:
                m[cols, rows] = t.T


def _positive_sums(z, bnorm, member, off, own):
    """Per row of each net, the sums over its positives of b_j and of
    b_j * z_i.z_j, from per-pseudo-class sums (a class sum minus row i's own
    term). Each net's class sums run over its own classes only: padding the
    class axis to a shared count changes the BLAS kernel's blocking and, on
    many banks, the bits of the sums."""
    n_cls = member.shape[1]
    b_sums = np.zeros((len(z), n_cls))
    bz = bnorm[..., None] * z
    bz_sums = np.zeros((len(z), n_cls, z.shape[-1]))
    for k, n_own in enumerate(own):
        np.matmul(member[k, :n_own], bnorm[k], out=b_sums[k, :n_own])
        np.matmul(member[k, :n_own], bz[k], out=bz_sums[k, :n_own])
    bz_pos = bz_sums.reshape(-1, z.shape[-1])[off] - bz
    return b_sums.ravel()[off] - bnorm, np.einsum("...ij,...ij->...i", z, bz_pos)


def _pair_passes(z, gates, a, tau, sims, dz):
    """The (2N)^2 passes of one bank in the work matrix sims: the
    log-softmax of the similarities, then, into dz, the gradient w.r.t. the
    normalized rows in the dense operation order of
    oracles.dense_cdcl_feature_grad, one block of rows at a time,
    overwriting logp with dsims. a holds each anchor's 1/(|V| * |P(i)|).
    Returns each row's log-sum-exp."""
    n2 = len(z)
    blocks = [slice(i, min(i + _BLOCK, n2)) for i in range(0, n2, _BLOCK)]
    # logp_ij = log softmax over j != i of the similarities z_i.z_j / tau
    np.matmul(z, z.T, out=sims)
    sims /= tau
    np.fill_diagonal(sims, -np.inf)
    row_max = sims.max(axis=1, keepdims=True)
    sumexp = np.empty_like(row_max)
    for r in blocks:
        sumexp[r] = np.exp(sims[r] - row_max[r]).sum(axis=1, keepdims=True)
    lse = row_max + np.log(sumexp)
    logp = np.subtract(sims, lse, out=sims)
    for r in blocks:
        # np.where(positive, b_i * b_j, 0.0): each entry sums one product
        # b_i * b_j (same class) or none, so it is exact in any summation order
        dlogp = gates[:, r].T @ gates
        np.fill_diagonal(dlogp[:, r], 0.0)
        dlogp *= -a[r, None]
        softmax_rows = np.exp(logp[r], out=logp[r])
        softmax_rows *= dlogp.sum(axis=1, keepdims=True)
        np.subtract(dlogp, softmax_rows, out=softmax_rows)
    dsims = logp
    np.fill_diagonal(dsims, 0.0)
    _symmetrize(dsims)
    np.matmul(dsims, z, out=dz)
    dz /= tau
    return lse[:, 0]


def cdcl_feature_grad(bank: FeatureBank, cfg: CdclConfig, y_true: np.ndarray | None = None,
                      buffers: Buffers | None = None, out: np.ndarray | None = None):
    """Gated InfoNCE loss (averaged over anchors with a positive, zero when
    none has one), its gradient w.r.t. the normalized bank rows and, given
    the per-sample true labels, the purity totals of the positives
    (true-label matches, pairs, gated matches, gate mass), each pair gated
    by the product of its two normalized reliabilities; otherwise None.

    For a stack of banks (a leading net axis, y_true shared) the losses and
    purity totals get the same axis, and each net's slice has the bits of
    its single-bank call. The gradient is written to `out` when given
    (bank.z's shape). `buffers` holds the (2N)^2 work matrix (a fresh one
    when None), which the nets use one after another; a smaller bank (the
    last partial batch) works in a view of its leading entries, C-contiguous
    at its own size, so the row reductions run in the same order as on a
    fresh matrix.
    """
    stacked = bank.z.ndim == 3
    lift = (lambda a: a) if stacked else (lambda a: a[None])
    z, cls = lift(bank.z), lift(np.asarray(bank.pseudo_class))
    bnorm = lift(normalize_beta(bank.beta))
    dz = lift(np.empty_like(bank.z) if out is None else out)
    nets, n2 = cls.shape
    sims = (buffers or Buffers()).array("cdcl", (n2, n2))

    # the positives of row i are the other rows of its class, and each gate
    # b_i * b_j factors, so a sum over positives comes from class sums; a net
    # offset on the class index lets one bincount serve the stack
    own = (cls.max(axis=1) + 1).tolist()  # each net's class count
    n_cls = max(own)
    off = cls + np.arange(0, nets * n_cls, n_cls)[:, None]
    member = (cls[:, None, :] == np.arange(n_cls)[:, None]).astype(np.float64)  # (nets, K, 2N)
    pos_counts = np.bincount(off.ravel(), minlength=nets * n_cls)[off] - 1
    valid = pos_counts >= 1
    n_valid = valid.sum(axis=1).tolist()
    b_pos, zb = _positive_sums(z, bnorm, member, off, own)
    purity = None
    if y_true is not None:
        y = np.concatenate([np.asarray(y_true), np.asarray(y_true)])
        group = (off * (y.max() + 1) + y).ravel()  # (net, pseudo-class, true class)
        b_hit = np.bincount(group, weights=bnorm.ravel())[group].reshape(nets, n2) - bnorm
        purity = np.empty((nets, 4))
        purity[:, 0] = (np.bincount(group)[group].reshape(nets, n2) - 1).sum(axis=1)
        purity[:, 1] = pos_counts.sum(axis=1)
        purity[:, 2] = (bnorm * b_hit).sum(axis=1)
        purity[:, 3] = (bnorm * b_pos).sum(axis=1)
    # d loss / d logp_ij = -a_i * w_ij on positives, a_i = 1/(|V| * |P(i)|)
    a = np.divide(1.0, np.reshape(n_valid, (nets, 1)) * pos_counts,
                  out=np.zeros((nets, n2)), where=valid)
    gates = np.multiply(member, bnorm[:, None, :], out=member)
    lse = np.zeros((nets, n2))
    for k in range(nets):
        if n_valid[k]:
            lse[k] = _pair_passes(z[k], gates[k, :own[k]], a[k], cfg.tau, sims, dz[k])
        else:
            dz[k] = 0.0
    # sum over positives j of b_j * logp_ij = z_i . (sum_j b_j z_j) / tau - lse_i * b_pos_i
    gated = bnorm * (zb / cfg.tau - lse * b_pos)
    terms = -gated[valid] / pos_counts[valid]
    loss, start = np.zeros(nets), 0
    for k, n in enumerate(n_valid):
        if n:  # the mean of the net's valid rows, as ndarray.mean computes it
            loss[k] = terms[start:start + n].sum() / n
        start += n
    if stacked:
        return loss, dz, purity
    return float(loss[0]), dz[0], None if purity is None else purity[0]


def _normalization_backward(raw: np.ndarray, dz: np.ndarray, degenerate: np.ndarray) -> None:
    """Backward through row-wise v / (||v|| + 1e-12), in place on dz; zero
    on flagged rows."""
    norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    norms[degenerate] = 1.0  # flagged rows get zero grad anyway
    denom = norms + 1e-12
    inner = (raw * dz).sum(axis=-1, keepdims=True)
    dz /= denom
    dz -= raw * (inner / (norms * denom * denom))
    dz[degenerate] = 0.0


def cdcl_head(raw: np.ndarray, pseudo_class: np.ndarray, beta: np.ndarray,
              cfg: CdclConfig, y_true: np.ndarray | None = None,
              buffers: Buffers | None = None, out: np.ndarray | None = None):
    """Loss, its gradient w.r.t. the raw (..., 2N, P) bank embeddings (weak
    views first; written to `out` when given) and the purity totals of
    cdcl_feature_grad, for one network or a stack (pseudo_class and beta
    (..., N), y_true (N,) shared)."""
    bank = _bank_from_raw(raw, pseudo_class, beta)
    loss, draw, purity = cdcl_feature_grad(bank, cfg, y_true, buffers, out)
    _normalization_backward(raw, draw, bank.degenerate)
    return loss, draw, purity
