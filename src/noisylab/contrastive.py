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
    z: np.ndarray             # (2N, P) unit rows (or flagged zero rows)
    pseudo_class: np.ndarray  # (2N,) pseudo-label per row, shared across views
    beta: np.ndarray          # (2N,) raw pseudo-label reliability per row
    degenerate: np.ndarray    # (2N,) bool

    @property
    def rows(self) -> int:
        return self.z.shape[0]


def normalize_beta(beta: np.ndarray) -> np.ndarray:
    """Min-max normalization of the pseudo-label reliabilities to [0, 1].

    A batch with no spread (below RANGE_EPS) carries no ranking information;
    the literal formula would zero every weight and silently disable the
    loss, so such batches fall back to uniform weight one instead.
    """
    beta = np.asarray(beta, dtype=np.float64)
    lo, hi = beta.min(), beta.max()
    if hi - lo < RANGE_EPS:
        return np.ones_like(beta)
    return (beta - lo) / (hi - lo + 1e-8)


def _bank_from_raw(raw: np.ndarray, pseudo_class: np.ndarray,
                   beta: np.ndarray) -> FeatureBank:
    """The bank of raw (2N, P) embeddings, weak views first: rows normalized,
    degenerate rows flagged and zeroed, per-sample metadata duplicated."""
    z = l2_normalize(raw)
    degenerate = np.linalg.norm(raw, axis=1) < DEGENERATE_NORM
    z[degenerate] = 0.0
    dup = lambda a: np.concatenate([np.asarray(a), np.asarray(a)])
    return FeatureBank(z=z, pseudo_class=dup(pseudo_class), beta=dup(beta),
                       degenerate=degenerate)


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


def cdcl_feature_grad(bank: FeatureBank, cfg: CdclConfig, y_true: np.ndarray | None = None,
                      buffers: Buffers | None = None):
    """Gated InfoNCE loss (averaged over anchors with a positive, zero when
    none has one), its gradient w.r.t. the normalized bank rows and, given
    the per-sample true labels, the purity totals of the positives
    (true-label matches, pairs, gated matches, gate mass), each pair gated
    by the product of its two normalized reliabilities; otherwise None.
    `buffers` holds the (2N)^2 work matrix (a fresh one when None); a
    smaller bank (the last partial batch) works in a view of its leading
    entries, C-contiguous at its own size, so the row reductions run in the
    same order as on a fresh matrix."""
    z = bank.z
    n2 = bank.rows
    sims = (buffers or Buffers()).array("cdcl", (n2, n2))
    blocks = [slice(i, min(i + _BLOCK, n2)) for i in range(0, n2, _BLOCK)]
    # logp_ij = log softmax over j != i of the similarities z_i.z_j / tau
    np.matmul(z, z.T, out=sims)
    sims /= cfg.tau
    np.fill_diagonal(sims, -np.inf)
    row_max = sims.max(axis=1, keepdims=True)
    sumexp = np.empty_like(row_max)
    for r in blocks:
        sumexp[r] = np.exp(sims[r] - row_max[r]).sum(axis=1, keepdims=True)
    lse = row_max + np.log(sumexp)
    logp = np.subtract(sims, lse, out=sims)

    # per-pseudo-class sums: the positives of row i are the other rows of its
    # class, and each gate b_i * b_j factors, so a sum over positives is a
    # class sum minus row i's own term
    cls = np.asarray(bank.pseudo_class)  # class indices 0..K-1
    member = (cls == np.arange(cls.max() + 1)[:, None]).astype(np.float64)  # (K, 2N)
    bnorm = normalize_beta(bank.beta)
    pos_counts = np.bincount(cls)[cls] - 1
    valid = pos_counts >= 1
    b_pos = (member @ bnorm)[cls] - bnorm  # sum of b_j over the positives of row i
    purity = None
    if y_true is not None:
        y = np.concatenate([np.asarray(y_true), np.asarray(y_true)])
        group = cls * (y.max() + 1) + y  # (pseudo-class, true class)
        b_hit = np.bincount(group, weights=bnorm)[group] - bnorm
        purity = (float((np.bincount(group)[group] - 1).sum()), float(pos_counts.sum()),
                  float((bnorm * b_hit).sum()), float((bnorm * b_pos).sum()))
    if not valid.any():
        return 0.0, np.zeros_like(z), purity
    # sum over positives j of b_j * logp_ij = z_i . (sum_j b_j z_j) / tau - lse_i * b_pos_i
    bz = bnorm[:, None] * z
    bz_pos = (member @ bz)[cls] - bz
    gated = bnorm * (np.einsum("ij,ij->i", z, bz_pos) / cfg.tau - lse[:, 0] * b_pos)
    loss = float((-gated[valid] / pos_counts[valid]).mean())

    # the gradient keeps the dense operation order of oracles.dense_cdcl_feature_grad,
    # one block of rows at a time, overwriting logp with dsims
    # d loss / d logp_ij = -a_i * w_ij on positives, a_i = 1/(|V| * |P(i)|)
    a = np.zeros(n2)
    a[valid] = 1.0 / (valid.sum() * pos_counts[valid])
    gates = member * bnorm
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
    dz = dsims @ z / cfg.tau
    return loss, dz, purity


def _normalization_backward(raw: np.ndarray, dz: np.ndarray,
                            degenerate: np.ndarray) -> np.ndarray:
    """Backward through row-wise v / (||v|| + 1e-12); zero on flagged rows."""
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms = np.where(degenerate[:, None], 1.0, norms)  # flagged rows get zero grad anyway
    denom = norms + 1e-12
    inner = (raw * dz).sum(axis=1, keepdims=True)
    draw = dz / denom - raw * (inner / (norms * denom * denom))
    draw[degenerate] = 0.0
    return draw


def cdcl_head(raw: np.ndarray, pseudo_class: np.ndarray, beta: np.ndarray,
              cfg: CdclConfig, y_true: np.ndarray | None = None,
              buffers: Buffers | None = None):
    """Loss, its gradient w.r.t. the raw (2N, P) bank embeddings (weak
    views first) and the purity totals of cdcl_feature_grad."""
    bank = _bank_from_raw(raw, pseudo_class, beta)
    loss, dz, purity = cdcl_feature_grad(bank, cfg, y_true, buffers)
    return loss, _normalization_backward(raw, dz, bank.degenerate), purity

