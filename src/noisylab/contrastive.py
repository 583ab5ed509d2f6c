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
a run's steps (the "cdcl" role of a net.Buffers), swept once in row blocks
with one block's temporaries in the "cdcl_block" role: its float rounding
steers the whole trajectory, and a per-class gradient, equal up to
reassociation, moved an ablation seed enough to flip acceptance criterion 6,
whose margin is about 0.005.

The similarities are np.matmul(z, np.ascontiguousarray(z.T)): BLAS gemm,
about 3x faster than z @ z.T at 2N = 512, for which numpy calls syrk. The two
kernels agree bit for bit on every 16-wide bank whose 2N is a multiple of 8
(numpy 2.4.6 with scipy-openblas 0.3.31, checked at every 2N from 1 to 300),
as every bank of the shipped configs is; on other sizes they mostly differ
in the last bits, so a batch size not divisible by 4, or a last partial
batch of such a size, follows a trajectory other than the syrk one.
oracles.dense_loss_pieces takes the similarities the same way.

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

from .net import Buffers
from .util import ConfigError

# below this pre-normalization norm a row is flagged degenerate, zeroed and
# given a zero gradient
DEGENERATE_NORM = 1e-6
# below this spread of a batch's reliabilities the gating is uniform
RANGE_EPS = 1e-6


@dataclass(frozen=True)
class CdclConfig:
    tau: float = 0.2          # softmax temperature on cosine similarities

    def __post_init__(self):
        if not self.tau > 0:  # also rejects NaN
            raise ConfigError("cdcl.tau must be positive")


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


_BLOCK = 64  # rows per block of the (2N)^2 sweep


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


def _pair_passes(z, gates, a, tau, sims, block, dz):
    """The (2N)^2 passes of one bank: the similarities into the work matrix
    sims, then one sweep over row blocks. Each block's similarities become
    its log-softmax and then, in place, its rows of d loss / d sims, in the
    dense operation order of oracles.dense_cdcl_feature_grad; each block
    pair whose rows are both final is then added to its transpose (the
    gradient's dsims + dsims.T). block is one row block's workspace, holding
    the sum-of-exps terms and then dlogp. The gradient w.r.t. the normalized
    rows goes into dz; a holds each anchor's 1/(|V| * |P(i)|). Returns each
    row's log-sum-exp."""
    n2 = len(z)
    np.matmul(z, np.ascontiguousarray(z.T), out=sims)
    lse = np.empty(n2)
    for i in range(0, n2, _BLOCK):
        r = slice(i, min(i + _BLOCK, n2))
        s, work = sims[r], block[:r.stop - i]
        # logp_ij = log softmax over j != i of the similarities z_i.z_j / tau
        s /= tau
        np.fill_diagonal(s[:, r], -np.inf)
        row_max = s.max(axis=1, keepdims=True)
        np.exp(np.subtract(s, row_max, out=work), out=work)
        lse[r] = (row_max + np.log(work.sum(axis=1, keepdims=True)))[:, 0]
        logp = np.subtract(s, lse[r, None], out=s)
        # np.where(positive, b_i * b_j, 0.0): each entry sums one product
        # b_i * b_j (same class) or none, so it is exact in any summation order
        dlogp = np.matmul(gates[:, r].T, gates, out=work)
        np.fill_diagonal(dlogp[:, r], 0.0)
        dlogp *= -a[r, None]
        softmax_rows = np.exp(logp, out=logp)
        softmax_rows *= dlogp.sum(axis=1, keepdims=True)
        dsims = np.subtract(dlogp, softmax_rows, out=s)
        np.fill_diagonal(dsims[:, r], 0.0)
        # each entry of a finished block pair becomes m_ij + m_ji
        for j in range(0, i, _BLOCK):
            c = slice(j, j + _BLOCK)
            sims[c, r] += dsims[:, c].T
            dsims[:, c] = sims[c, r].T
        diag = dsims[:, r]
        diag += diag.T  # numpy buffers an operand that overlaps the output
    np.matmul(sims, z, out=dz)
    dz /= tau
    return lse


def cdcl_feature_grad(z: np.ndarray, pseudo_class: np.ndarray, beta: np.ndarray,
                      cfg: CdclConfig, y_true: np.ndarray | None = None,
                      buffers: Buffers | None = None, out: np.ndarray | None = None):
    """Gated InfoNCE loss (averaged over anchors with a positive, zero when
    none has one), its gradient w.r.t. the normalized bank rows and, given
    the per-sample true labels, the purity totals of the positives
    (true-label matches, pairs, gated matches, gate mass), each pair gated
    by the product of its two normalized reliabilities; otherwise None.

    z holds the (2N, P) unit (or degenerate zero) bank rows, pseudo_class and
    beta one pseudo-label and raw reliability per row, y_true (N,) the true
    label of rows i and N + i. For a stack of banks (a leading net axis,
    y_true shared) the losses and purity totals get the same axis, and each
    net's slice has the bits of its single-bank call. The gradient is written
    to `out` when given (z's shape). `buffers` holds the (2N)^2 work matrix
    and the (64, 2N) row-block workspace (fresh ones when None), which the
    nets use one after another; a smaller bank (the last partial batch) works
    in views of their leading entries, C-contiguous at its own size, so the
    row reductions run in the same order as on fresh arrays.
    """
    stacked = z.ndim == 3
    lift = (lambda a: a) if stacked else (lambda a: a[None])
    cls = lift(np.asarray(pseudo_class))
    bnorm = lift(normalize_beta(beta))
    dz = lift(np.empty_like(z) if out is None else out)
    z = lift(z)
    nets, n2 = cls.shape
    buffers = buffers or Buffers()
    sims = buffers.array("cdcl", (n2, n2))
    block = buffers.array("cdcl_block", (min(_BLOCK, n2), n2))

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
            lse[k] = _pair_passes(z[k], gates[k, :own[k]], a[k], cfg.tau, sims, block, dz[k])
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


def _normalization_backward(raw: np.ndarray, norms: np.ndarray, dz: np.ndarray,
                            degenerate: np.ndarray) -> None:
    """Backward through row-wise v / (||v|| + 1e-12), in place on dz, given
    the rows' (..., 1) norms (which it overwrites on flagged rows); zero on
    flagged rows."""
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
    (..., N), shared by a sample's two views; y_true (N,) shared). The rows
    are normalized as oracles.l2_normalize does, from one norm per row that the
    degenerate flag and the normalization backward read too."""
    raw = np.asarray(raw, dtype=np.float64)
    norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    z = raw / (norms + 1e-12)
    degenerate = norms[..., 0] < DEGENERATE_NORM
    z[degenerate] = 0.0
    dup = lambda a: np.concatenate([a, a], axis=-1)
    loss, draw, purity = cdcl_feature_grad(z, dup(np.asarray(pseudo_class)),
                                           dup(np.asarray(beta)), cfg, y_true, buffers, out)
    _normalization_backward(raw, norms, draw, degenerate)
    return loss, draw, purity
