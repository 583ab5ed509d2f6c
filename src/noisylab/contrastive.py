"""Consensus-gated contrastive learning over a cross-view feature bank.

Positives are defined purely from pseudo-label agreement across the 2N rows
(weak views first, strong views second); observed labels never enter this
module, by interface, and true labels enter only the purity diagnostics. Each
positive pair's attraction is gated by the product of the two sides'
normalized pseudo-label reliabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import ModelParams, backward_batch, forward_batch, l2_normalize
from .util import ConfigError

# below this pre-normalization norm a row is flagged degenerate and zeroed
DEGENERATE_NORM = 1e-6


@dataclass(frozen=True)
class CdclConfig:
    tau: float = 0.2          # softmax temperature on cosine similarities
    range_eps: float = 1e-6   # reliability spread below which gating is uniform

    def __post_init__(self):
        if self.tau <= 0:
            raise ConfigError("tau must be positive")


@dataclass
class FeatureBank:
    z: np.ndarray             # (2N, P) unit rows (or flagged zero rows)
    pseudo_class: np.ndarray  # (2N,) pseudo-label per row, shared across views
    beta: np.ndarray          # (2N,) raw pseudo-label reliability per row
    source_ids: np.ndarray    # (2N,)
    degenerate: np.ndarray    # (2N,) bool

    @property
    def rows(self) -> int:
        return self.z.shape[0]

    def validate(self) -> None:
        norms = np.linalg.norm(self.z, axis=1)
        ok = np.abs(norms - 1.0) <= 1e-9
        ok |= self.degenerate & (norms == 0.0)
        if not ok.all():
            raise ValueError("bank rows must be unit norm or flagged zero rows")
        n = self.rows // 2
        if not (np.array_equal(self.pseudo_class[:n], self.pseudo_class[n:])
                and np.array_equal(self.beta[:n], self.beta[n:])
                and np.array_equal(self.source_ids[:n], self.source_ids[n:])):
            raise ValueError("view blocks disagree on pseudo_class/beta/ids")


def normalize_beta(beta: np.ndarray, range_eps: float = 1e-6) -> np.ndarray:
    """Min-max normalization of the pseudo-label reliabilities to [0, 1].

    A batch with no spread carries no ranking information; the literal
    formula would zero every weight and silently disable the loss, so such
    batches fall back to uniform weight one instead.
    """
    beta = np.asarray(beta, dtype=np.float64)
    lo, hi = beta.min(), beta.max()
    if hi - lo < range_eps:
        return np.ones_like(beta)
    return (beta - lo) / (hi - lo + 1e-8)


def positive_sets(pseudo_class: np.ndarray) -> list[np.ndarray]:
    """P(i) = rows sharing row i's pseudo-label, self excluded."""
    pc = np.asarray(pseudo_class)
    n = len(pc)
    same = pc[:, None] == pc[None, :]
    np.fill_diagonal(same, False)
    return [np.flatnonzero(same[i]) for i in range(n)]


def consensus_weights(beta_norm: np.ndarray, positives: list[np.ndarray]) -> list[np.ndarray]:
    """w_ij = beta_norm_i * beta_norm_j for each j in P(i)."""
    beta_norm = np.asarray(beta_norm, dtype=np.float64)
    return [beta_norm[i] * beta_norm[p] for i, p in enumerate(positives)]


def _bank_from_raw(raw: np.ndarray, pseudo_class: np.ndarray, beta: np.ndarray,
                   source_ids: np.ndarray) -> FeatureBank:
    """The bank of raw (2N, P) embeddings, weak views first: rows normalized,
    degenerate rows flagged and zeroed, per-sample metadata duplicated."""
    z = l2_normalize(raw)
    degenerate = np.linalg.norm(raw, axis=1) < DEGENERATE_NORM
    z[degenerate] = 0.0
    dup = lambda a: np.concatenate([np.asarray(a), np.asarray(a)])
    return FeatureBank(z=z, pseudo_class=dup(pseudo_class), beta=dup(beta),
                       source_ids=dup(source_ids), degenerate=degenerate)


def build_bank(params: ModelParams, weak_x: np.ndarray, strong_x: np.ndarray,
               pseudo_class: np.ndarray, beta: np.ndarray,
               source_ids: np.ndarray | None = None) -> FeatureBank:
    """Embed both views, normalize rows, duplicate per-sample metadata."""
    if source_ids is None:
        source_ids = np.arange(len(pseudo_class))
    raw = forward_batch(params, np.concatenate([weak_x, strong_x])).emb
    return _bank_from_raw(raw, pseudo_class, beta, source_ids)


def _loss_pieces(bank: FeatureBank, cfg: CdclConfig):
    """Shared forward math for the loss and its feature gradient."""
    z = bank.z
    sims = (z @ z.T) / cfg.tau
    np.fill_diagonal(sims, -np.inf)
    row_max = sims.max(axis=1, keepdims=True)
    logp = sims - (row_max + np.log(np.exp(sims - row_max).sum(axis=1, keepdims=True)))
    pos = bank.pseudo_class[:, None] == bank.pseudo_class[None, :]
    np.fill_diagonal(pos, False)
    bnorm = normalize_beta(bank.beta, cfg.range_eps)
    w = np.outer(bnorm, bnorm)
    pos_counts = pos.sum(axis=1)
    valid = pos_counts >= 1
    return logp, pos, w, pos_counts, valid


def cdcl_loss(bank: FeatureBank, cfg: CdclConfig) -> float:
    """Gated InfoNCE over pseudo-label positives, averaged over anchors that
    have at least one positive; zero when no anchor qualifies."""
    logp, pos, w, pos_counts, valid = _loss_pieces(bank, cfg)
    if not valid.any():
        return 0.0
    gated = (w * np.where(pos, logp, 0.0)).sum(axis=1)
    per_anchor = -gated[valid] / pos_counts[valid]
    return float(per_anchor.mean())


def cdcl_feature_grad(bank: FeatureBank, cfg: CdclConfig, y_true: np.ndarray | None = None):
    """Loss value, its gradient w.r.t. the normalized bank rows and, given
    the per-sample true labels, the purity totals of the positives
    (true-label matches, pairs, gated matches, gate mass), each pair gated
    by the product of its two normalized reliabilities; otherwise None."""
    logp, pos, w, pos_counts, valid = _loss_pieces(bank, cfg)
    purity = None
    if y_true is not None:
        y = np.concatenate([np.asarray(y_true), np.asarray(y_true)])
        hit = pos & (y[:, None] == y[None, :])
        purity = (float(hit.sum()), float(pos_counts.sum()),
                  float(w[hit].sum()), float(w[pos].sum()))
    n2 = bank.rows
    if not valid.any():
        return 0.0, np.zeros_like(bank.z), purity
    gated = (w * np.where(pos, logp, 0.0)).sum(axis=1)
    loss = float((-gated[valid] / pos_counts[valid]).mean())
    # d loss / d logp_ij = -a_i * w_ij on positives, a_i = 1/(|V| * |P(i)|)
    a = np.zeros(n2)
    a[valid] = 1.0 / (valid.sum() * pos_counts[valid])
    dlogp = np.where(pos, w, 0.0)
    dlogp *= -a[:, None]
    del w
    # the (2N)^2 temporaries reuse buffers in place: these matrices set the
    # peak memory of a training step at large batch sizes
    softmax_rows = np.exp(logp, out=logp)
    softmax_rows *= dlogp.sum(axis=1, keepdims=True)
    dsims = np.subtract(dlogp, softmax_rows, out=dlogp)
    np.fill_diagonal(dsims, 0.0)
    dz = (dsims + dsims.T) @ bank.z / cfg.tau
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
              cfg: CdclConfig, y_true: np.ndarray | None = None):
    """Loss, its gradient w.r.t. the raw (2N, P) bank embeddings (weak
    views first) and the purity totals of cdcl_feature_grad."""
    bank = _bank_from_raw(raw, pseudo_class, beta, np.arange(len(pseudo_class)))
    loss, dz, purity = cdcl_feature_grad(bank, cfg, y_true)
    return loss, _normalization_backward(raw, dz, bank.degenerate), purity


def cdcl_grad(params: ModelParams, weak_x: np.ndarray, strong_x: np.ndarray,
              pseudo_class: np.ndarray, beta: np.ndarray,
              cfg: CdclConfig) -> tuple[float, np.ndarray]:
    """Loss and flat parameter gradient through both view embeddings."""
    out = forward_batch(params, np.concatenate([weak_x, strong_x]))
    loss, draw, _ = cdcl_head(out.emb, pseudo_class, beta, cfg)
    return loss, backward_batch(params, out.cache, np.zeros_like(out.logits), draw)
