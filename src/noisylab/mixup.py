"""Reliability-arbitrated Mixup: clamped total reliability, an asymmetric
Beta law for the interpolation coefficient, per-pair gating by the stronger
endpoint's reliability, and the mixed pairs. Their gated cross-entropy is
net.weighted_ce_head; gates are not renormalized, so weak pairs contribute less.

The Beta draw is built from two hand-written Marsaglia-Tsang Gamma samples;
shapes below one use the boosting identity (sample shape+1, then multiply by
U^(1/shape)). numpy's own gamma/beta samplers are deliberately not used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import ConfigError

# guards the Beta shape parameters' denominator r_i + r_j
DELTA = 1e-8


@dataclass(frozen=True)
class RamConfig:
    gamma: float = 4.0      # baseline Beta concentration
    r_min: float = 0.1
    r_max: float = 2.0

    def __post_init__(self):
        for name in ("gamma", "r_min"):
            if not getattr(self, name) > 0:  # also rejects NaN
                raise ConfigError("ram.%s must be positive" % name)
        if not self.r_max > self.r_min:
            raise ConfigError("ram.r_max must exceed ram.r_min")


@dataclass(frozen=True)
class MixBatch:
    """One mixed pair per row: row k mixes sample k with partner j[k]."""

    j: np.ndarray    # (B,) partner
    lam: np.ndarray  # (B,) interpolation coefficient, weight of sample k
    w: np.ndarray    # (B,) gating weight
    x: np.ndarray    # (B, D) mixed inputs
    y: np.ndarray    # (B, C) mixed targets


def total_reliability(alpha, beta, cfg: RamConfig):
    """Clamp(alpha + beta, r_min, r_max); works on scalars and arrays."""
    return np.clip(np.asarray(alpha, dtype=np.float64) + np.asarray(beta, dtype=np.float64),
                   cfg.r_min, cfg.r_max)


def gamma_sample(shape, rng: np.random.Generator) -> np.ndarray:
    """Marsaglia-Tsang Gamma(shape, 1) draws, vectorized over shape.

    Shapes below 1 are boosted: draw Gamma(shape+1) and scale by U^(1/shape).
    """
    a = np.atleast_1d(np.asarray(shape, dtype=np.float64))
    # a NaN shape would never be accepted below; both comparisons reject it
    if not np.all((a > 0) & (a < np.inf)):
        raise ValueError("gamma shape must be positive and finite")
    boost = a < 1.0
    d = np.where(boost, a + 1.0, a) - 1.0 / 3.0
    dc = np.array((d, 1.0 / np.sqrt(9.0 * d)))
    di, ci = dc
    out = np.empty_like(d)
    idx = np.arange(d.size)  # the draws still pending, in increasing order
    # each round draws one normal and one uniform per pending draw; a draw
    # with v <= 0 needs |x| >= 3*sqrt(d) >= 2.45, where the squeeze test
    # fails, and its log(v) is nan or -inf, which fails the full test, so it
    # is rejected without a guard; errstate silences those logs and log(0)
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            x = rng.standard_normal(idx.size)
            u = rng.random(idx.size)
            v = (1.0 + ci * x) ** 3
            accept = ((u < 1.0 - 0.0331 * x ** 4)
                      | (np.log(u) < 0.5 * x * x + di * (1.0 - v + np.log(v))))
            out[idx[accept]] = (di * v)[accept]
            idx = idx[~accept]
            if not idx.size:
                break
            di, ci = dc.take(idx, axis=1)
    if boost.any():
        u2 = rng.random(int(boost.sum()))
        out[boost] *= u2 ** (1.0 / a[boost])
    return out if np.ndim(shape) else float(out[0])


def _beta_from_gammas(a_shapes: np.ndarray, b_shapes: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    ga = gamma_sample(a_shapes, rng)
    gb = gamma_sample(b_shapes, rng)
    total = ga + gb
    lam = np.where(total > 0, ga / np.where(total > 0, total, 1.0), 0.5)
    # keep draws strictly inside (0, 1) even if a gamma draw underflows
    return np.clip(lam, 1e-12, 1.0 - 1e-12)


def sample_lambda_batch(r_i: np.ndarray, r_j: np.ndarray, cfg: RamConfig,
                        rng: np.random.Generator) -> np.ndarray:
    """Interpolation coefficients, one per pair, skewed toward the more
    reliable endpoint: Beta(gamma*r_i/(r_i+r_j+DELTA), gamma*r_j/(...))."""
    r_i = np.asarray(r_i, dtype=np.float64)
    r_j = np.asarray(r_j, dtype=np.float64)
    denom = r_i + r_j + DELTA
    return _beta_from_gammas(cfg.gamma * r_i / denom, cfg.gamma * r_j / denom, rng)


def _partner_permutation(b: int, rng: np.random.Generator) -> np.ndarray:
    """Random permutation with no fixed points for b >= 2 (self only at b=1)."""
    perm = rng.permutation(b)
    fixed = np.flatnonzero(perm == np.arange(b))
    if b > 1 and fixed.size == 1:
        k = int(fixed[0])
        swap = (k + 1) % b
        perm[k], perm[swap] = perm[swap], perm[k]
    elif fixed.size > 1:
        perm[fixed] = perm[np.roll(fixed, 1)]
    return perm


def build_pairs(batch_x: np.ndarray, reliabilities: np.ndarray,
                refined_targets: np.ndarray, cfg: RamConfig,
                rng: np.random.Generator, symmetric: bool = False,
                gate: bool = True) -> MixBatch:
    """One mixed pair per sample, partners drawn as a random permutation.

    symmetric=True replaces the reliability-shaped Beta with the classic
    Beta(gamma, gamma); gate=False forces every gating weight to one.
    """
    batch_x = np.asarray(batch_x, dtype=np.float64)
    refined_targets = np.asarray(refined_targets, dtype=np.float64)
    r = np.asarray(reliabilities, dtype=np.float64)
    b = batch_x.shape[0]
    if b == 0:
        raise ValueError("batch must be nonempty")
    perm = _partner_permutation(b, rng)
    if symmetric:
        shapes = np.full(b, cfg.gamma)
        lam = _beta_from_gammas(shapes, shapes, rng)
    else:
        lam = sample_lambda_batch(r, r[perm], cfg, rng)
    # gating weight: the stronger endpoint's reliability
    w = np.maximum(r, r[perm]) if gate else np.ones(b)
    mix = lambda a: lam[:, None] * a + (1.0 - lam)[:, None] * a[perm]
    return MixBatch(j=perm, lam=lam, w=w, x=mix(batch_x), y=mix(refined_targets))

