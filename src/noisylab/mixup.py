"""Reliability-arbitrated Mixup: clamped total reliability, an asymmetric
Beta law for the interpolation coefficient, per-pair gating by the stronger
endpoint's reliability, and the mixed pairs. Their gated cross-entropy is
net.weighted_ce_head; gates are not renormalized, so weak pairs contribute less.

The Beta draw is built from two hand-written Marsaglia-Tsang Gamma samples;
shapes below one use the boosting identity (sample shape+1, then multiply by
U^(1/shape)). numpy's own gamma/beta samplers are deliberately not used.

Pairs for a stack of networks are built in one call with one generator per
net: each generator makes exactly the draws, in the same order, of its
net's single-net call (permutation, then the rejection rounds and boost
draws of the first Gamma sample, then those of the second), while each
rejection round tests all nets' pending draws at once, drawn into one array
from a count of pending draws per generator. The partner gathers of a stack
are flat takes over its rows.
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
    """One mixed pair per row: row k mixes sample k with partner j[k]. For a
    stack of networks every field has a leading net axis."""

    j: np.ndarray    # (..., B) partner
    lam: np.ndarray  # (..., B) interpolation coefficient, weight of sample k
    w: np.ndarray    # (..., B) gating weight
    x: np.ndarray    # (..., B, D) mixed inputs
    y: np.ndarray    # (..., B, C) mixed targets


def total_reliability(alpha, beta, cfg: RamConfig):
    """Clamp(alpha + beta, r_min, r_max); works on scalars and arrays."""
    return np.clip(np.asarray(alpha, dtype=np.float64) + np.asarray(beta, dtype=np.float64),
                   cfg.r_min, cfg.r_max)


def _generators(rng) -> list:
    """One Generator, or a stack's sequence of them, as a list."""
    return [rng] if isinstance(rng, np.random.Generator) else list(rng)


def _draws(rngs: list, counts: list, normal: bool) -> np.ndarray:
    """One array of draws in which generator k fills counts[k] columns,
    after the earlier generators' columns: with `normal`, a row of standard
    normals over a row of uniforms (each generator draws its normals
    first), else one row of uniforms. A generator with no draws is not
    called, so each generator sees only its own draws."""
    n = sum(counts)
    out = np.empty((2 if normal else 1, n))
    lo = 0
    for g, c in zip(rngs, counts):
        if c:
            hi = lo + c
            if normal:
                g.standard_normal(out=out[0, lo:hi])
            g.random(out=out[-1, lo:hi])
            lo = hi
    return out


def gamma_sample(shape, rng) -> np.ndarray:
    """Marsaglia-Tsang Gamma(shape, 1) draws, vectorized over shape.

    rng is one Generator, or a sequence of K of them for a stack of shapes
    (K, B): generator k draws row k with the bits and the stream of
    gamma_sample(shape[k], rng[k]), and each rejection round tests every
    row's pending draws in one pass. Shapes below 1 are boosted: draw
    Gamma(shape+1) and scale by U^(1/shape).

    A round writes every pending draw and keeps the rejected ones pending,
    so a later round overwrites them; the first round, which draws them all,
    writes its draws as they are, and only later rounds index d and c by
    the pending draws. The log-form test runs only on rounds whose squeeze
    test rejects a draw.
    """
    rngs = _generators(rng)
    a = np.asarray(shape, dtype=np.float64).ravel()  # row after row
    # a NaN shape would never be accepted below; both comparisons reject it
    if not np.all((a > 0) & (a < np.inf)):
        raise ValueError("gamma shape must be positive and finite")
    per = a.size // len(rngs)  # the draws of each generator's row
    boost = a < 1.0
    d = np.where(boost, a + 1.0, a) - 1.0 / 3.0
    dc = np.array((d, 1.0 / np.sqrt(9.0 * d)))
    di, ci = dc
    out = np.empty_like(d)
    idx = None  # the draws still pending, in increasing order (None: all)
    counts = [per] * len(rngs)  # of them, each generator's
    # each round draws one normal and one uniform per pending draw; a draw
    # with v <= 0 needs |x| >= 3*sqrt(d) >= 2.45, where the squeeze test
    # fails, and its log(v) is nan or -inf, which fails the full test, so it
    # is rejected without a guard; errstate silences those logs and log(0)
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            x, u = _draws(rngs, counts, normal=True)
            v = (1.0 + ci * x) ** 3
            if idx is None:
                np.multiply(di, v, out=out)
            else:
                out[idx] = di * v
            accept = u < 1.0 - 0.0331 * x ** 4
            if accept.all():
                break
            accept |= np.log(u) < 0.5 * x * x + di * (1.0 - v + np.log(v))
            if accept.all():
                break
            idx = np.flatnonzero(~accept) if idx is None else idx[~accept]
            counts = np.bincount(idx // per, minlength=len(rngs)).tolist()
            di, ci = dc.take(idx, axis=1)
    if boost.any():
        counts = np.count_nonzero(boost.reshape(len(rngs), per), axis=1).tolist()
        out[boost] *= _draws(rngs, counts, normal=False)[0] ** (1.0 / a[boost])
    return out.reshape(np.shape(shape)) if np.ndim(shape) else float(out[0])


def _beta_from_gammas(a_shapes: np.ndarray, b_shapes: np.ndarray, rng) -> np.ndarray:
    ga = gamma_sample(a_shapes, rng)
    gb = gamma_sample(b_shapes, rng)
    total = ga + gb
    # both draws underflowing to 0 give 0.5; clipping keeps draws strictly
    # inside (0, 1) when one of them does
    lam = np.divide(ga, total, out=np.full_like(total, 0.5), where=total > 0)
    return np.clip(lam, 1e-12, 1.0 - 1e-12)


def sample_lambda_batch(r_i: np.ndarray, r_j: np.ndarray, cfg: RamConfig, rng) -> np.ndarray:
    """Interpolation coefficients, one per pair, skewed toward the more
    reliable endpoint: Beta(gamma*r_i/(r_i+r_j+DELTA), gamma*r_j/(...)).
    rng is one Generator, or one per row of a stack (gamma_sample)."""
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
        # a cycle through the fixed points: each takes the previous one's
        # index, the first the last's
        perm[fixed[1:]] = fixed[:-1]
        perm[fixed[0]] = fixed[-1]
    return perm


def build_pairs(batch_x: np.ndarray, reliabilities: np.ndarray,
                refined_targets: np.ndarray, cfg: RamConfig, rng,
                symmetric: bool = False, gate: bool = True) -> MixBatch:
    """One mixed pair per sample, partners drawn as a random permutation.

    For one network: reliabilities (B,), refined_targets (B, C) and one
    Generator. For a stack of K: reliabilities (K, B), refined_targets
    (K, B, C) and K generators, and net k's slice of every field has the
    bits of its single-net call with its own generator, whose stream it
    leaves where that call would. batch_x (B, D) is shared either way.
    symmetric=True replaces the reliability-shaped Beta with the classic
    Beta(gamma, gamma); gate=False forces every gating weight to one.
    """
    batch_x = np.asarray(batch_x, dtype=np.float64)
    refined_targets = np.asarray(refined_targets, dtype=np.float64)
    r = np.asarray(reliabilities, dtype=np.float64)
    b = batch_x.shape[0]
    if b == 0:
        raise ValueError("batch must be nonempty")
    rngs = _generators(rng)
    perms = np.stack([_partner_permutation(b, g) for g in rngs])
    perm = perms.reshape(r.shape)
    # each partner's row among the stack's rows, for flat takes
    partner = (perms + np.arange(0, perms.size, b)[:, None]).ravel()
    r_perm = r.take(partner).reshape(r.shape)
    if symmetric:
        shapes = np.full(r.shape, cfg.gamma)
        lam = _beta_from_gammas(shapes, shapes, rngs)
    else:
        lam = sample_lambda_batch(r, r_perm, cfg, rngs)
    # gating weight: the stronger endpoint's reliability
    w = np.maximum(r, r_perm) if gate else np.ones(r.shape)
    keep, rest = lam[..., None], (1.0 - lam)[..., None]
    y_perm = refined_targets.reshape(-1, refined_targets.shape[-1]).take(partner, axis=0)
    return MixBatch(j=perm, lam=lam, w=w, x=keep * batch_x + rest * batch_x[perm],
                    y=keep * refined_targets + rest * y_perm.reshape(refined_targets.shape))
