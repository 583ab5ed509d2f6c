"""Independent brute-force oracles and the self-check suites built on them.

Everything here deliberately avoids the production code paths it checks:
gradients come from central finite differences, per-sample gradients are
materialized rather than dotted, the contrastive loss and positive-pair
purity come from loops over anchors, OOD separation from exhaustive pairwise
counting, and Beta moments from closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import contrastive, mixup, net, reliability
from .data import MetaSet
from .util import ConfigError


def fd_gradient(f, x0: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, coordinate by coordinate."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.empty_like(x0)
    for k in range(x0.size):
        up = x0.copy()
        up[k] += step
        down = x0.copy()
        down[k] -= step
        grad[k] = (f(up) - f(down)) / (2.0 * step)
    return grad


def max_rel_error(a: np.ndarray, b: np.ndarray, zero_floor: float = 1e-8) -> float:
    """Worst per-coordinate relative discrepancy.

    Coordinates where both magnitudes sit below zero_floor are compared
    absolutely against the floor instead, so agreeing near-zero entries do
    not manufacture large ratios.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), zero_floor)
    return float((np.abs(a - b) / denom).max()) if a.size else 0.0


def naive_infonce(z: np.ndarray, pseudo_class: np.ndarray, beta: np.ndarray,
                  tau: float, range_eps: float = 1e-6) -> float:
    """Scalar-math double-loop restatement of the gated contrastive loss."""
    n = len(pseudo_class)
    lo, hi = min(beta), max(beta)
    if hi - lo < range_eps:
        bnorm = [1.0] * n
    else:
        bnorm = [(bv - lo) / (hi - lo + 1e-8) for bv in beta]
    anchor_terms = []
    for i in range(n):
        positives = [j for j in range(n) if j != i and pseudo_class[j] == pseudo_class[i]]
        if not positives:
            continue
        denom = sum(math.exp(float(np.dot(z[i], z[k])) / tau) for k in range(n) if k != i)
        total = 0.0
        for j in positives:
            p = math.exp(float(np.dot(z[i], z[j])) / tau) / denom
            total += bnorm[i] * bnorm[j] * math.log(p)
        anchor_terms.append(-total / len(positives))
    if not anchor_terms:
        return 0.0
    return sum(anchor_terms) / len(anchor_terms)


def pair_match_counts(positives: list[np.ndarray], weights: list[np.ndarray],
                      y_true_rows: np.ndarray) -> tuple[float, float, float, float]:
    """Loop restatement of contrastive.pair_match_counts_fast over explicit
    positive sets and their gating weights."""
    y = np.asarray(y_true_rows)
    matches = pairs = wmatch = wsum = 0.0
    for i, p in enumerate(positives):
        if p.size == 0:
            continue
        same = (y[p] == y[i]).astype(np.float64)
        matches += same.sum()
        pairs += p.size
        wmatch += (weights[i] * same).sum()
        wsum += weights[i].sum()
    return matches, pairs, wmatch, wsum


def _per_sample_from_dlogits(params: net.ModelParams, cache: tuple,
                             dlogits: np.ndarray) -> np.ndarray:
    """Per-sample flat gradients for a loss touching only the logits head."""
    x, h1p, h1, h2p, h2 = cache
    b = x.shape[0]
    arch = params.arch
    dh2p = (dlogits @ params.wc.T) * (h2p > 0)
    dh1p = (dh2p @ params.w2.T) * (h1p > 0)
    gw1 = np.einsum("bd,bh->bdh", x, dh1p).reshape(b, -1)
    gw2 = np.einsum("bi,bj->bij", h1, dh2p).reshape(b, -1)
    gwc = np.einsum("bh,bc->bhc", h2, dlogits).reshape(b, -1)
    zeros_proj = np.zeros((b, arch.hidden * arch.proj + arch.proj))
    return np.concatenate([gw1, dh1p, gw2, dh2p, gwc, dlogits, zeros_proj], axis=1)


def per_sample_grads(params: net.ModelParams, x: np.ndarray, given_targets: np.ndarray,
                     pseudo_targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample gradients of the two cross-entropy terms, scaled by 1/B.

    Returns (g1, g2), each (B, n_params). With per-sample weights eps1, eps2
    the gradient of the weighted composite batch loss is exactly
    sum_i (eps1_i * g1_i + eps2_i * g2_i). Materialized restatement of
    net.per_sample_grad_dots.
    """
    x = np.asarray(x, dtype=np.float64)
    b = x.shape[0]
    out = net.forward_batch(params, x)
    probs = net.softmax(out.logits)
    g1 = _per_sample_from_dlogits(params, out.cache, (probs - given_targets) / b)
    g2 = _per_sample_from_dlogits(params, out.cache, (probs - pseudo_targets) / b)
    return g1, g2


def pairwise_auroc(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """Exhaustive pairwise win counting, ties worth half."""
    wins = 0.0
    for s_id in id_scores:
        for s_ood in ood_scores:
            if s_id > s_ood:
                wins += 1.0
            elif s_id == s_ood:
                wins += 0.5
    return wins / (len(id_scores) * len(ood_scores))


def sweep_fpr_at_tpr(id_scores: np.ndarray, ood_scores: np.ndarray,
                     tpr_target: float = 0.95) -> float:
    """Exhaustive threshold sweep for the FPR at the target ID recall."""
    best = None
    for t in sorted(set(list(id_scores) + list(ood_scores)), reverse=True):
        tpr = sum(1 for s in id_scores if s >= t) / len(id_scores)
        if tpr >= tpr_target:
            best = sum(1 for s in ood_scores if s >= t) / len(ood_scores)
            break
    return 1.0 if best is None else best


def beta_mean_var(a: float, b: float) -> tuple[float, float]:
    """Analytic mean and variance of Beta(a, b)."""
    mean = a / (a + b)
    var = a * b / ((a + b) ** 2 * (a + b + 1.0))
    return mean, var


def beta_central_moment4(a: float, b: float) -> float:
    """Analytic fourth central moment via the excess kurtosis closed form."""
    _, var = beta_mean_var(a, b)
    excess = (6.0 * ((a - b) ** 2 * (a + b + 1.0) - a * b * (a + b + 2.0))
              / (a * b * (a + b + 2.0) * (a + b + 3.0)))
    return (excess + 3.0) * var ** 2


@dataclass
class CheckResult:
    name: str
    tolerance: float
    observed: float
    passed: bool

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return "[%s] %-42s observed=%.3e tol=%.3e" % (flag, self.name, self.observed, self.tolerance)


def _check(name: str, observed: float, tol: float) -> CheckResult:
    return CheckResult(name, tol, observed, bool(observed < tol))


def _random_fixture(seed: int):
    rng = np.random.default_rng(seed)
    arch = net.Architecture(dim=3, hidden=4, num_classes=2, proj=3)
    params = net.ModelParams(arch, 0.4 * rng.standard_normal(arch.n_params))
    batch_x = rng.standard_normal((4, 3))
    given = reliability.one_hot(rng.integers(0, 2, 4), 2)
    pseudo = reliability.one_hot(rng.integers(0, 2, 4), 2)
    meta = MetaSet(x=rng.standard_normal((8, 3)), y=rng.integers(0, 2, 8),
                   ids=np.arange(8))
    return params, batch_x, given, pseudo, meta


def suite_meta(n_seeds: int = 100) -> list[CheckResult]:
    """Exact meta-gradients vs the literal virtual-update oracle."""
    cfg = reliability.MetaConfig(eta_inner=0.1)
    worst = 0.0
    for seed in range(n_seeds):
        params, batch_x, given, pseudo, meta = _random_fixture(seed)
        closed = reliability.meta_gradients_closed(params, batch_x, given, pseudo, meta, cfg)
        fd = reliability.meta_gradients_fd(params, batch_x, given, pseudo, meta, cfg)
        worst = max(worst,
                    max_rel_error(closed[0], fd[0], zero_floor=1e-10),
                    max_rel_error(closed[1], fd[1], zero_floor=1e-10))
    return [_check("meta_gradients_closed_vs_fd_%dseeds" % n_seeds, worst, 1e-3)]


def suite_losses() -> list[CheckResult]:
    """Finite-difference checks of every loss gradient on a small fixture."""
    rng = np.random.default_rng(7)
    arch = net.Architecture(dim=3, hidden=4, num_classes=2, proj=3)
    params = net.ModelParams(arch, 0.4 * rng.standard_normal(arch.n_params))
    x = rng.standard_normal((4, 3))
    targets = reliability.one_hot(rng.integers(0, 2, 4), 2)
    weights = rng.random(4) + 0.5
    results = []

    def fd_vs(name, value_fn, grad, tol=1e-5):
        fd = fd_gradient(lambda flat: value_fn(net.ModelParams(arch, flat)), params.flat)
        results.append(_check(name, max_rel_error(fd, grad), tol))

    loss, grad = net.weighted_ce_loss_grad(params, x, targets, weights)
    fd_vs("weighted_ce_gradient", lambda p: net.weighted_ce_loss_grad(p, x, targets, weights)[0], grad)

    ram_cfg = mixup.RamConfig()
    r = rng.random(4) * 1.5 + 0.2
    pairs = mixup.build_pairs(x, r, targets.astype(float), ram_cfg, np.random.default_rng(3))
    _, gram = mixup.ram_loss_grad(params, pairs)
    fd_vs("mixup_loss_gradient", lambda p: mixup.ram_loss(p, pairs), gram)

    cd_cfg = contrastive.CdclConfig()
    strong = rng.standard_normal((4, 3))
    pc = np.array([0, 1, 0, 1])
    beta = rng.random(4)
    _, gcd = contrastive.cdcl_grad(params, x, strong, pc, beta, cd_cfg)
    fd_vs("contrastive_loss_gradient",
          lambda p: contrastive.cdcl_loss(contrastive.build_bank(p, x, strong, pc, beta), cd_cfg),
          gcd)
    return results


def suite_cdcl(n_seeds: int = 20) -> list[CheckResult]:
    """Vectorized contrastive loss vs the scalar double-loop restatement."""
    cfg = contrastive.CdclConfig()
    worst = 0.0
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        n2 = int(rng.integers(2, 17)) * 2
        z = net.l2_normalize(rng.standard_normal((n2, 5)))
        pc_half = rng.integers(0, 3, n2 // 2)
        beta_half = rng.random(n2 // 2)
        bank = contrastive.FeatureBank(
            z=z, pseudo_class=np.concatenate([pc_half, pc_half]),
            beta=np.concatenate([beta_half, beta_half]),
            source_ids=np.concatenate([np.arange(n2 // 2)] * 2),
            degenerate=np.zeros(n2, dtype=bool))
        fast = contrastive.cdcl_loss(bank, cfg)
        slow = naive_infonce(bank.z, bank.pseudo_class, bank.beta, cfg.tau, cfg.range_eps)
        worst = max(worst, abs(fast - slow))
    return [_check("contrastive_vs_double_loop_%dbanks" % n_seeds, worst, 1e-10)]


def suite_beta(n_draws: int = 100_000) -> list[CheckResult]:
    """Sampler moments vs analytic Beta moments, in standard-error units."""
    ram_cfg = mixup.RamConfig()
    results = []
    for r_i, r_j in [(1.0, 1.0), (3.0, 1.0), (0.1, 2.0)]:
        rng = np.random.default_rng(1234)
        draws = mixup.sample_lambda_batch(np.full(n_draws, r_i), np.full(n_draws, r_j),
                                          ram_cfg, rng)
        denom = r_i + r_j + ram_cfg.delta
        a, b = ram_cfg.gamma * r_i / denom, ram_cfg.gamma * r_j / denom
        mean, var = beta_mean_var(a, b)
        mu4 = beta_central_moment4(a, b)
        se_mean = math.sqrt(var / n_draws)
        se_var = math.sqrt(max(mu4 - var ** 2, 0.0) / n_draws)
        z_mean = abs(draws.mean() - mean) / se_mean
        z_var = abs(draws.var() - var) / se_var
        tag = "r%.1f_r%.1f" % (r_i, r_j)
        results.append(_check("beta_mean_%s_stderr_units" % tag, z_mean, 4.0))
        results.append(_check("beta_var_%s_stderr_units" % tag, z_var, 4.0))
    return results


def suite_auroc(n_seeds: int = 25) -> list[CheckResult]:
    """Rank-based separation scores vs exhaustive pairwise counting."""
    from .metrics import OodScoreSet, auroc, fpr_at_95_tpr

    worst_auroc = worst_fpr = 0.0
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        id_scores = np.round(rng.random(30), 2)  # rounding forces ties
        ood_scores = np.round(rng.random(25) * 0.9, 2)
        scores = OodScoreSet(id_scores, ood_scores)
        worst_auroc = max(worst_auroc, abs(auroc(scores) - pairwise_auroc(id_scores, ood_scores)))
        worst_fpr = max(worst_fpr, abs(fpr_at_95_tpr(scores) - sweep_fpr_at_tpr(id_scores, ood_scores)))
    return [_check("auroc_vs_pairwise_%dsets" % n_seeds, worst_auroc, 1e-12),
            _check("fpr95_vs_sweep_%dsets" % n_seeds, worst_fpr, 1e-12)]


SUITES = {
    "meta": suite_meta,
    "losses": suite_losses,
    "cdcl": suite_cdcl,
    "beta": suite_beta,
    "auroc": suite_auroc,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        results = []
        for key in sorted(SUITES):
            results.extend(SUITES[key]())
        return results
    if name not in SUITES:
        raise ConfigError("unknown oracle suite %r (choose from %s, all)"
                          % (name, ", ".join(sorted(SUITES))))
    return SUITES[name]()
