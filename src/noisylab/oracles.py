"""Independent brute-force oracles, the reference forms of production
quantities, and the self-check suites built on them.

Everything here deliberately avoids the production code paths it checks:
gradients come from central finite differences, the meta-gradient from the
literal virtual SGD update (Ren et al. 2018, "Learning to Reweight
Examples"), per-sample gradients are materialized rather than dotted, the
contrastive loss and positive-pair purity come from loops over explicit
positive sets or dense (2N)^2 masks, OOD separation from exhaustive pairwise
counting, and Beta moments from closed forms. Two exceptions: the dense
contrastive feature gradient repeats production's operation order on fresh
arrays, pinning that gradient bit for bit, and head_grad and cdcl_grad wrap
the production loss heads, which read cached rows only, in their own forward
and backward to check each term alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import contrastive, mixup, net, reliability, trainer
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


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm via v / (||v|| + 1e-12); an exactly zero
    vector maps to the zero vector. contrastive.cdcl_head normalizes its
    bank this way, from norms it also reads for the degenerate flag."""
    v = np.asarray(v, dtype=np.float64)
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / (norms + 1e-12)


def naive_infonce(z: np.ndarray, pseudo_class: np.ndarray, beta: np.ndarray,
                  tau: float) -> float:
    """Scalar-math double-loop restatement of the gated contrastive loss."""
    n = len(pseudo_class)
    lo, hi = min(beta), max(beta)
    if hi - lo < contrastive.RANGE_EPS:
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


def positive_sets(pseudo_class: np.ndarray) -> list[np.ndarray]:
    """P(i) = rows sharing row i's pseudo-label, self excluded."""
    pc = np.asarray(pseudo_class)
    same = pc[:, None] == pc[None, :]
    np.fill_diagonal(same, False)
    return [np.flatnonzero(row) for row in same]


def consensus_weights(beta_norm: np.ndarray, positives: list[np.ndarray]) -> list[np.ndarray]:
    """w_ij = beta_norm_i * beta_norm_j for each j in P(i)."""
    beta_norm = np.asarray(beta_norm, dtype=np.float64)
    return [beta_norm[i] * beta_norm[p] for i, p in enumerate(positives)]


def pair_match_counts(positives: list[np.ndarray], weights: list[np.ndarray],
                      y_true_rows: np.ndarray) -> tuple[float, float, float, float]:
    """Loop restatement of the purity totals of contrastive.cdcl_feature_grad
    over explicit positive sets and their gating weights."""
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


def dense_loss_pieces(z: np.ndarray, pseudo_class: np.ndarray, beta: np.ndarray,
                      cfg: contrastive.CdclConfig):
    """Dense (2N)^2 log-softmax, positives mask, gate matrix, positive
    counts and valid anchors of cdcl_feature_grad's gated loss. The
    similarities take production's BLAS path: a product with a contiguous
    copy of z.T (gemm), where z @ z.T would call syrk."""
    sims = (z @ np.ascontiguousarray(z.T)) / cfg.tau
    np.fill_diagonal(sims, -np.inf)
    row_max = sims.max(axis=1, keepdims=True)
    logp = sims - (row_max + np.log(np.exp(sims - row_max).sum(axis=1, keepdims=True)))
    pos = pseudo_class[:, None] == pseudo_class[None, :]
    np.fill_diagonal(pos, False)
    bnorm = contrastive.normalize_beta(beta)
    w = np.outer(bnorm, bnorm)
    pos_counts = pos.sum(axis=1)
    valid = pos_counts >= 1
    return logp, pos, w, pos_counts, valid


def dense_cdcl_feature_grad(z: np.ndarray, pseudo_class: np.ndarray, beta: np.ndarray,
                            cfg: contrastive.CdclConfig, y_true: np.ndarray | None = None):
    """Dense restatement of contrastive.cdcl_feature_grad: the loss and the
    purity totals are sums over the full (2N)^2 masks and gate matrix, and
    the gradient runs production's operation sequence on freshly allocated
    arrays, so the two gradients agree bit for bit."""
    logp, pos, w, pos_counts, valid = dense_loss_pieces(z, pseudo_class, beta, cfg)
    purity = None
    if y_true is not None:
        y = np.concatenate([np.asarray(y_true), np.asarray(y_true)])
        hit = pos & (y[:, None] == y[None, :])
        purity = (float(hit.sum()), float(pos_counts.sum()),
                  float(w[hit].sum()), float(w[pos].sum()))
    n2 = len(z)
    if not valid.any():
        return 0.0, np.zeros_like(z), purity
    gated = (w * np.where(pos, logp, 0.0)).sum(axis=1)
    loss = float((-gated[valid] / pos_counts[valid]).mean())
    # d loss / d logp_ij = -a_i * w_ij on positives, a_i = 1/(|V| * |P(i)|)
    a = np.zeros(n2)
    a[valid] = 1.0 / (valid.sum() * pos_counts[valid])
    dlogp = np.where(pos, w, 0.0)
    dlogp *= -a[:, None]
    del w
    softmax_rows = np.exp(logp, out=logp)
    softmax_rows *= dlogp.sum(axis=1, keepdims=True)
    dsims = np.subtract(dlogp, softmax_rows, out=dlogp)
    np.fill_diagonal(dsims, 0.0)
    dz = (dsims + dsims.T) @ z / cfg.tau
    return loss, dz, purity


def head_grad(params: net.ModelParams, x: np.ndarray, head, *args,
              **kwargs) -> tuple[float, np.ndarray]:
    """A cross-entropy head on its own (trainer.reweighted_ce_grad or
    trainer.consistency_loss_grad, called on x's logits with the remaining
    arguments): loss and flat parameter gradient through x's forward."""
    out = net.forward_batch(params, x)
    loss, dlogits = head(out.logits, *args, **kwargs)
    return loss, net.backward_batch(params, out.cache, dlogits)


def cdcl_grad(params: net.ModelParams, weak_x: np.ndarray, strong_x: np.ndarray,
              pseudo_class: np.ndarray, beta: np.ndarray,
              cfg: contrastive.CdclConfig) -> tuple[float, np.ndarray]:
    """The contrastive term on its own: loss and flat parameter gradient
    through both view embeddings."""
    out = net.forward_batch(params, np.concatenate([weak_x, strong_x]))
    loss, draw, _ = contrastive.cdcl_head(out.emb, pseudo_class, beta, cfg)
    return loss, net.backward_batch(params, out.cache, np.zeros_like(out.logits), draw)


def fused_step_fd_error(params: net.ModelParams, xw: np.ndarray, xs: np.ndarray,
                        targets: np.ndarray, r: np.ndarray, bc: np.ndarray,
                        pairs: mixup.MixBatch, pseudo_cls: np.ndarray, beta: np.ndarray,
                        w_t: float, cfg: trainer.TrainConfig) -> float:
    """Worst relative error of each net's slice of trainer.step_loss_grad's
    fused gradient, on a stack of two networks, against central differences
    of that net's objective ce + w_t * (cr + ram + lambda_cdcl * cdcl), each
    called as co_train calls it.

    The first net is params with the given per-sample inputs; the second is
    params' entries reversed, with every per-sample input in reverse row
    order and the complementary filter, so the two slices differ in all a
    net owns."""
    b = len(xw)
    flip = lambda a: np.asarray(a)[::-1]
    stacked = lambda a: np.stack([a, flip(a)])
    targets2, r2, pc2, beta2 = (stacked(a) for a in (targets, r, pseudo_cls, beta))
    bc2 = [np.asarray(bc, dtype=np.int64), np.setdiff1d(np.arange(b), bc)]
    pairs2 = mixup.MixBatch(j=np.stack([pairs.j, pairs.j]), lam=np.stack([pairs.lam, pairs.lam]),
                            w=stacked(pairs.w), x=stacked(pairs.x), y=stacked(pairs.y))

    def step(flat):
        p = net.ModelParams(params.arch, flat)
        buffers = net.Buffers()
        fw = trainer.step_forward(p, xw, xs, w_t, cfg, buffers)
        losses, grad, _ = trainer.step_loss_grad(
            p, xw, fw, targets2, r2, bc2, cfg.eta_w, w_t, cfg,
            pairs=pairs2 if w_t > 0.0 else None, pseudo_cls=pc2, gate_beta=beta2,
            buffers=buffers)
        values = losses["ce_re"] + w_t * (losses.get("cr", 0.0) + losses.get("ram", 0.0)
                                          + cfg.lambda_cdcl * losses.get("cdcl", 0.0))
        return values, grad

    flat = stacked(params.flat)
    grad = step(flat)[1]
    worst = 0.0
    for k in range(2):
        def value(flat_k):
            moved = flat.copy()
            moved[k] = flat_k
            return step(moved)[0][k]

        worst = max(worst, max_rel_error(fd_gradient(value, flat[k]), grad[k]))
    return worst


def meta_loss(params: net.ModelParams, meta: MetaSet, num_classes: int) -> float:
    """Mean cross-entropy on the held-out clean set."""
    out = net.forward_batch(params, meta.x)
    targets = reliability.one_hot(meta.y, num_classes)
    return float(-(targets * net.log_softmax(out.logits)).sum(axis=1).mean())


def meta_gradients_fd(params: net.ModelParams, batch_x: np.ndarray,
                      given_targets: np.ndarray, pseudo_targets: np.ndarray,
                      meta: MetaSet, eta_inner: float,
                      step: float = 1e-4) -> tuple[np.ndarray, np.ndarray]:
    """Literal virtual-update restatement of reliability.meta_gradients_closed.

    For each sample and each of the two loss terms, perturb that weight by
    +/- step, take one plain SGD step (no momentum, no weight decay) on the
    composite weighted batch loss, evaluate the held-out loss at the stepped
    parameters, and central-difference.
    """
    if meta.m == 0:
        raise ConfigError("meta set must be nonempty")
    b = len(batch_x)

    def held_out_after_step(w: np.ndarray) -> float:
        g = (net.weighted_ce_loss_grad(params, batch_x, given_targets, w[:b])[1]
             + net.weighted_ce_loss_grad(params, batch_x, pseudo_targets, w[b:])[1])
        stepped = net.ModelParams(params.arch, params.flat - eta_inner * g)
        return meta_loss(stepped, meta, given_targets.shape[1])

    e = fd_gradient(held_out_after_step, np.zeros(2 * b), step)
    return e[:b], e[b:]


def _per_sample_from_dlogits(params: net.ModelParams, cache: tuple,
                             dlogits: np.ndarray) -> np.ndarray:
    """Per-sample flat gradients for a loss touching only the logits head."""
    x, h1, h2 = cache
    b = x.shape[0]
    arch = params.arch
    dh2p = (dlogits @ params.wc.T) * (h2 > 0)
    dh1p = (dh2p @ params.w2.T) * (h1 > 0)
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
    """Exhaustive threshold sweep for the FPR at the target ID recall: the
    loop over candidate thresholds that metrics.fpr_at_95_tpr replaces with
    one searchsorted."""
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
    worst = 0.0
    for seed in range(n_seeds):
        params, batch_x, given, pseudo, meta = _random_fixture(seed)
        closed = reliability.meta_gradients_closed(params, batch_x, given, pseudo, meta, 0.1)
        fd = meta_gradients_fd(params, batch_x, given, pseudo, meta, 0.1)
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
    _, gram = net.weighted_ce_loss_grad(params, pairs.x, pairs.y, pairs.w)
    fd_vs("mixup_loss_gradient",
          lambda p: net.weighted_ce_loss_grad(p, pairs.x, pairs.y, pairs.w)[0], gram)

    cd_cfg = contrastive.CdclConfig()
    strong = rng.standard_normal((4, 3))
    pc = np.array([0, 1, 0, 1])
    beta = rng.random(4)
    _, gcd = cdcl_grad(params, x, strong, pc, beta, cd_cfg)
    fd_vs("contrastive_loss_gradient",
          lambda p: cdcl_grad(p, x, strong, pc, beta, cd_cfg)[0], gcd)

    # the whole network step: one shared forward, one backward, partial filter
    tcfg = trainer.TrainConfig()
    for w_t in (0.0, 0.4):
        err = fused_step_fd_error(params, x, strong, targets, r, np.array([0, 2, 3]),
                                  pairs, pc, beta, w_t, tcfg)
        results.append(_check("fused_step_gradient_wt%g" % w_t, err, 1e-5))
    return results


def suite_cdcl(n_seeds: int = 20) -> list[CheckResult]:
    """Vectorized contrastive loss vs the scalar double-loop restatement, and
    the feature gradient, loss and purity vs the dense form."""
    cfg = contrastive.CdclConfig()
    worst = 0.0
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        n2 = int(rng.integers(2, 17)) * 2
        z = l2_normalize(rng.standard_normal((n2, 5)))
        pc_half = rng.integers(0, 3, n2 // 2)
        beta_half = rng.random(n2 // 2)
        pc, beta = np.concatenate([pc_half, pc_half]), np.concatenate([beta_half, beta_half])
        fast = contrastive.cdcl_feature_grad(z, pc, beta, cfg)[0]
        slow = naive_infonce(z, pc, beta, cfg.tau)
        worst = max(worst, abs(fast - slow))
    return [_check("contrastive_vs_double_loop_%dbanks" % n_seeds, worst, 1e-10),
            _check_cdcl_vs_dense(n_seeds)]


def _check_cdcl_vs_dense(n_banks: int) -> CheckResult:
    """cdcl_feature_grad vs dense_cdcl_feature_grad on raw banks of varying
    size (sharing one set of work buffers, as a run does) with degenerate
    rows: the gradient must agree bit for bit (otherwise the check reads
    inf), the loss and purity totals to 1e-12 (absolutely below 1e-2). The
    banks reach 2N = 200, so they span several row blocks of the production
    sweep, end in a partial block and include sizes off a multiple of 8."""
    cfg = contrastive.CdclConfig()
    buffers = net.Buffers()
    worst = 0.0
    for seed in range(n_banks):
        rng = np.random.default_rng(seed)
        half = int(rng.integers(1, 101))
        dup = lambda a: np.concatenate([a, a])
        degenerate = np.arange(2 * half) < seed % 3
        z = l2_normalize(rng.standard_normal((2 * half, 5)))
        z[degenerate] = 0.0
        pc, beta = dup(rng.integers(0, 4, half)), dup(rng.random(half))
        y = rng.integers(0, 4, half)
        loss, dz, purity = contrastive.cdcl_feature_grad(z, pc, beta, cfg, y, buffers)
        loss_d, dz_d, purity_d = dense_cdcl_feature_grad(z, pc, beta, cfg, y)
        if not np.array_equal(dz, dz_d):
            worst = math.inf
        worst = max(worst, max_rel_error(np.r_[loss, purity], np.r_[loss_d, purity_d],
                                         zero_floor=1e-2))
    return _check("cdcl_grad_bitexact_loss_purity_vs_dense_%dbanks" % n_banks, worst, 1e-12)


def suite_beta(n_draws: int = 100_000) -> list[CheckResult]:
    """Sampler moments vs analytic Beta moments, in standard-error units."""
    ram_cfg = mixup.RamConfig()
    results = []
    for r_i, r_j in [(1.0, 1.0), (3.0, 1.0), (0.1, 2.0)]:
        rng = np.random.default_rng(1234)
        draws = mixup.sample_lambda_batch(np.full(n_draws, r_i), np.full(n_draws, r_j),
                                          ram_cfg, rng)
        denom = r_i + r_j + mixup.DELTA
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
    """Rank-based separation scores vs exhaustive pairwise counting, and the
    searchsorted FPR at 95% recall vs the threshold sweep, also exactly on
    tie-heavy sets of varying size (any disagreement reads inf)."""
    from .metrics import OodScoreSet, auroc, fpr_at_95_tpr

    worst_auroc = worst_fpr = worst_tied = 0.0
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        id_scores = np.round(rng.random(30), 2)  # rounding forces ties
        ood_scores = np.round(rng.random(25) * 0.9, 2)
        scores = OodScoreSet(id_scores, ood_scores)
        worst_auroc = max(worst_auroc, abs(auroc(scores) - pairwise_auroc(id_scores, ood_scores)))
        worst_fpr = max(worst_fpr, abs(fpr_at_95_tpr(scores) - sweep_fpr_at_tpr(id_scores, ood_scores)))
    for seed in range(100):
        rng = np.random.default_rng(seed)
        levels = int(rng.integers(1, 12))
        id_scores = rng.integers(0, levels, int(rng.integers(1, 60))) / levels
        ood_scores = rng.integers(0, levels, int(rng.integers(1, 60))) / levels - 0.1
        if fpr_at_95_tpr(OodScoreSet(id_scores, ood_scores)) != sweep_fpr_at_tpr(
                id_scores, ood_scores):
            worst_tied = math.inf
    return [_check("auroc_vs_pairwise_%dsets" % n_seeds, worst_auroc, 1e-12),
            _check("fpr95_vs_sweep_%dsets" % n_seeds, worst_fpr, 1e-12),
            _check("fpr95_vs_sweep_100tied_sets", worst_tied, 1e-12)]


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
