"""Joint objective assembly and the dual-network co-training loop.

Each mini-batch: the co-network (frozen, pre-update) supplies pseudo-labels,
refined targets and confidences for the network being updated; the meta step
turns held-out sensitivities into per-sample reliabilities; the reweighted
cross-entropy, cross-view consistency, gated Mixup and gated contrastive
terms are combined with a warm-up ramp; one momentum-SGD step per network.
The two updates inside a batch read only frozen co-network outputs, so their
order does not matter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np

from . import contrastive, metrics, mixup
from .contrastive import CdclConfig
from .data import AugmentConfig, Dataset, MetaSet, make_views
from .mixup import RamConfig, total_reliability
from .net import (Architecture, ModelParams, OptState, Schedule, forward_batch,
                  init_opt_state, init_params, sgd_step, softmax,
                  weighted_ce_loss_grad)
from .reliability import MetaConfig, disentangle, meta_gradients_closed, one_hot
from .util import ConfigError, TrainingDiverged, child_rng, csv_line

_ORDER_STREAM = 11
_VIEW_STREAM = 12
_MIX_STREAM = 13

SOURCE_CO = "co_prediction"
SOURCE_GIVEN = "given_label"

# Mixup pair kinds, indexed by the number of clean-labeled endpoints
PAIR_KINDS = ("noisy_noisy", "clean_noisy", "clean_clean")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    warmup_start: int = 5
    warmup_full: int = 15
    eta_w: float = 1.0
    lambda_cdcl: float = 0.5
    conf_threshold: float = 0.9
    sharpen_temp: float = 0.5
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    decay_epochs: tuple = ()
    decay_factor: float = 0.1
    hidden: int = 64
    proj: int = 16
    xi: float = 1e-10
    reliability_stride: int = 1
    ram: RamConfig = RamConfig()
    cdcl: CdclConfig = CdclConfig()
    augment: AugmentConfig = AugmentConfig(0.05, 0.15, 0.1)
    use_meta: bool = True
    use_ram: bool = True
    use_grg: bool = True
    use_cdcl: bool = True
    use_cr: bool = True
    use_refine: bool = True
    couple_meta: bool = False
    sym_ram: bool = False
    net1_seed: int = 1
    net2_seed: int = 2
    loop_seed: int = 3

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        if not (0 <= self.warmup_start <= self.warmup_full):
            raise ConfigError("need 0 <= warmup_start <= warmup_full")
        if self.epochs > 0 and self.warmup_full > self.epochs:
            raise ConfigError("warmup_full must not exceed epochs")
        if not (0.0 < self.conf_threshold <= 1.0):
            raise ConfigError("conf_threshold must lie in (0, 1]")
        if self.sharpen_temp <= 0 or self.lr <= 0 or self.reliability_stride < 1:
            raise ConfigError("invalid sharpen_temp, lr or reliability_stride")
        for name in ("eta_w", "lambda_cdcl", "momentum", "weight_decay", "decay_factor"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError("%s must be finite" % name)


def train_config_dict(cfg: TrainConfig) -> dict:
    out = {}
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, (RamConfig, CdclConfig, AugmentConfig)):
            out[f.name] = {sf.name: getattr(v, sf.name) for sf in fields(v)}
        elif isinstance(v, tuple):
            out[f.name] = list(v)
        else:
            out[f.name] = v
    return out


@dataclass
class NetState:
    name: str
    params: ModelParams
    opt: OptState
    mix_rng: np.random.Generator
    alpha_store: np.ndarray
    beta_store: np.ndarray


@dataclass
class NetPair:
    net1: NetState
    net2: NetState

    def states(self):
        return (self.net1, self.net2)


@dataclass
class RefinedTargets:
    """Per-batch refined training targets with their provenance."""

    dists: np.ndarray       # (B, C)
    source: np.ndarray      # (B,) SOURCE_CO or SOURCE_GIVEN
    confidence: np.ndarray  # (B,) max co-network softmax


def warmup(t: int, cfg: TrainConfig) -> float:
    """Linear ramp from 0 at warmup_start to 1 at warmup_full."""
    if t < 0:
        raise ValueError("epoch index must be nonnegative")
    if t < cfg.warmup_start:
        return 0.0
    if t >= cfg.warmup_full:
        return 1.0
    return (t - cfg.warmup_start) / (cfg.warmup_full - cfg.warmup_start)


def sharpen(probs: np.ndarray, temp: float) -> np.ndarray:
    """Temperature sharpening p^(1/T), renormalized row-wise."""
    powered = np.asarray(probs, dtype=np.float64) ** (1.0 / temp)
    return powered / powered.sum(axis=-1, keepdims=True)


def refined_targets(co_probs: np.ndarray, given_labels: np.ndarray,
                    cfg: TrainConfig) -> RefinedTargets:
    """Sharpened co-network prediction where it is confident, otherwise the
    observed label as a one-hot."""
    co_probs = np.asarray(co_probs, dtype=np.float64)
    num_classes = co_probs.shape[1]
    confidence = co_probs.max(axis=1)
    confident = confidence >= cfg.conf_threshold
    dists = np.where(confident[:, None],
                     sharpen(co_probs, cfg.sharpen_temp),
                     one_hot(given_labels, num_classes))
    source = np.where(confident, SOURCE_CO, SOURCE_GIVEN)
    return RefinedTargets(dists=dists, source=source, confidence=confidence)


def given_label_targets(given_labels: np.ndarray, num_classes: int) -> RefinedTargets:
    """Plain one-hot observed labels (refinement disabled)."""
    n = len(given_labels)
    return RefinedTargets(dists=one_hot(given_labels, num_classes),
                          source=np.array([SOURCE_GIVEN] * n),
                          confidence=np.zeros(n))


def confidence_filter(co_probs: np.ndarray, cfg: TrainConfig,
                      warmup_active: bool = False) -> np.ndarray:
    """Indices where the co-network clears the confidence threshold.

    While the warm-up ramp is still at zero the model has no meaningful
    confidence, so the whole batch passes.
    """
    co_probs = np.asarray(co_probs, dtype=np.float64)
    if warmup_active:
        return np.arange(co_probs.shape[0])
    return np.flatnonzero(co_probs.max(axis=1) >= cfg.conf_threshold)


def reweighted_ce(params: ModelParams, weak_x: np.ndarray, targets,
                  reliabilities: np.ndarray, bc: np.ndarray,
                  cfg: TrainConfig, eta_w: float | None = None) -> float:
    return reweighted_ce_grad(params, weak_x, targets, reliabilities, bc, cfg, eta_w)[0]


def reweighted_ce_grad(params: ModelParams, weak_x: np.ndarray, targets,
                       reliabilities: np.ndarray, bc: np.ndarray,
                       cfg: TrainConfig, eta_w: float | None = None):
    """Confidence-filtered cross-entropy with multiplier 1 + eta_w * r_tilde,
    where r_tilde is each sample's reliability over the filtered-batch mean."""
    if eta_w is None:
        eta_w = cfg.eta_w
    bc = np.asarray(bc, dtype=np.int64)
    if bc.size == 0:
        return 0.0, np.zeros(params.arch.n_params)
    dists = np.asarray(targets)
    r = np.asarray(reliabilities, dtype=np.float64)[bc]
    r_tilde = r / (r.mean() + cfg.ram.delta)
    weights = 1.0 + eta_w * r_tilde
    return weighted_ce_loss_grad(params, np.asarray(weak_x)[bc], dists[bc], weights)


def consistency_loss(params: ModelParams, strong_x: np.ndarray, targets,
                     bc: np.ndarray) -> float:
    return consistency_loss_grad(params, strong_x, targets, bc)[0]


def consistency_loss_grad(params: ModelParams, strong_x: np.ndarray, targets,
                          bc: np.ndarray):
    """Cross-entropy of the strong view against the same refined targets."""
    bc = np.asarray(bc, dtype=np.int64)
    if bc.size == 0:
        return 0.0, np.zeros(params.arch.n_params)
    return weighted_ce_loss_grad(params, np.asarray(strong_x)[bc], np.asarray(targets)[bc],
                                 np.ones(bc.size))


def total_loss(components: dict, t: int, cfg: TrainConfig) -> float:
    """Reweighted CE plus the warm-up-gated auxiliary sum."""
    w = warmup(t, cfg)
    return (components.get("ce_re", 0.0)
            + w * (components.get("cr", 0.0)
                   + components.get("ram", 0.0)
                   + cfg.lambda_cdcl * components.get("cdcl", 0.0)))


class DiagnosticsWriter:
    """Optional CSV streams: per-sample reliabilities, interpolation
    histograms by pair type, and per-epoch positive-pair purity."""

    def __init__(self, out_dir):
        import os

        os.makedirs(out_dir, exist_ok=True)
        self._rel = open(os.path.join(out_dir, "diag_reliability.csv"), "w")
        self._rel.write("epoch,batch,id,alpha,beta,is_label_clean\n")
        self._lam = open(os.path.join(out_dir, "diag_lambda.csv"), "w")
        self._lam.write("epoch,pair_type,bin_lo,bin_hi,count\n")
        self._pur = open(os.path.join(out_dir, "diag_purity.csv"), "w")
        self._pur.write("epoch,purity_raw,purity_gated\n")

    def reliability_rows(self, epoch, batch_idx, ids, alpha, beta, clean):
        for k in range(len(ids)):
            self._rel.write(csv_line([epoch, batch_idx, int(ids[k]),
                                      float(alpha[k]), float(beta[k]), bool(clean[k])]))

    def lambda_hist(self, epoch, hist_by_kind, edges):
        for kind in (2, 1, 0):  # clean_clean first
            counts = hist_by_kind[kind]
            for b in range(len(counts)):
                self._lam.write(csv_line([epoch, PAIR_KINDS[kind], float(edges[b]),
                                          float(edges[b + 1]), int(counts[b])]))

    def purity_row(self, epoch, raw, gated):
        self._pur.write(csv_line([epoch, raw, gated]))

    def close(self):
        for fh in (self._rel, self._lam, self._pur):
            fh.close()


class _EpochTally:
    """Accumulates per-epoch sums across batches and both networks."""

    def __init__(self):
        self.loss_sums = {"net1": {}, "net2": {}}
        self.loss_counts = {"net1": {}, "net2": {}}
        self.alpha = {True: [], False: []}
        self.beta = {True: [], False: []}
        self.wmix_sum = 0.0
        self.wmix_count = 0
        # indexed by pair kind, the number of clean endpoints (PAIR_KINDS)
        self.lam_sums = np.zeros(3)
        self.lam_counts = np.zeros(3, dtype=np.int64)
        self.lam_hist = np.zeros((3, 10), dtype=np.int64)
        self.purity = np.zeros(4)  # matches, pairs, gated matches, gate mass
        self.mass_gap = None

    def add_loss(self, name, comps):
        for key, value in comps.items():
            self.loss_sums[name][key] = self.loss_sums[name].get(key, 0.0) + value
            self.loss_counts[name][key] = self.loss_counts[name].get(key, 0) + 1

    def add_reliability(self, alpha, beta, clean, gap):
        self.alpha[True].append(alpha[clean])
        self.alpha[False].append(alpha[~clean])
        self.beta[True].append(beta[clean])
        self.beta[False].append(beta[~clean])
        self.mass_gap = gap if self.mass_gap is None else max(self.mass_gap, gap)

    def add_pairs(self, pairs, clean):
        lam = pairs.lam
        kinds = clean[pairs.i].astype(np.int64) + clean[pairs.j]
        self.wmix_sum += float(pairs.w.sum())
        self.wmix_count += len(lam)
        bins = np.minimum((lam * 10.0).astype(np.int64), 9)
        for kind in range(3):
            self.lam_sums[kind] += lam[kinds == kind].sum()
        self.lam_counts += np.bincount(kinds, minlength=3)
        np.add.at(self.lam_hist, (kinds, bins), 1)

    def add_purity(self, counts):
        self.purity += np.asarray(counts)

    def loss_means(self):
        out = {}
        for name in ("net1", "net2"):
            out[name] = {}
            for key in ("ce_re", "cr", "ram", "cdcl", "total"):
                if self.loss_counts[name].get(key):
                    out[name][key] = self.loss_sums[name][key] / self.loss_counts[name][key]
                else:
                    out[name][key] = None
        return out

    def reliability_stats(self):
        stats = {}
        for label, group in (("clean", True), ("noisy", False)):
            for prefix, store in (("alpha", self.alpha), ("beta", self.beta)):
                values = np.concatenate(store[group]) if store[group] else np.array([])
                base = "%s_%s" % (prefix, label)
                stats[base + "_mean"] = float(values.mean()) if values.size else None
                stats[base + "_std"] = float(values.std()) if values.size else None
        return stats

    def lambda_stats(self):
        if self.lam_counts.sum() == 0:
            return None
        out = {}
        for kind, name in enumerate(PAIR_KINDS):
            n = int(self.lam_counts[kind])
            out[name] = {"count": n, "mean": float(self.lam_sums[kind]) / n if n else None}
        out["hist"] = [int(v) for v in self.lam_hist.sum(axis=0)]
        return out


def _evaluate(nets: NetPair, test: Dataset) -> dict:
    probs = [softmax(forward_batch(st.params, test.x).logits)
             for st in nets.states()]
    acc1 = metrics.accuracy(probs[0].argmax(axis=1), test.y_true)
    acc2 = metrics.accuracy(probs[1].argmax(axis=1), test.y_true)
    ens = metrics.accuracy((0.5 * (probs[0] + probs[1])).argmax(axis=1), test.y_true)
    return {"net1": acc1, "net2": acc2, "ensemble": ens}


def co_train(train: Dataset, meta: MetaSet | None, test: Dataset, cfg: TrainConfig,
             ood: Dataset | None = None, diagnostics: DiagnosticsWriter | None = None,
             config_echo: dict | None = None, seeds_echo: dict | None = None,
             return_state: bool = False):
    """Run the full dual-network loop and return the RunReport.

    Supervision for each network comes exclusively from the other network's
    frozen pre-update outputs within each batch.
    """
    if cfg.use_meta and (meta is None or meta.m == 0):
        raise ConfigError("reliability estimation needs a nonempty meta set")
    arch = Architecture(train.dim, cfg.hidden, train.num_classes, cfg.proj)
    schedule = Schedule(cfg.lr, tuple(cfg.decay_epochs), cfg.decay_factor,
                        cfg.momentum, cfg.weight_decay)
    nets = NetPair(
        NetState("net1", init_params(arch, cfg.net1_seed), init_opt_state(arch, schedule),
                 child_rng(cfg.net1_seed, _MIX_STREAM),
                 np.full(train.n, 0.5), np.full(train.n, 0.5)),
        NetState("net2", init_params(arch, cfg.net2_seed), init_opt_state(arch, schedule),
                 child_rng(cfg.net2_seed, _MIX_STREAM),
                 np.full(train.n, 0.5), np.full(train.n, 0.5)),
    )
    clean_mask = train.y_obs == train.y_true

    report = metrics.RunReport(
        config=config_echo if config_echo is not None else {"trainer": train_config_dict(cfg)},
        seeds=seeds_echo if seeds_echo is not None else {
            "net1_seed": cfg.net1_seed, "net2_seed": cfg.net2_seed, "loop_seed": cfg.loop_seed},
        initial={"test_acc": _evaluate(nets, test)},
    )

    mass_gap_overall = None
    alpha_min = beta_min = None

    for t in range(cfg.epochs):
        tick = time.perf_counter()
        w_t = warmup(t, cfg)
        lr_t = schedule.lr_at(t)
        for st in nets.states():
            st.opt.epoch = t
        order = child_rng(cfg.loop_seed, _ORDER_STREAM, t).permutation(train.n)
        weak_all, strong_all = make_views(train.x, cfg.augment,
                                          child_rng(cfg.loop_seed, _VIEW_STREAM, t))
        tally = _EpochTally()

        for batch_idx, b0 in enumerate(range(0, train.n, cfg.batch_size)):
            rows = order[b0:b0 + cfg.batch_size]
            xw, xs = weak_all[rows], strong_all[rows]
            y_obs = train.y_obs[rows]
            batch_clean = clean_mask[rows]
            batch_ids = train.ids[rows]
            b = len(rows)

            # frozen pre-update co-network outputs; net1 learns from net2's
            co_out = {
                "net1": softmax(forward_batch(nets.net2.params, xw).logits),
                "net2": softmax(forward_batch(nets.net1.params, xw).logits),
            }

            for st in nets.states():
                co_probs = co_out[st.name]
                pseudo_cls = co_probs.argmax(axis=1)

                if cfg.use_refine:
                    refined = refined_targets(co_probs, y_obs, cfg)
                    bc = confidence_filter(co_probs, cfg, warmup_active=(w_t == 0.0))
                else:
                    refined = given_label_targets(y_obs, train.num_classes)
                    bc = np.arange(b)

                if cfg.use_meta:
                    if batch_idx % cfg.reliability_stride == 0:
                        mcfg = MetaConfig(eta_inner=lr_t, xi=cfg.xi)
                        e1, e2 = meta_gradients_closed(
                            st.params, xw, one_hot(y_obs, train.num_classes),
                            one_hot(pseudo_cls, train.num_classes), meta, mcfg)
                        if cfg.couple_meta:
                            shared = 0.5 * (e1 + e2)
                            rb = disentangle(shared, shared, mcfg, b, ids=batch_ids)
                        else:
                            rb = disentangle(e1, e2, mcfg, b, ids=batch_ids)
                        gap = rb.mass_identity_gap(cfg.xi)
                        tally.add_reliability(rb.alpha, rb.beta, batch_clean, gap)
                        mass_gap_overall = gap if mass_gap_overall is None else max(mass_gap_overall, gap)
                        lo_a, lo_b = float(rb.alpha.min()), float(rb.beta.min())
                        alpha_min = lo_a if alpha_min is None else min(alpha_min, lo_a)
                        beta_min = lo_b if beta_min is None else min(beta_min, lo_b)
                        st.alpha_store[rows] = rb.alpha
                        st.beta_store[rows] = rb.beta
                        if diagnostics is not None:
                            diagnostics.reliability_rows(t, batch_idx, batch_ids,
                                                         rb.alpha, rb.beta, batch_clean)
                    alpha = st.alpha_store[rows]
                    beta = st.beta_store[rows]
                    r = total_reliability(alpha, beta, cfg.ram)
                    eta_eff = cfg.eta_w
                else:
                    alpha = beta = None
                    r = np.ones(b)
                    eta_eff = 0.0

                comps = {}
                lce, grad = reweighted_ce_grad(st.params, xw, refined.dists, r, bc, cfg,
                                               eta_w=eta_eff)
                comps["ce_re"] = lce

                if w_t > 0.0:
                    if cfg.use_cr:
                        lcr, gcr = consistency_loss_grad(st.params, xs, refined.dists, bc)
                        comps["cr"] = lcr
                        grad = grad + w_t * gcr
                    if cfg.use_ram:
                        pairs = mixup.build_pairs(xw, r, refined.dists, cfg.ram,
                                                  st.mix_rng, symmetric=cfg.sym_ram,
                                                  gate=cfg.use_grg)
                        lram, gram = mixup.ram_loss_grad(st.params, pairs)
                        comps["ram"] = lram
                        grad = grad + w_t * gram
                        tally.add_pairs(pairs, batch_clean)
                    if cfg.use_cdcl:
                        gate_beta = beta if cfg.use_meta else np.ones(b)
                        lcd, gcd = contrastive.cdcl_grad(st.params, xw, xs, pseudo_cls,
                                                         gate_beta, cfg.cdcl)
                        comps["cdcl"] = lcd
                        grad = grad + w_t * cfg.lambda_cdcl * gcd
                        pc2 = np.concatenate([pseudo_cls, pseudo_cls])
                        bnorm = contrastive.normalize_beta(
                            np.concatenate([gate_beta, gate_beta]), cfg.cdcl.range_eps)
                        y2 = np.concatenate([train.y_true[rows], train.y_true[rows]])
                        tally.add_purity(contrastive.pair_match_counts_fast(pc2, bnorm, y2))

                comps["total"] = total_loss(comps, t, cfg)
                if not np.isfinite(comps["total"]):
                    snapshot = {
                        "info": {"epoch": t, "batch": batch_idx, "net": st.name,
                                 "components": {k: str(v) for k, v in comps.items()}},
                        "params": {s.name: s.params for s in nets.states()},
                    }
                    raise TrainingDiverged("non-finite loss at epoch %d batch %d (%s)"
                                           % (t, batch_idx, st.name), snapshot)
                tally.add_loss(st.name, comps)
                st.params, st.opt = sgd_step(st.params, grad, st.opt)

        test_acc = _evaluate(nets, test)
        purity_raw = tally.purity[0] / tally.purity[1] if tally.purity[1] > 0 else None
        purity_gated = tally.purity[2] / tally.purity[3] if tally.purity[3] > 0 else None
        rec = {
            "epoch": t,
            "lr": lr_t,
            "warmup_w": w_t,
            "losses": tally.loss_means(),
            "test_acc": test_acc,
            "reliability_stats": tally.reliability_stats(),
            "purity_raw": purity_raw,
            "purity_gated": purity_gated,
            "mean_wmix": tally.wmix_sum / tally.wmix_count if tally.wmix_count else None,
            "lambda_stats": tally.lambda_stats(),
            "mass_gap_max": tally.mass_gap,
        }
        report.epochs.append(rec)
        report.wall_seconds.append(time.perf_counter() - tick)
        if diagnostics is not None:
            diagnostics.purity_row(t, purity_raw, purity_gated)
            if tally.lambda_stats() is not None:
                diagnostics.lambda_hist(t, tally.lam_hist, np.linspace(0.0, 1.0, 11))

    last_acc = report.epochs[-1]["test_acc"] if report.epochs else report.initial["test_acc"]
    if report.epochs:
        best_idx = int(np.argmax([rec["test_acc"]["ensemble"] for rec in report.epochs]))
        best = {"epoch": report.epochs[best_idx]["epoch"],
                "ensemble": report.epochs[best_idx]["test_acc"]["ensemble"]}
    else:
        best = {"epoch": None, "ensemble": report.initial["test_acc"]["ensemble"]}
    summary = {
        "last_acc": last_acc,
        "best_acc_ensemble": best["ensemble"],
        "best_epoch": best["epoch"],
        "mass_gap_max": mass_gap_overall,
        "alpha_min": alpha_min,
        "beta_min": beta_min,
        "ood": None,
    }
    if ood is not None:
        params_list = [st.params for st in nets.states()]
        id_scores = metrics.msp_scores_ensemble(params_list, test.x)
        ood_scores = metrics.msp_scores_ensemble(params_list, ood.x)
        score_set = metrics.OodScoreSet(id_scores, ood_scores)
        summary["ood"] = {"auroc": metrics.auroc(score_set),
                          "fpr95": metrics.fpr_at_95_tpr(score_set)}
    report.summary = summary
    report.validate()
    if return_state:
        return report, nets
    return report
