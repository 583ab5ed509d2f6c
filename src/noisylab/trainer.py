"""Joint objective assembly and the dual-network co-training loop.

Each mini-batch: the co-network (frozen, pre-update) supplies pseudo-labels,
refined targets and confidences for the network being updated; the meta step
turns held-out sensitivities into per-sample reliabilities, re-estimated on
every batch (the per-batch reweighting of Ren et al. 2018); the reweighted
cross-entropy, cross-view consistency, gated Mixup and gated contrastive
terms are combined with a warm-up ramp; one momentum-SGD step per network.
The two updates inside a batch read only frozen co-network outputs, so they
are independent and every array they touch has the same shape: co_train
steps both networks as one stack along a leading net axis (net.ModelParams
with lead (2,)), one pass per layer for the pair, and clamps and normalizes
the pair's reliabilities in one reliability.disentangle call. Mixup pair
sampling and the contrastive head's row work also run once for the pair:
each net keeps its own random stream, and the contrastive head's (2B)^2
passes run net by net, each as one sweep over row blocks of one work matrix.
The confidence-filtered cross-entropy and consistency heads are the one loop
over the two nets left, since each net keeps its own rows and
perfbench/worker.py's row-count probe reads one reweighted_ce_grad call per
net; when the filter passes every row (warm-up, no refinement, or a whole
confident batch) they run on the cached rows as they are, with no gather or
scatter. The pair stays a stack up to the report: each loss term and the
contrastive purity totals come back with the net axis, the divergence check
tests both nets at once, and metrics.EpochTally sums them and builds each
epoch's record and the summary's extremes; the record is metrics' alone.

Each network step has one form: step_forward runs the stack's shared forward
(on [weak; strong] views when a strong-view term runs), and step_loss_grad
runs every loss head on cached rows, forwards the Mixup rows after the shared
ones, and assembles each net's objective ce + w_t * (cr + ram + lambda_cdcl *
cdcl) once, as its "total" and as one backward pass over the summed head
gradients (backward_batch is linear in them). The meta step's held-out
gradient keeps its own forward, since alpha and beta depend on it, and the
co-network softmax and pseudo-labels are taken only when a term reads them
(refinement, the meta step or the contrastive term).

Once per epoch, co_train puts the views, the one-hot observed labels, the
clean mask and the true labels in that epoch's batch order, so each batch
takes slices of them; the strong views are drawn only in epochs that run a
strong-view term. A run builds one parameter stack and one velocity, and
net.sgd_step updates both in place. It keeps its large arrays in one
net.Buffers workspace.
Within a step the roles never collide (net's lifetime rule): the meta step's
held-out gradient and per-sample temporaries borrow the backward's roles
before the step's backward runs, and the shared forward, sized for the Mixup
rows that extend it in place (a stack holds each net's rows as one block),
lasts through the step. Evaluation, between steps, reuses the forward's roles.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from . import contrastive, metrics, mixup
from .contrastive import CdclConfig
from .data import AugmentConfig, Dataset, MetaSet, default_augment_config, make_views
from .mixup import DELTA, RamConfig, total_reliability
from .net import (Architecture, BatchForward, Buffers, ModelParams, backward_batch,
                  forward_batch, init_params, sgd_step, softmax, stack_params,
                  weighted_ce_head)
from .reliability import disentangle, meta_gradients_closed
from .util import ConfigError, TrainingDiverged, child_rng

_ORDER_STREAM = 11
_VIEW_STREAM = 12
_MIX_STREAM = 13


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 40
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
    ram: RamConfig = RamConfig()
    cdcl: CdclConfig = CdclConfig()
    augment: AugmentConfig = default_augment_config(1.0)
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
        for key, low in (("trainer.epochs", 0), ("trainer.batch_size", 1),
                         ("trainer.warmup_start", 0), ("net.hidden", 1), ("net.proj", 1)):
            if getattr(self, key.split(".")[1]) < low:
                raise ConfigError("%s must be >= %d" % (key, low))
        if self.warmup_full < self.warmup_start:
            raise ConfigError("trainer.warmup_full must be >= trainer.warmup_start")
        if self.epochs > 0 and self.warmup_full > self.epochs:
            raise ConfigError("trainer.warmup_full must not exceed trainer.epochs")
        if not (0.0 < self.conf_threshold <= 1.0):
            raise ConfigError("trainer.conf_threshold must lie in (0, 1]")
        for name in ("sharpen_temp", "lr"):
            if not getattr(self, name) > 0:  # also rejects NaN
                raise ConfigError("trainer.%s must be positive" % name)
        # a negative rate, decay or weight turns a step or a term into ascent
        for name in ("eta_w", "lambda_cdcl", "weight_decay", "decay_factor"):
            if not getattr(self, name) >= 0:  # also rejects NaN
                raise ConfigError("trainer.%s must be nonnegative" % name)
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("trainer.momentum must lie in [0, 1)")
        # a negative entry would count as reached from epoch 0
        if any(e < 0 for e in self.decay_epochs):
            raise ConfigError("trainer.decay_epochs entries must be nonnegative")
        for name in ("eta_w", "lambda_cdcl", "lr", "weight_decay", "decay_factor"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError("trainer.%s must be finite" % name)


def warmup(t: int, cfg: TrainConfig) -> float:
    """Linear ramp from 0 at warmup_start to 1 at warmup_full."""
    if t < 0:
        raise ValueError("epoch index must be nonnegative")
    if t < cfg.warmup_start:
        return 0.0
    if t >= cfg.warmup_full:
        return 1.0
    return (t - cfg.warmup_start) / (cfg.warmup_full - cfg.warmup_start)


def lr_at(t: int, cfg: TrainConfig) -> float:
    """Step decay: lr times decay_factor for each decay epoch reached."""
    drops = sum(1 for e in cfg.decay_epochs if t >= e)
    return cfg.lr * cfg.decay_factor ** drops


def sharpen(probs: np.ndarray, temp: float) -> np.ndarray:
    """Temperature sharpening p^(1/T), renormalized row-wise."""
    powered = np.asarray(probs, dtype=np.float64) ** (1.0 / temp)
    return powered / powered.sum(axis=-1, keepdims=True)


def refined_targets(co_probs: np.ndarray, given_targets: np.ndarray, w_t: float,
                    cfg: TrainConfig):
    """A stack's (K, B, C) co-network probabilities -> its (K, B, C) targets
    and each net's kept rows bc, both from one confident mask (the maximum
    probability clears conf_threshold).

    A confident row's target is the sharpened co-network prediction, any
    other row's the observed label's one-hot row of given_targets. bc holds,
    per net, the increasing indices of its confident rows; while the warm-up
    ramp w_t is still at zero the model has no meaningful confidence, so the
    whole batch passes.
    """
    co_probs = np.asarray(co_probs, dtype=np.float64)
    confident = co_probs.max(axis=-1) >= cfg.conf_threshold
    targets = np.where(confident[..., None], sharpen(co_probs, cfg.sharpen_temp),
                       given_targets)
    if w_t == 0.0:
        return targets, [np.arange(confident.shape[-1])] * len(confident)
    return targets, [np.flatnonzero(kept) for kept in confident]


def reweighted_ce_grad(logits: np.ndarray, targets, reliabilities: np.ndarray,
                       bc: np.ndarray, eta_w: float):
    """Confidence-filtered cross-entropy of cached logits with multiplier
    1 + eta_w * r_tilde, where r_tilde is each sample's reliability over the
    filtered-batch mean (plus mixup.DELTA, which guards an all-zero mean).

    bc holds increasing row indices, as refined_targets returns them.
    Returns the loss and its gradient w.r.t. the logits.
    """
    return _filtered_ce(logits, targets, bc, np.asarray(reliabilities, dtype=np.float64),
                        eta_w)


def consistency_loss_grad(logits: np.ndarray, targets, bc: np.ndarray):
    """Cross-entropy of the strong view's cached logits against the same
    refined targets; returns what reweighted_ce_grad returns."""
    return _filtered_ce(logits, targets, bc)


def _filtered_ce(logits, targets, bc, reliabilities=None, eta_w=0.0):
    """(1/|bc|) * sum over rows bc of w * CE(logits, targets) and its
    gradient w.r.t. the logits (zero outside bc). w is 1, or with
    reliabilities r it is reweighted_ce_grad's 1 + eta_w * r_tilde. When bc
    holds every row, the head runs on the rows as they are, with no gather
    or scatter: the same bits."""
    bc = np.asarray(bc, dtype=np.int64)
    if bc.size == 0:
        return 0.0, np.zeros_like(logits)
    full = bc.size == len(logits)

    def rows(a):
        return a if full else np.asarray(a)[bc]

    if reliabilities is None:
        weights = np.ones(bc.size)
    else:
        r = rows(reliabilities)
        weights = 1.0 + eta_w * (r / (r.mean() + DELTA))
    loss, dl = weighted_ce_head(rows(logits), rows(targets), weights)
    if full:
        return loss, dl
    dlogits = np.zeros_like(logits)
    dlogits[bc] = dl
    return loss, dlogits


def step_forward(params: ModelParams, xw: np.ndarray, xs: np.ndarray, w_t: float,
                 cfg: TrainConfig, buffers: Buffers) -> BatchForward:
    """The stack's shared forward of one network step, in `buffers`: on
    [xw; xs] when a strong-view term runs (w_t > 0 with use_cr or use_cdcl),
    otherwise on xw alone, in arrays sized for the Mixup rows (len(xw) more
    per net) that step_loss_grad forwards after it when those run (w_t > 0
    and use_ram)."""
    strong = w_t > 0.0 and (cfg.use_cr or cfg.use_cdcl)
    x_in = np.concatenate([xw, xs]) if strong else xw
    mix_rows = len(xw) if w_t > 0.0 and cfg.use_ram else 0
    return forward_batch(params, x_in, buffers=buffers, total_rows=len(x_in) + mix_rows)


def step_loss_grad(params: ModelParams, xw: np.ndarray, fw: BatchForward,
                   targets: np.ndarray, r: np.ndarray, bc, eta_w: float, w_t: float,
                   cfg: TrainConfig, pairs: mixup.MixBatch | None = None,
                   pseudo_cls: np.ndarray | None = None,
                   gate_beta: np.ndarray | None = None, y_true: np.ndarray | None = None,
                   *, buffers: Buffers):
    """Loss terms, flat gradients and contrastive purity totals of one
    network step of a stack of K networks.

    params is the stack (lead (K,)); targets (K, B, C), r, pseudo_cls and
    gate_beta (K, B) and every field of pairs (a stacked mixup.MixBatch)
    hold one block per net, and bc one entry per net. fw is step_forward's
    result in the same `buffers`.
    Each term's head gradient comes from the cached outputs with w_t and
    lambda_cdcl folded in, the Mixup rows are forwarded into the rows after
    fw's, and one backward pass over [xw; xs; x_mix] gives each net's
    gradient of total = ce + w_t * (cr + ram + lambda_cdcl * cdcl). Returns
    {term: (K,) array} for the terms that ran and "total", the (K, n_params)
    gradient (in `buffers`) and the (K, 4) purity totals of
    contrastive.cdcl_head, None unless the contrastive term runs with
    y_true given.
    """
    nets = range(params.flat.shape[0])
    b, n = len(xw), fw.logits.shape[-2]
    cr = w_t > 0.0 and cfg.use_cr
    ram = w_t > 0.0 and cfg.use_ram
    rows = n + (b if ram else 0)
    losses = {"ce_re": np.empty(len(nets))}
    if cr:
        losses["cr"] = np.empty(len(nets))
    purity = None
    dlogits = buffers.array("dlogits", (len(nets), rows, fw.logits.shape[-1]))
    dlogits[:, b:] = 0.0  # the strong-view rows stay zero without the consistency term
    demb = None
    cache = fw.cache
    for k in nets:
        # bc by keyword: perfbench/worker.py's probe reads it there, and the
        # rows offered from targets[k]
        losses["ce_re"][k], dlogits[k, :b] = reweighted_ce_grad(
            fw.logits[k, :b], targets[k], r[k], bc=bc[k], eta_w=eta_w)
        if cr:
            losses["cr"][k], dcr = consistency_loss_grad(fw.logits[k, b:], targets[k], bc[k])
            np.multiply(w_t, dcr, out=dlogits[k, b:n])
    if w_t > 0.0 and cfg.use_cdcl:
        demb = buffers.array("demb", (len(nets), rows, fw.emb.shape[-1]))
        demb[:, n:] = 0.0
        losses["cdcl"], _, purity = contrastive.cdcl_head(
            fw.emb, pseudo_cls, gate_beta, cfg.cdcl, y_true, buffers, out=demb[:, :n])
        demb[:, :n] *= w_t * cfg.lambda_cdcl
    if ram:
        mix = forward_batch(params, pairs.x, buffers=buffers, row0=n, total_rows=rows)
        losses["ram"], dram = weighted_ce_head(mix.logits[:, n:], pairs.y, pairs.w)
        np.multiply(w_t, dram, out=dlogits[:, n:])
        cache = mix.cache
    losses["total"] = losses["ce_re"] + w_t * (losses.get("cr", 0.0) + losses.get("ram", 0.0)
                                               + cfg.lambda_cdcl * losses.get("cdcl", 0.0))
    return losses, backward_batch(params, cache, dlogits, demb, buffers), purity


def _diverged(what: str, t: int, batch_idx: int, k: int, losses: dict,
              params: ModelParams) -> TrainingDiverged:
    """The abort of net k's non-finite `what`; losses is step_loss_grad's
    stacked dict (or empty) and params the stack as it was before the batch.
    The snapshot holds views of the stack, which no step updates after the
    abort."""
    snapshot = {
        "info": {"epoch": t, "batch": batch_idx, "net": metrics.NETS[k],
                 "components": {key: str(v[k]) for key, v in losses.items()}},
        "params": {name: params[i] for i, name in enumerate(metrics.NETS)},
    }
    return TrainingDiverged("non-finite %s at epoch %d batch %d (%s)"
                            % (what, t, batch_idx, metrics.NETS[k]), snapshot)


def _evaluate(params: ModelParams, test: Dataset, buffers: Buffers):
    """Test accuracy of each net and of the ensemble, and the ensemble's MSP
    scores (metrics.msp_scores_ensemble) on the test set."""
    preds = np.empty((3, test.n), dtype=np.int64)  # net1, net2, ensemble
    scores = np.empty(test.n)
    for rows, probs, ens in metrics.ensemble_chunks(params, test.x, buffers):
        preds[:2, rows] = probs.argmax(axis=-1)
        preds[2, rows] = ens.argmax(axis=1)
        scores[rows] = ens.max(axis=1)
    acc1, acc2, acc_ens = (metrics.accuracy(p, test.y_true) for p in preds)
    return {"net1": acc1, "net2": acc2, "ensemble": acc_ens}, scores


def co_train(train: Dataset, meta: MetaSet | None, test: Dataset, cfg: TrainConfig,
             ood: Dataset | None = None,
             diagnostics: metrics.DiagnosticsWriter | None = None,
             config_echo: dict | None = None, seeds_echo: dict | None = None):
    """Run the full dual-network loop and return the RunReport and the
    trained stack's ModelParams (params[k] is metrics.NETS[k]).

    Supervision for each network comes exclusively from the other network's
    frozen pre-update outputs within each batch.
    """
    if cfg.use_meta and (meta is None or meta.m == 0):
        raise ConfigError("reliability estimation needs a nonempty meta set")
    arch = Architecture(train.dim, cfg.hidden, train.num_classes, cfg.proj)
    seeds = (cfg.net1_seed, cfg.net2_seed)
    params = stack_params([init_params(arch, seed) for seed in seeds])
    velocity = np.zeros_like(params.flat)
    mix_rngs = [child_rng(seed, _MIX_STREAM) for seed in seeds]  # one stream per net
    clean_mask = train.y_obs == train.y_true
    eye = np.eye(train.num_classes)  # one-hot rows of every label
    meta_targets = eye[meta.y] if cfg.use_meta else None
    buffers = Buffers()  # the run's one workspace: forward, step and evaluation

    test_acc, id_scores = _evaluate(params, test, buffers)
    report = metrics.RunReport(
        config=config_echo if config_echo is not None else {"trainer": asdict(cfg)},
        seeds=seeds_echo if seeds_echo is not None else {
            "net1_seed": cfg.net1_seed, "net2_seed": cfg.net2_seed, "loop_seed": cfg.loop_seed},
        initial={"test_acc": test_acc},
    )

    tally = metrics.EpochTally()  # a run of no epochs reports its empty extremes
    for t in range(cfg.epochs):
        tick = time.perf_counter()
        w_t = warmup(t, cfg)
        lr_t = lr_at(t, cfg)
        strong_term = w_t > 0.0 and (cfg.use_cr or cfg.use_cdcl)
        # the epoch's rows in batch order, so each batch is a slice of them
        order = child_rng(cfg.loop_seed, _ORDER_STREAM, t).permutation(train.n)
        weak_all, strong_all = make_views(train.x, cfg.augment,
                                          child_rng(cfg.loop_seed, _VIEW_STREAM, t),
                                          draw_strong=strong_term)
        weak_all = weak_all[order]
        strong_all = strong_all[order] if strong_term else None
        given_epoch = eye[train.y_obs[order]]
        # the observed labels of both nets; a slice of it keeps the net axis
        targets_epoch = None if cfg.use_refine else np.broadcast_to(
            given_epoch, (2,) + given_epoch.shape)
        clean_epoch = clean_mask[order]
        y_true_epoch = train.y_true[order]
        tally = metrics.EpochTally(tally)

        for batch_idx, b0 in enumerate(range(0, train.n, cfg.batch_size)):
            rows = slice(b0, b0 + cfg.batch_size)
            xw = weak_all[rows]
            xs = strong_all[rows] if strong_term else None
            given = given_epoch[rows]
            batch_clean = clean_epoch[rows]
            b = len(xw)

            # one shared forward of the stack per batch; its weak-view rows
            # are the frozen pre-update co-network outputs (net1 learns from
            # net2's)
            fw = step_forward(params, xw, xs, w_t, cfg, buffers)
            co_probs = pseudo_cls = None
            if cfg.use_refine or cfg.use_meta or (cfg.use_cdcl and w_t > 0.0):
                co_probs = softmax(fw.logits[::-1, :b])
                pseudo_cls = co_probs.argmax(axis=-1)

            if cfg.use_refine:
                targets, bc = refined_targets(co_probs, given, w_t, cfg)
            else:
                targets = targets_epoch[:, rows]
                bc = [np.arange(b)] * 2

            if cfg.use_meta:
                e1, e2 = meta_gradients_closed(
                    params, xw, given, eye[pseudo_cls], meta, lr_t,
                    out=fw.rows(slice(0, b)), probs=co_probs[::-1],
                    meta_targets=meta_targets, buffers=buffers)
                if cfg.couple_meta:
                    e1 = e2 = 0.5 * (e1 + e2)
                rb = disentangle(e1, e2)  # (2, b), each net along its own batch
                tally.add_reliability(rb, batch_clean)
                if diagnostics is not None:
                    diagnostics.reliability_rows(t, batch_idx, train.ids[order[rows]],
                                                 rb.alpha, rb.beta, batch_clean)
                beta = rb.beta
                r = total_reliability(rb.alpha, beta, cfg.ram)
                eta_eff = cfg.eta_w
            else:
                beta = np.ones((2, b))
                r = np.ones((2, b))
                eta_eff = 0.0
            finite_r = np.isfinite(r).all(axis=1)
            if not finite_r.all():  # the Beta sampler needs finite shapes
                raise _diverged("reliability", t, batch_idx, int(np.argmin(finite_r)), {},
                                params)

            pairs = None
            if w_t > 0.0 and cfg.use_ram:
                pairs = mixup.build_pairs(xw, r, targets, cfg.ram, mix_rngs,
                                          symmetric=cfg.sym_ram, gate=cfg.use_grg)
                tally.add_pairs(pairs, batch_clean)
            losses, grad, purity = step_loss_grad(
                params, xw, fw, targets, r, bc, eta_eff, w_t, cfg, pairs=pairs,
                pseudo_cls=pseudo_cls, gate_beta=beta, y_true=y_true_epoch[rows],
                buffers=buffers)

            # both nets are checked before either moves, so an abort snapshot
            # holds the stack as it was before this batch
            finite_loss = np.isfinite(losses["total"])
            finite = finite_loss & np.isfinite(grad).all(axis=1)
            if not finite.all():
                k = int(np.argmin(finite))
                raise _diverged("gradient" if finite_loss[k] else "loss", t, batch_idx, k,
                                losses, params)
            tally.add_step(losses, purity)
            sgd_step(params, grad, velocity, lr_t, cfg.momentum, cfg.weight_decay, buffers)

        test_acc, id_scores = _evaluate(params, test, buffers)
        rec = tally.record(t, lr_t, w_t, test_acc)
        report.epochs.append(rec)
        report.wall_seconds.append(time.perf_counter() - tick)
        if diagnostics is not None and rec["lambda_stats"] is not None:
            diagnostics.lambda_hist(t, tally.lam_hist)

    initial = {"epoch": None, "test_acc": report.initial["test_acc"]}
    last = report.epochs[-1] if report.epochs else initial
    # the first epoch of the best ensemble accuracy
    best = max(report.epochs, key=lambda rec: rec["test_acc"]["ensemble"], default=initial)
    summary = {
        "last_acc": last["test_acc"],
        "best_acc_ensemble": best["test_acc"]["ensemble"],
        "best_epoch": best["epoch"],
        **tally.run_lows,
        "ood": None,
    }
    if ood is not None:  # id_scores are the last evaluation's, of the final params
        ood_scores = metrics.msp_scores_ensemble(params, ood.x, buffers)
        score_set = metrics.OodScoreSet(id_scores, ood_scores)
        summary["ood"] = {"auroc": metrics.auroc(score_set),
                          "fpr95": metrics.fpr_at_95_tpr(score_set)}
    report.summary = summary
    return report, params
