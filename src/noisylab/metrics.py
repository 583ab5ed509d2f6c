"""Evaluation quantities (accuracy, OOD separation scores) and the run
record, whose layout only this module knows: the epoch tally, the report and
its deterministic serialization, metrics.csv and the --diagnostics streams."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .net import Buffers, ModelParams, forward_batch, softmax
from .reliability import ReliabilityBatch
from .util import FLOAT_FMT, csv_line, dumps_deterministic

REPORT_SCHEMA_VERSION = 1
# Evaluation forwards run on chunks of this many rows per network, so their
# buffers stay small whatever the size of the evaluated set. Every quantity is
# row-wise, and a chunk of two or more rows gives each row the bits of one
# unchunked forward; a 1-row tail chunk (a set of 1 mod EVAL_ROWS rows) runs
# as matrix-vector products, whose last bits can differ, so the chunk size is
# part of a result's bits.
EVAL_ROWS = 256
# the co-trained networks, in the order of the stack's leading axis
NETS = ("net1", "net2")
# Mixup pair kinds, indexed by the number of clean-labeled endpoints
PAIR_KINDS = ("noisy_noisy", "clean_noisy", "clean_clean")
# equal-width bins of [0, 1] in each pair kind's lambda histogram
LAMBDA_BINS = 10


def accuracy(predictions: np.ndarray, true_labels: np.ndarray) -> float:
    predictions = np.asarray(predictions)
    true_labels = np.asarray(true_labels)
    if predictions.shape != true_labels.shape:
        raise ValueError("predictions and labels must have equal length")
    if predictions.size == 0:
        raise ValueError("accuracy of an empty set is undefined")
    return float((predictions == true_labels).mean())


@dataclass
class OodScoreSet:
    id_scores: np.ndarray
    ood_scores: np.ndarray

    def __post_init__(self):
        self.id_scores = np.asarray(self.id_scores, dtype=np.float64)
        self.ood_scores = np.asarray(self.ood_scores, dtype=np.float64)
        if self.id_scores.size == 0 or self.ood_scores.size == 0:
            raise ValueError("both score sets must be nonempty")


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged: a run of `count` equal values
    ending at sorted position `end` (1-based) shares end - (count - 1) / 2."""
    _, run, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[run]


def auroc(scores: OodScoreSet) -> float:
    """P(random ID score > random OOD score), ties counted half."""
    n_id, n_ood = scores.id_scores.size, scores.ood_scores.size
    ranks = _average_ranks(np.concatenate([scores.id_scores, scores.ood_scores]))
    rank_sum = ranks[:n_id].sum()
    return float((rank_sum - n_id * (n_id + 1) / 2.0) / (n_id * n_ood))


def fpr_at_95_tpr(scores: OodScoreSet) -> float:
    """FPR at the most selective threshold keeping ID recall >= 0.95.

    Higher score means more ID-like; a sample counts positive at threshold t
    when its score >= t. The candidate thresholds are the observed scores;
    one searchsorted gives every candidate's recall (oracles.sweep_fpr_at_tpr
    is the loop over candidates this replaces). The distinct candidates come
    from one sort and a mask of the entries that differ from their
    predecessor; np.unique would import numpy.ma to ask whether they are
    masked.
    """
    candidates = np.sort(np.concatenate([scores.id_scores, scores.ood_scores]))
    candidates = candidates[np.concatenate(([True], candidates[1:] != candidates[:-1]))]
    n_id = scores.id_scores.size
    kept = n_id - np.searchsorted(np.sort(scores.id_scores), candidates, side="left")
    passing = np.flatnonzero(kept / n_id >= 0.95)
    if passing.size == 0:
        return 1.0
    return float((scores.ood_scores >= candidates[passing[-1]]).mean())


def ensemble_chunks(params: ModelParams, inputs: np.ndarray,
                    buffers: Buffers | None = None):
    """The softmax of each net of a stack (net.stack_params) and the
    ensemble's prediction, the mean softmax across the nets, on consecutive
    EVAL_ROWS-row chunks of inputs, yielded as (row slice, per-net
    probabilities, ensemble probabilities).

    The forwards run in `buffers`, where a chunk's logits last only until the
    next forward, so each softmax is taken at once, into a fresh array.
    """
    buffers = buffers or Buffers()
    for start in range(0, len(inputs), EVAL_ROWS):
        rows = slice(start, start + EVAL_ROWS)
        probs = softmax(forward_batch(params, inputs[rows], buffers=buffers).logits)
        yield rows, probs, probs.mean(axis=0)


def msp_scores_ensemble(params: ModelParams, inputs: np.ndarray,
                        buffers: Buffers | None = None) -> np.ndarray:
    """Max of the ensemble's softmax (ensemble_chunks), matching ensembled
    prediction."""
    scores = np.empty(len(inputs))
    for rows, _, ens in ensemble_chunks(params, inputs, buffers):
        scores[rows] = ens.max(axis=1)
    return scores


@dataclass
class RunReport:
    """Per-epoch metrics plus the final summary for one training run.

    Serialization goes through util.dumps_deterministic (sorted keys,
    shortest round-trip floats), so identical configs and seeds reproduce
    the JSON byte for byte. Wall-clock timings are kept on the object but
    excluded from the JSON; the manifest records them.
    """

    config: dict
    seeds: dict
    initial: dict
    epochs: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    schema_version: int = REPORT_SCHEMA_VERSION
    wall_seconds: list = field(default_factory=list, repr=False)

    def to_json(self) -> str:
        payload = {
            "schema_version": self.schema_version,
            "config": self.config,
            "seeds": self.seeds,
            "initial": self.initial,
            "epochs": self.epochs,
            "summary": self.summary,
        }
        return dumps_deterministic(payload)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        raw = json.loads(text)
        return cls(config=raw["config"], seeds=raw["seeds"], initial=raw["initial"],
                   epochs=raw["epochs"], summary=raw["summary"],
                   schema_version=raw["schema_version"])


METRICS_CSV_COLUMNS = [
    "epoch", "lr", "warmup_w",
    "loss_ce_re_net1", "loss_cr_net1", "loss_ram_net1", "loss_cdcl_net1", "loss_total_net1",
    "loss_ce_re_net2", "loss_cr_net2", "loss_ram_net2", "loss_cdcl_net2", "loss_total_net2",
    "acc_net1", "acc_net2", "acc_ensemble",
    "alpha_clean_mean", "alpha_clean_std", "alpha_noisy_mean", "alpha_noisy_std",
    "beta_clean_mean", "beta_clean_std", "beta_noisy_mean", "beta_noisy_std",
    "purity_raw", "purity_gated", "mean_wmix",
    "lambda_mean_clean_clean", "lambda_mean_clean_noisy", "lambda_mean_noisy_noisy",
]


def metrics_csv(report: RunReport) -> str:
    """One row per epoch, floats at 17 significant digits."""
    lines = [",".join(METRICS_CSV_COLUMNS) + "\n"]
    for rec in report.epochs:
        stats = rec["reliability_stats"]
        cells = []
        for col in METRICS_CSV_COLUMNS:
            if col.startswith("loss_"):
                name, net = col.rsplit("_", 1)
                cells.append(rec["losses"][net].get(name[len("loss_"):]))
            elif col.startswith("acc_"):
                cells.append(rec["test_acc"][col[len("acc_"):]])
            elif col.startswith("lambda_mean_"):
                lam = rec.get("lambda_stats")
                key = col[len("lambda_mean_"):]
                cells.append(None if lam is None else lam[key]["mean"])
            elif col in stats:
                cells.append(stats[col])
            else:
                cells.append(rec.get(col))
        lines.append(csv_line(cells))
    return "".join(lines)


class EpochTally:
    """One epoch's sums across batches and both networks, from which it
    builds the epoch's record, and the run's reliability extremes so far
    (the summary's), carried on from the previous epoch's tally."""

    def __init__(self, previous: EpochTally | None = None):
        self.losses = {}  # term -> (2,) sums, one per net
        self.batches = 0  # every batch of an epoch runs the same loss terms
        self.reliability = []  # each batch's stacked ReliabilityBatch and clean mask
        self.wmix_sum = 0.0
        # by pair kind (PAIR_KINDS); lam_hist's row sums are the pair counts
        self.lam_sums = np.zeros(len(PAIR_KINDS))
        self.lam_hist = np.zeros((len(PAIR_KINDS), LAMBDA_BINS), dtype=np.int64)
        self.purity = np.zeros(4)  # matches, pairs, gated matches, gate mass
        self.run_lows = dict(previous.run_lows) if previous else {
            "mass_gap_max": None, "alpha_min": None, "beta_min": None}

    def add_reliability(self, rb, clean):
        """One batch's stacked reliabilities; record reads them."""
        self.reliability.append((rb, clean))

    def add_pairs(self, pairs, clean):
        """One batch's stacked Mixup pairs; the float sums run net by net."""
        lam = pairs.lam
        kinds = clean.astype(np.int64) + clean[pairs.j]
        for w, lam_k, kinds_k in zip(pairs.w, lam, kinds):
            self.wmix_sum += float(w.sum())
            for kind in range(len(PAIR_KINDS)):
                self.lam_sums[kind] += lam_k[kinds_k == kind].sum()
        bins = np.minimum((lam * LAMBDA_BINS).astype(np.int64), LAMBDA_BINS - 1)
        self.lam_hist += np.bincount((kinds * LAMBDA_BINS + bins).ravel(),
                                     minlength=self.lam_hist.size).reshape(self.lam_hist.shape)

    def add_step(self, losses, purity):
        """One batch's trainer.step_loss_grad losses and purity totals."""
        self.batches += 1
        for key, value in losses.items():
            self.losses[key] = self.losses.get(key, 0.0) + value
        if purity is not None:
            for counts in purity:  # net 1's totals before net 2's
                self.purity += counts

    def record(self, t: int, lr: float, w_t: float, test_acc: dict) -> dict:
        """The epoch's entry of RunReport.epochs."""
        means = {key: (sums / self.batches).tolist() for key, sums in self.losses.items()}
        # batches of one size stack into one (batches, nets, B) block, and the
        # masks keep (batch, net, row) order: each batch's rows in turn
        parts = {}
        mass_gap = None
        lows = self.run_lows
        for _, group in groupby(self.reliability, key=lambda entry: entry[0].alpha.shape):
            rbs, cleans = zip(*group)
            rb = ReliabilityBatch(*(np.stack([getattr(one, key) for one in rbs])
                                    for key in ("alpha", "beta", "mass")))
            clean = np.broadcast_to(np.stack(cleans)[:, None, :], rb.alpha.shape)
            for prefix in ("alpha", "beta"):
                values = getattr(rb, prefix)
                parts.setdefault((prefix, "clean"), []).append(values[clean])
                parts.setdefault((prefix, "noisy"), []).append(values[~clean])
            gap = rb.mass_identity_gap()
            mass_gap = gap if mass_gap is None else max(mass_gap, gap)
            for key, value, pick in (("mass_gap_max", gap, max),
                                     ("alpha_min", float(rb.alpha.min()), min),
                                     ("beta_min", float(rb.beta.min()), min)):
                lows[key] = value if lows[key] is None else pick(lows[key], value)
        stats = {}
        for label in ("clean", "noisy"):
            for prefix in ("alpha", "beta"):
                values = np.concatenate(parts.get((prefix, label), [np.array([])]))
                base = "%s_%s" % (prefix, label)
                stats[base + "_mean"] = float(values.mean()) if values.size else None
                stats[base + "_std"] = float(values.std()) if values.size else None
        n_pairs = int(self.lam_hist.sum())
        lam = None
        if n_pairs:
            lam = {name: {"count": int(n), "mean": float(s) / int(n) if n else None}
                   for name, n, s in zip(PAIR_KINDS, self.lam_hist.sum(axis=1), self.lam_sums)}
            lam["hist"] = self.lam_hist.sum(axis=0).tolist()
        pur = self.purity
        return {
            "epoch": t,
            "lr": lr,
            "warmup_w": w_t,
            "losses": {name: {key: means[key][k] if key in means else None
                              for key in ("ce_re", "cr", "ram", "cdcl", "total")}
                       for k, name in enumerate(NETS)},
            "test_acc": test_acc,
            "reliability_stats": stats,
            "purity_raw": pur[0] / pur[1] if pur[1] > 0 else None,
            "purity_gated": pur[2] / pur[3] if pur[3] > 0 else None,
            "mean_wmix": self.wmix_sum / n_pairs if n_pairs else None,
            "lambda_stats": lam,
            "mass_gap_max": mass_gap,
        }


class DiagnosticsWriter:
    """Optional CSV streams: per-sample reliabilities and interpolation
    histograms by pair type (each epoch's purity is in metrics.csv)."""

    def __init__(self, out_dir):
        self._rel = open(os.path.join(out_dir, "diag_reliability.csv"), "w")
        self._rel.write("epoch,batch,id,alpha,beta,is_label_clean\n")
        self._lam = open(os.path.join(out_dir, "diag_lambda.csv"), "w")
        self._lam.write("epoch,pair_type,bin_lo,bin_hi,count\n")

    def reliability_rows(self, epoch, batch_idx, ids, alpha, beta, clean):
        """One row per sample of each net; alpha and beta hold a row per net.
        One % per row, each cell formatted as csv_cell formats it."""
        row = "%d,%d,%d," + FLOAT_FMT + "," + FLOAT_FMT + ",%s\n"
        cells = list(zip(ids.tolist(), ["true" if c else "false" for c in clean.tolist()]))
        for alpha_k, beta_k in zip(alpha, beta):
            self._rel.write("".join([row % (epoch, batch_idx, i, a, b, flag) for (i, flag), a, b
                                     in zip(cells, alpha_k.tolist(), beta_k.tolist())]))

    def lambda_hist(self, epoch, hist_by_kind):
        """Each bin of EpochTally.lam_hist, bins splitting [0, 1] evenly."""
        edges = np.linspace(0.0, 1.0, hist_by_kind.shape[1] + 1)
        for kind in (2, 1, 0):  # clean_clean first
            counts = hist_by_kind[kind]
            for b in range(len(counts)):
                self._lam.write(csv_line([epoch, PAIR_KINDS[kind], float(edges[b]),
                                          float(edges[b + 1]), int(counts[b])]))

    def close(self):
        for fh in (self._rel, self._lam):
            fh.close()
