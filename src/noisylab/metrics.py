"""Evaluation quantities (accuracy, OOD separation scores) and the per-run
report with its deterministic serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .net import Buffers, ModelParams, forward_batch, softmax
from .util import dumps_deterministic

REPORT_SCHEMA_VERSION = 1
# Evaluation forwards run on chunks of this many rows per network, so their
# buffers stay small whatever the size of the evaluated set. Every quantity is
# row-wise, and a chunk of two or more rows gives each row the bits of one
# unchunked forward; a 1-row tail chunk (a set of 1 mod EVAL_ROWS rows) runs
# as matrix-vector products, whose last bits can differ, so the chunk size is
# part of a result's bits.
EVAL_ROWS = 256


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
    is the loop over candidates this replaces).
    """
    candidates = np.unique(np.concatenate([scores.id_scores, scores.ood_scores]))
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

    Serialization is deterministic (sorted keys, fixed float format) so
    identical configs and seeds reproduce the JSON byte for byte. Wall-clock
    timings are kept on the object but excluded from the JSON; the manifest
    records them.
    """

    config: dict
    seeds: dict
    initial: dict
    epochs: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    schema_version: int = REPORT_SCHEMA_VERSION
    wall_seconds: list = field(default_factory=list, repr=False)

    def validate(self) -> None:
        indices = [rec["epoch"] for rec in self.epochs]
        if indices != sorted(indices) or len(set(indices)) != len(indices):
            raise ValueError("epoch indices must be strictly increasing")

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
    from .util import csv_line

    lines = [",".join(METRICS_CSV_COLUMNS) + "\n"]
    for rec in report.epochs:
        cells = []
        for col in METRICS_CSV_COLUMNS:
            if col.startswith("loss_"):
                name, net = col.rsplit("_", 1)
                cells.append(rec["losses"][net].get(name[len("loss_"):]))
            elif col.startswith("acc_"):
                cells.append(rec["test_acc"][col[len("acc_"):]])
            elif col.startswith("lambda_mean_"):
                stats = rec.get("lambda_stats")
                key = col[len("lambda_mean_"):]
                cells.append(None if stats is None else stats[key]["mean"])
            elif col in ("alpha_clean_mean", "alpha_clean_std", "alpha_noisy_mean",
                         "alpha_noisy_std", "beta_clean_mean", "beta_clean_std",
                         "beta_noisy_mean", "beta_noisy_std"):
                cells.append(rec["reliability_stats"].get(col))
            else:
                cells.append(rec.get(col))
        lines.append(csv_line(cells))
    return "".join(lines)
