"""Evaluation quantities (accuracy, OOD separation scores) and the per-run
report with its deterministic serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .net import ModelParams, forward_batch, softmax
from .util import dumps_deterministic

REPORT_SCHEMA_VERSION = 1


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
    """1-based ranks with ties averaged."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def auroc(scores: OodScoreSet) -> float:
    """P(random ID score > random OOD score), ties counted half."""
    n_id, n_ood = scores.id_scores.size, scores.ood_scores.size
    ranks = _average_ranks(np.concatenate([scores.id_scores, scores.ood_scores]))
    rank_sum = ranks[:n_id].sum()
    return float((rank_sum - n_id * (n_id + 1) / 2.0) / (n_id * n_ood))


def fpr_at_95_tpr(scores: OodScoreSet) -> float:
    """FPR at the most selective threshold keeping ID recall >= 0.95.

    Higher score means more ID-like; a sample counts positive at threshold t
    when its score >= t.
    """
    candidates = np.unique(np.concatenate([scores.id_scores, scores.ood_scores]))[::-1]
    n_id = scores.id_scores.size
    for t in candidates:
        tpr = (scores.id_scores >= t).sum() / n_id
        if tpr >= 0.95:
            return float((scores.ood_scores >= t).mean())
    return 1.0


def msp_scores(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """Maximum softmax probability per input, using the shared softmax."""
    return softmax(forward_batch(params, inputs).logits).max(axis=1)


def msp_scores_ensemble(params_list: list[ModelParams], inputs: np.ndarray) -> np.ndarray:
    """Max of the mean softmax across networks, matching ensembled prediction."""
    probs = [softmax(forward_batch(p, inputs).logits) for p in params_list]
    return np.mean(probs, axis=0).max(axis=1)


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
