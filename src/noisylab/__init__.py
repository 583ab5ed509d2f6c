"""noisylab: a desk-scale laboratory for reliability-weighted learning from
noisy labels.

The pipeline estimates disentangled per-sample reliabilities for the observed
label and the co-network pseudo-label via bilevel meta-gradients, routes them
into reliability-arbitrated Mixup with per-pair gating and a consensus-gated
contrastive loss, and co-trains two networks that exchange targets. Every
numeric path is checked against an independent brute-force oracle.
"""

__version__ = "0.1.0"

from .contrastive import CdclConfig, normalize_beta
from .data import inject_asymmetric_noise, inject_symmetric_noise, make_blobs, split_meta
from .metrics import OodScoreSet, auroc, fpr_at_95_tpr
from .mixup import RamConfig, total_reliability
from .reliability import disentangle, meta_gradients_closed
from .trainer import TrainConfig, co_train
