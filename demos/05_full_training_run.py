#!/usr/bin/env python3
"""A small end-to-end co-training run: warm-up on reweighted cross-entropy,
then the ramped auxiliary objectives, with per-epoch metrics."""

from noisylab import TrainConfig, co_train, inject_symmetric_noise, make_blobs, split_meta
from noisylab.data import default_augment_config

pool = make_blobs(num_classes=4, per_class=125, dim=8, spread=0.5, seed=61)
noisy = inject_symmetric_noise(pool, rate=0.4, seed=62)
train, meta = split_meta(noisy, m=20, seed=63)
test = make_blobs(num_classes=4, per_class=75, dim=8, spread=0.5, seed=64)

cfg = TrainConfig(epochs=14, batch_size=64, warmup_start=4, warmup_full=8,
                  decay_epochs=(9, 12), hidden=48, proj=12,
                  augment=default_augment_config(0.5),
                  net1_seed=71, net2_seed=72, loop_seed=73)
report, _ = co_train(train, meta, test, cfg)

print("epoch  w(t)  acc_ens  ce_re    ram     cdcl   mean_wmix  a_clean  a_noisy")
for rec in report.epochs:
    losses = rec["losses"]["net1"]
    stats = rec["reliability_stats"]
    fmt = lambda v: "  -  " if v is None else "%5.3f" % v
    print(" %3d   %.2f   %.4f   %s   %s   %s     %s     %s    %s" % (
        rec["epoch"], rec["warmup_w"], rec["test_acc"]["ensemble"],
        fmt(losses["ce_re"]), fmt(losses["ram"]), fmt(losses["cdcl"]),
        fmt(rec["mean_wmix"]), fmt(stats["alpha_clean_mean"]),
        fmt(stats["alpha_noisy_mean"])))

summary = report.summary
print("\nbest ensemble accuracy %.4f at epoch %s" % (summary["best_acc_ensemble"],
                                                     summary["best_epoch"]))
print("reliability mass identity gap (max over all batches): %.2e"
      % summary["mass_gap_max"])
print("alpha and beta never went negative: %s"
      % (summary["alpha_min"] >= 0.0 and summary["beta_min"] >= 0.0))
