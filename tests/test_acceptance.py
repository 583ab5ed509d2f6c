"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The desk fixture is the shipped cfg/fixture.cfg configuration: four blob
classes in 16 dimensions (two informative), 2000 samples, 40% symmetric
corruption, a 40-sample clean meta split. The ablation grid (full pipeline,
five single-knob ablations, plain cross-entropy) runs once per module scope
and several criteria read from it.
"""

import dataclasses
import sys
import time

import numpy as np
import pytest

from noisylab import config as cfgmod
from noisylab import contrastive, metrics, mixup, net, oracles, trainer
from noisylab.trainer import co_train

GRID_SEEDS = (2, 1, 6)
PRIMARY_SEED = GRID_SEEDS[0]

FIXTURE_TEMPLATE = """
[run]
seed = %d

[dataset]
num_classes = 4
per_class = 500
dim = 16
spread = 0.6
noise_mode = symmetric
noise_rate = %s
meta_size = 40
test_per_class = 500
ood_enabled = true
ood_per_class = 500
ood_radius_factor = 1.0
ood_angle_frac = 0.5

[trainer]
epochs = 40
batch_size = 32
warmup_start = 8
warmup_full = 20
conf_threshold = 0.99
"""

VARIANTS = {
    "full": {},
    "no_ram": {"use_ram": False},
    "no_cdcl": {"use_cdcl": False},
    "no_grg": {"use_grg": False},
    "sym_ram": {"sym_ram": True},
    "coupled_meta": {"couple_meta": True},
    "plain_ce": {"use_meta": False, "use_ram": False, "use_cdcl": False,
                 "use_cr": False, "use_refine": False},
}


def _criterion(number: int, name: str, passed: bool, detail: str) -> None:
    line = "[criterion %2d] %s  %s: %s" % (number, "PASS" if passed else "FAIL",
                                           name, detail)
    print(line, file=sys.stderr, flush=True)
    assert passed, line


def _fixture_config(seed: int, rate: str = "0.4"):
    return cfgmod.build_run_config(cfgmod.parse_config_text(
        FIXTURE_TEMPLATE % (seed, rate)))


def _run_variant(cfg, overrides, want_scores=False):
    train_set, meta, test, ood = cfgmod.make_datasets(cfg)
    tcfg = dataclasses.replace(cfgmod.to_train_config(cfg), **overrides)
    report, params = co_train(train_set, meta, test, tcfg, ood=ood)
    scores = None
    if want_scores:
        scores = (metrics.msp_scores_ensemble(params, test.x),
                  metrics.msp_scores_ensemble(params, ood.x))
    return report, scores


@pytest.fixture(scope="module")
def ablation_grid(tmp_path_factory):
    """7 variants x 3 seeds on the fixture; reports plus MSP score arrays."""
    started = time.perf_counter()
    reports: dict = {name: [] for name in VARIANTS}
    scores: dict = {}
    for seed in GRID_SEEDS:
        cfg = _fixture_config(seed)
        for name, overrides in VARIANTS.items():
            report, sc = _run_variant(cfg, overrides, want_scores=(name == "full"))
            reports[name].append(report)
            if sc is not None:
                scores[seed] = sc
    elapsed = time.perf_counter() - started

    means = {name: float(np.mean([r.summary["last_acc"]["ensemble"] for r in rs]))
             for name, rs in reports.items()}
    out_dir = tmp_path_factory.mktemp("acceptance")
    grid_path = out_dir / "ablation_grid.csv"
    with open(grid_path, "w") as fh:
        fh.write("variant,mean_final_acc,margin_vs_full," +
                 ",".join("seed%d" % s for s in GRID_SEEDS) + "\n")
        for name in VARIANTS:
            per_seed = [r.summary["last_acc"]["ensemble"] for r in reports[name]]
            fh.write("%s,%.6f,%.6f,%s\n" % (
                name, means[name], means["full"] - means[name],
                ",".join("%.6f" % a for a in per_seed)))
    print("\nablation grid written to %s" % grid_path, file=sys.stderr)
    for line in open(grid_path):
        print("  " + line.rstrip(), file=sys.stderr)
    return {"reports": reports, "means": means, "elapsed": elapsed,
            "scores": scores, "grid_path": grid_path}


@pytest.fixture(scope="module")
def noise_pair_runs():
    """Full-pipeline runs at 20% and 90% corruption, fixture otherwise."""
    out = {}
    for rate in ("0.2", "0.9"):
        cfg = _fixture_config(PRIMARY_SEED, rate=rate)
        report, _ = _run_variant(cfg, {})
        out[rate] = report
    return out


def test_criterion_01_meta_gradient_exactness():
    started = time.perf_counter()
    results = oracles.suite_meta(100)
    elapsed = time.perf_counter() - started
    worst = max(r.observed for r in results)
    ok = all(r.passed for r in results) and elapsed < 60.0
    _criterion(1, "meta-gradient exactness",
               ok, "max rel err %.2e (tol 1e-3) over 100 fixtures in %.1fs" % (worst, elapsed))


def test_criterion_02_loss_gradient_integrity():
    rng = np.random.default_rng(1234)
    arch = net.Architecture(dim=3, hidden=4, num_classes=2, proj=3)
    params = net.ModelParams(arch, 0.4 * rng.standard_normal(arch.n_params))
    xw = rng.standard_normal((5, 3))
    xs = rng.standard_normal((5, 3))
    targets = np.abs(rng.standard_normal((5, 2)))
    targets /= targets.sum(axis=1, keepdims=True)
    r = rng.uniform(0.1, 2.0, 5)
    beta = rng.random(5)
    pc = rng.integers(0, 2, 5)
    bc = np.array([0, 1, 3, 4])
    tcfg = trainer.TrainConfig(epochs=10, warmup_start=0, warmup_full=2,
                               net1_seed=1, net2_seed=2, loop_seed=3)
    pairs = mixup.build_pairs(xw, r, targets, tcfg.ram, np.random.default_rng(5))
    w_t = trainer.warmup(1, tcfg)

    # each cross-entropy head reads cached logits; oracles.head_grad runs it
    # between a forward and a backward pass for its parameter gradient
    def assemble(flat):
        p = net.ModelParams(arch, flat)
        ce, _ = oracles.head_grad(p, xw, trainer.reweighted_ce_grad, targets, r, bc,
                                  tcfg.eta_w)
        cr, _ = oracles.head_grad(p, xs, trainer.consistency_loss_grad, targets, bc)
        ram, _ = net.weighted_ce_loss_grad(p, pairs.x, pairs.y, pairs.w)
        cdcl, _ = oracles.cdcl_grad(p, xw, xs, pc, beta, tcfg.cdcl)
        return {"ce_re": ce, "cr": cr, "ram": ram, "cdcl": cdcl}

    def total(flat):
        c = assemble(flat)
        return c["ce_re"] + w_t * (c["cr"] + c["ram"] + tcfg.lambda_cdcl * c["cdcl"])

    _, g_ce = oracles.head_grad(params, xw, trainer.reweighted_ce_grad, targets, r, bc,
                                tcfg.eta_w)
    _, g_cr = oracles.head_grad(params, xs, trainer.consistency_loss_grad, targets, bc)
    _, g_ram = net.weighted_ce_loss_grad(params, pairs.x, pairs.y, pairs.w)
    _, g_cd = oracles.cdcl_grad(params, xw, xs, pc, beta, tcfg.cdcl)
    grads = {"ce_re": g_ce, "cr": g_cr, "ram": g_ram, "cdcl": g_cd,
             "total": g_ce + w_t * (g_cr + g_ram + tcfg.lambda_cdcl * g_cd)}
    values = {
        "ce_re": lambda f: assemble(f)["ce_re"],
        "cr": lambda f: assemble(f)["cr"],
        "ram": lambda f: assemble(f)["ram"],
        "cdcl": lambda f: assemble(f)["cdcl"],
        "total": total,
    }
    worst = {}
    for name, value_fn in values.items():
        fd = oracles.fd_gradient(value_fn, params.flat)
        worst[name] = oracles.max_rel_error(fd, grads[name])
    # the network step's fused gradient, as co_train computes it
    for fused_wt in (0.0, 0.4):
        worst["fused_wt%g" % fused_wt] = oracles.fused_step_fd_error(
            params, xw, xs, targets, r, bc, pairs, pc, beta, fused_wt, tcfg)
    ok = all(v < 1e-5 for v in worst.values())
    _criterion(2, "loss gradient integrity", ok,
               " ".join("%s=%.1e" % (k, v) for k, v in worst.items()) + " (tol 1e-5)")


def test_criterion_03_normalization_invariants(ablation_grid):
    gaps, amins, bmins = [], [], []
    for report in ablation_grid["reports"]["full"]:
        gaps.append(report.summary["mass_gap_max"])
        amins.append(report.summary["alpha_min"])
        bmins.append(report.summary["beta_min"])
    ok = max(gaps) <= 1e-9 and min(amins) >= 0.0 and min(bmins) >= 0.0
    _criterion(3, "batch-mass identity and nonnegativity", ok,
               "max |sum(a+b) - B*S/(S+XI)| = %.2e (tol 1e-9), min alpha %.2e, min beta %.2e"
               % (max(gaps), min(amins), min(bmins)))


def test_criterion_04_beta_sampler_fidelity():
    results = oracles.suite_beta(100_000)
    worst = max(r.observed for r in results)
    ok = all(r.passed for r in results)
    # the equal-reliability case is Beta(gamma/2, gamma/2) by construction
    cfg = mixup.RamConfig()
    denom = 2.0 + mixup.DELTA
    shape = cfg.gamma * 1.0 / denom
    sym_ok = abs(shape - cfg.gamma / 2.0) < 1e-7
    _criterion(4, "Beta sampler fidelity", ok and sym_ok,
               "worst moment deviation %.2f standard errors (tol 4); symmetric "
               "case shapes (%.6f, %.6f)" % (worst, shape, shape))


def test_criterion_05_contrastive_oracle_equivalence():
    results = oracles.suite_cdcl(25)
    worst = max(r.observed for r in results)
    # the regular-simplex hand case: every anchor term is log 3
    z4 = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                   [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]) / np.sqrt(3.0)
    log3_err = abs(contrastive.cdcl_feature_grad(z4, np.array([0, 1, 0, 1]), np.full(4, 0.5),
                                                 contrastive.CdclConfig())[0]
                   - np.log(3.0))
    ok = all(r.passed for r in results) and log3_err < 1e-9
    _criterion(5, "contrastive oracle equivalence", ok,
               "max |fast - double loop| = %.2e (tol 1e-10); log3 case err %.2e (tol 1e-9)"
               % (worst, log3_err))


def test_criterion_06_ablation_ordering(ablation_grid):
    means = ablation_grid["means"]
    margins = {name: means["full"] - means[name]
               for name in VARIANTS if name not in ("full", "plain_ce")}
    ordering_ok = all(m >= 0.0 for m in margins.values())
    baseline_ok = means["full"] > means["plain_ce"]
    runtime_ok = ablation_grid["elapsed"] < 600.0
    detail = ("full=%.4f plain=%.4f (margin %+.4f); " %
              (means["full"], means["plain_ce"], means["full"] - means["plain_ce"]))
    detail += " ".join("%s%+.4f" % (k, v) for k, v in margins.items())
    detail += "; grid wall time %.0fs (budget 600s)" % ablation_grid["elapsed"]
    _criterion(6, "ablation grid ordering", ordering_ok and baseline_ok and runtime_ok,
               detail)


def test_criterion_07_purity_ordering(ablation_grid):
    raws, gateds = [], []
    for report in ablation_grid["reports"]["full"]:
        tail = report.epochs[-5:]
        raws.append(np.mean([rec["purity_raw"] for rec in tail]))
        gateds.append(np.mean([rec["purity_gated"] for rec in tail]))
    raw, gated = float(np.mean(raws)), float(np.mean(gateds))
    _criterion(7, "gated purity ordering", gated >= raw,
               "final-5-epoch purity gated %.4f vs raw %.4f (per seed: %s)"
               % (gated, raw, ["%.3f/%.3f" % (g, r) for g, r in zip(gateds, raws)]))


def test_criterion_08_gating_starvation(noise_pair_runs):
    """Both clauses asserted as specified. The floor clause is expected to
    fail at desk scale: full starvation needs a state where upweighting any
    label or pseudo-label term worsens the held-out loss (the fully-fit
    regime of a long large-scale run), and no desk-scale 90% trajectory
    reaches it; the measured endpoint is printed for the record."""

    def wmix_trace(report):
        return [rec["mean_wmix"] for rec in report.epochs
                if rec["mean_wmix"] is not None]

    low = wmix_trace(noise_pair_runs["0.2"])
    high = wmix_trace(noise_pair_runs["0.9"])
    mean_low, mean_high = float(np.mean(low)), float(np.mean(high))
    r_min = mixup.RamConfig().r_min
    final_high = high[-1]
    ordering_ok = mean_high < mean_low
    # "approaches r_min within 2x r_min": |final - r_min| <= 2 * r_min
    floor_ok = abs(final_high - r_min) <= 2.0 * r_min
    _criterion(8, "gating starvation shape", ordering_ok and floor_ok,
               "ordering %s (90%%: %.3f vs 20%%: %.3f, need <); floor %s "
               "(final 90%% gate %.3f, need within %.1f of r_min %.1f)"
               % ("ok" if ordering_ok else "FAILED", mean_high, mean_low,
                  "ok" if floor_ok else "FAILED", final_high, 2.0 * r_min, r_min))


def test_criterion_09_ood_sanity(ablation_grid):
    aurocs = []
    for seed in GRID_SEEDS:
        id_scores, ood_scores = ablation_grid["scores"][seed]
        aurocs.append(oracles.pairwise_auroc(id_scores, ood_scores))
    value = float(np.mean(aurocs))
    _criterion(9, "OOD score separation", value >= 0.6,
               "brute-force pairwise AUROC %.4f (need >= 0.6; per seed %s)"
               % (value, ["%.3f" % a for a in aurocs]))


def test_criterion_10_run_determinism(tmp_path):
    from noisylab import cli

    cfg_text = FIXTURE_TEMPLATE % (PRIMARY_SEED, "0.4")
    cfg_text = cfg_text.replace("per_class = 500", "per_class = 40")
    cfg_text = cfg_text.replace("test_per_class = 500", "test_per_class = 20")
    cfg_text = cfg_text.replace("ood_per_class = 500", "ood_per_class = 20")
    cfg_text = cfg_text.replace("epochs = 40", "epochs = 4")
    cfg_text = cfg_text.replace("warmup_start = 8", "warmup_start = 1")
    cfg_text = cfg_text.replace("warmup_full = 20", "warmup_full = 2")
    cfg_text = cfg_text.replace("meta_size = 40", "meta_size = 8")
    path = tmp_path / "det.cfg"
    path.write_text(cfg_text)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["train", "--config", str(path), "--out", str(out1)]) == 0
    assert cli.main(["train", "--config", str(path), "--out", str(out2)]) == 0
    a = (out1 / "report.json").read_bytes()
    b = (out2 / "report.json").read_bytes()
    _criterion(10, "run determinism", a == b,
               "two cmd_train invocations, report.json byte-identical: %s (%d bytes)"
               % (a == b, len(a)))
