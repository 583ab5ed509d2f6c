"""One benchmark process: the `noisylab train` path on a generated config.

run.py starts this script in a fresh interpreter, with BLAS threads pinned
to one, once per measured run. It calls `noisylab.cli.main(["train", ...])`,
so a run goes config text -> config.make_datasets -> trainer.co_train -> run
artifacts exactly as the command line does, and it notes the time at which
co_train is entered and the time at which every artifact is written. In a
training run it also times the host-speed kernel (hostspeed.py) at the start
of every epoch, so run.py can report the epochs at the reference speed. It
then checks the artifacts and writes one result JSON file.

    python3 perfbench/worker.py MODE --config FILE --t0 T --result FILE

MODE is one of
  oracle  run oracles.run_suite("all") and record every check
  setup   stop as soon as co_train is entered (a set-up time sample)
  full    one untraced training run
  trace   one training run with every public noisylab function traced
T is the time.monotonic() reading the parent took just before starting this
process, so set-up time counts interpreter start-up and imports.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import pkgutil
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

ARTIFACTS = ("report.json", "metrics.csv", "checkpoint_net1.bin",
             "checkpoint_net2.bin", "manifest.json")
MASS_IDENTITY_TOL = 1e-9  # the batch-mass identity tolerance of acceptance criterion 3
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Span names that differ from <module>.<function>. Evaluation is one layer:
# the per-epoch accuracy pass and the final OOD scoring.
RENAME = {
    "trainer._evaluate": "metrics.eval",
    "metrics.accuracy": "metrics.eval",
    "metrics.msp_scores_ensemble": "metrics.eval",
    "metrics.auroc": "metrics.eval",
    "metrics.fpr_at_95_tpr": "metrics.eval",
}
# Folded spans count everything below them as their own time.
FOLD = {"config.make_datasets", "cli.artifacts"}


class _SetupDone(Exception):
    """Raised at co_train entry in setup mode to end the run there."""


def _count_ce_rows(counters, args, kwargs):
    # reweighted_ce_grad(params, weak_x, targets, reliabilities, bc, cfg, eta_w)
    weak_x = args[1] if len(args) > 1 else kwargs["weak_x"]
    bc = args[4] if len(args) > 4 else kwargs["bc"]
    counters["ce_rows_offered"] = counters.get("ce_rows_offered", 0) + len(weak_x)
    counters["ce_rows_kept"] = counters.get("ce_rows_kept", 0) + len(bc)


PROBES = {"trainer.reweighted_ce_grad": _count_ce_rows}


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = "%s %s" % (blas.get("name"), blas.get("version"))
    except (AttributeError, KeyError, TypeError):
        blas_text = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_text,
        "threads_env": {k: os.environ.get(k) for k in PINNED},
    }


def install_tracer():
    import noisylab
    from tracer import Tracer

    modules = [noisylab] + [importlib.import_module("noisylab." + info.name)
                            for info in pkgutil.iter_modules(noisylab.__path__)]
    tracer = Tracer()
    tracer.install(modules, rename=RENAME, fold=FOLD, probes=PROBES)
    return tracer


def install_epoch_reference() -> list:
    """Time the host-speed kernel at the start of every epoch.

    trainer calls warmup(t, cfg) first thing in epoch t (and again with the
    same t from total_loss), so the first call with a new t marks an epoch
    start. Returns the list that collects (seconds spent, kernel median) per
    epoch; the seconds spent lie inside the epoch's wall time. Without a
    trainer.warmup the list stays empty and run.py falls back to the kernel
    times it takes around the whole process.
    """
    import hostspeed
    from noisylab import trainer

    refs = []
    inner = getattr(trainer, "warmup", None)
    if inner is None:
        return refs
    last = [None]

    def warmup(t, cfg):
        if t != last[0]:
            last[0] = t
            t0 = time.perf_counter()
            med = hostspeed.measure_calls()
            refs.append((time.perf_counter() - t0, med))
        return inner(t, cfg)

    trainer.warmup = warmup
    return refs


def check_run(out_dir: str, report, test, tcfg) -> list[str]:
    """Everything a correct run must satisfy; returns the failures."""
    from noisylab.metrics import RunReport, accuracy
    from noisylab.net import forward_batch, load_checkpoint, softmax

    problems = []
    missing = [a for a in ARTIFACTS if not os.path.isfile(os.path.join(out_dir, a))]
    if missing:
        return ["missing artifacts: %s" % ", ".join(missing)]
    with open(os.path.join(out_dir, "report.json")) as fh:
        text = fh.read()
    if text != report.to_json():
        problems.append("report.json differs from the returned report")
    parsed = RunReport.from_json(text)
    if len(parsed.epochs) != tcfg.epochs:
        problems.append("report has %d epochs, expected %d" % (len(parsed.epochs), tcfg.epochs))
    for rec in parsed.epochs:
        for net_name, losses in rec["losses"].items():
            if losses.get("total") is None:
                problems.append("epoch %d %s: no total loss" % (rec["epoch"], net_name))
            bad = [k for k, v in losses.items() if v is not None and not math.isfinite(v)]
            if bad:
                problems.append("epoch %d %s: non-finite %s" % (rec["epoch"], net_name, bad))
    summary = parsed.summary
    if tcfg.use_meta:
        gap = summary.get("mass_gap_max")
        if gap is None or not gap <= MASS_IDENTITY_TOL:
            problems.append("mass_gap_max %r exceeds %g" % (gap, MASS_IDENTITY_TOL))
        for key in ("alpha_min", "beta_min"):
            if summary.get(key) is None or not summary[key] >= 0.0:
                problems.append("%s is %r, expected >= 0" % (key, summary.get(key)))
    ood = summary.get("ood")
    if ood is None or not 0.0 <= ood["auroc"] <= 1.0:
        problems.append("ood auroc missing or outside [0, 1]: %r" % (ood,))
    with open(os.path.join(out_dir, "metrics.csv")) as fh:
        if sum(1 for _ in fh) != tcfg.epochs + 1:
            problems.append("metrics.csv does not have one row per epoch")
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    if len(manifest["timing"]["wall_seconds_per_epoch"]) != tcfg.epochs:
        problems.append("manifest timing does not cover every epoch")
    # the checkpoints must reproduce the reported final ensemble accuracy
    probs = [softmax(forward_batch(load_checkpoint(os.path.join(out_dir, name)), test.x,
                                   eval_mode=True).logits)
             for name in ("checkpoint_net1.bin", "checkpoint_net2.bin")]
    ens = accuracy((0.5 * (probs[0] + probs[1])).argmax(axis=1), test.y_true)
    if ens != summary["last_acc"]["ensemble"]:
        problems.append("checkpoints give ensemble accuracy %r, report says %r"
                        % (ens, summary["last_acc"]["ensemble"]))
    return problems


def run_oracles() -> dict:
    from noisylab import oracles

    checks = [{"name": r.name, "observed": r.observed, "tolerance": r.tolerance,
               "passed": r.passed} for r in oracles.run_suite("all")]
    failures = ["oracle check %s failed" % c["name"] for c in checks if not c["passed"]]
    if not checks:
        failures.append("oracle suite ran no checks")
    return {"checks": checks, "failures": failures}


def run_training(mode: str, config_path: str, t0: float, out_dir: str) -> dict:
    import noisylab
    from noisylab import cli

    if os.path.dirname(os.path.abspath(noisylab.__file__)) != os.path.join(SRC, "noisylab"):
        raise RuntimeError("imported noisylab from %s, not from this checkout" % noisylab.__file__)
    tracer = install_tracer() if mode == "trace" else None
    marks = {}
    inner = cli.co_train

    def timed_co_train(train, meta, test, cfg, **kwargs):
        marks["entry"] = time.monotonic()
        if mode == "setup":
            raise _SetupDone
        out = inner(train, meta, test, cfg, **kwargs)
        marks["run"] = (out[0], test, cfg, train.n)
        if tracer is not None:
            tracer.open("cli.artifacts", fold=True)  # closed when cmd_train returns
        return out

    cli.co_train = timed_co_train
    # installed after the tracer, so the kernel runs outside the traced warmup span
    epoch_ref = install_epoch_reference() if mode != "setup" else None
    try:
        code = cli.main(["train", "--config", config_path])
    except _SetupDone:
        return {"setup_s": marks["entry"] - t0, "failures": []}
    done = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.stop()
    threads = len(os.listdir("/proc/self/task"))
    if code != 0:
        return {"failures": ["noisylab train exited with code %d" % code]}

    report, test, tcfg, n_train = marks["run"]
    result = {
        "setup_s": marks["entry"] - t0,
        "run_s": done - marks["entry"],
        "epoch_s": list(report.wall_seconds),
        "epoch_ref": epoch_ref if len(epoch_ref) == len(report.wall_seconds) else None,
        "peak_rss_mb": peak_rss_mb,
        "threads": threads,
        "final_acc": report.summary["last_acc"]["ensemble"],
        "ood_auroc": (report.summary.get("ood") or {}).get("auroc"),
        "network_steps": 2 * math.ceil(n_train / tcfg.batch_size) * tcfg.epochs,
        "artifact_bytes": sum(os.path.getsize(os.path.join(out_dir, a))
                              for a in ARTIFACTS if os.path.isfile(os.path.join(out_dir, a))),
        "failures": check_run(out_dir, report, test, tcfg),
    }
    with open(os.path.join(out_dir, "report.json"), "rb") as fh:
        result["report_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    if tracer is not None:
        result["layers"] = tracer.summary()
        # the epoch-start kernel ran inside co_train's span, outside its children
        result["layers"]["trainer.co_train"]["self_s"] -= sum(spent for spent, _ in epoch_ref)
        result["counters"] = tracer.counters
        tracer.dump(os.path.join(out_dir, "spans.txt"))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("mode", choices=("oracle", "setup", "full", "trace"))
    parser.add_argument("--config")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    unpinned = [k for k in PINNED if os.environ.get(k) != "1"]
    if unpinned:
        print("worker: %s must be 1" % ", ".join(unpinned), file=sys.stderr)
        return 2
    if args.mode == "oracle":
        result = run_oracles()
    else:
        out_dir = os.path.dirname(os.path.abspath(args.result))
        result = run_training(args.mode, args.config, args.t0, out_dir)
    result["env"] = environment()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
