"""noisylab benchmark: three training workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload fixture --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Each measured run is a fresh single-threaded process (perfbench/worker.py)
that trains through `noisylab train` on config text generated here from
cfg/fixture.cfg, the workload's overrides and the seed (`run.seed`).
Before any timing, the oracle suite runs once and must pass. This process and
its workers stay on one CPU, and every timing is reported at the reference
speed of hostspeed.py's kernel, timed next to the work.

--trace 0 prints the end-to-end metrics; runs repeat until --seconds of
training have been measured (at least two, whose report.json files must be
byte-identical). --trace 1 makes one untraced run and then traced runs, and
prints the per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 when every
check passed, 1 when one failed and 2 when the program cannot be run.
See perfbench/README.md for the metrics and the workloads.
"""

import os

# Pin BLAS threading before anything can import numpy; workers inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import hostspeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = os.path.join(HERE, ".runs")
BASE_CONFIG = os.path.join(ROOT, "cfg", "fixture.cfg")

DEFAULT_SEED = 1        # cfg/fixture.cfg's run.seed, the seed of the ROADMAP baseline
HELDOUT_SEED = 20261017  # confirm gain claims here; never tune on it
DEFAULT_SECONDS = 30
MIN_RUNS = 2            # repeats of one seed, compared byte for byte (and call for call)
SETUP_SAMPLES = 15      # processes that stop at co_train entry
DEADLINE_S = 170.0      # the whole invocation ends before 180 s

# Workload -> config overrides on top of cfg/fixture.cfg. Why each exists is
# in README.md: fixture spreads cost over per-call overhead, plain_ce runs
# only net/data/eval, wide_batch makes the O((2B)^2) contrastive work dominate.
WORKLOADS = {
    "fixture": {},
    "plain_ce": {"trainer": {k: "false" for k in
                             ("use_meta", "use_ram", "use_cdcl", "use_cr", "use_refine")}},
    "wide_batch": {"trainer": {"batch_size": "256"}},
}

# (name, unit); README.md gives each metric's direction.
END_TO_END = [
    ("setup_s", "s"), ("run_s", "s"), ("epoch_s_p50", "s"), ("epoch_s_p75", "s"),
    ("peak_rss_mb", "MB"), ("final_acc", "fraction"), ("ood_auroc", "fraction"),
]
# Traced layers: (span name, "calls" and/or "self_s").
LAYER_SPANS = [
    ("config.make_datasets", ("self_s",)),
    ("data.make_views", ("self_s",)),
    ("net.forward_batch", ("calls", "self_s")),
    ("net.backward_batch", ("calls", "self_s")),
    ("net.per_sample_grad_dots", ("self_s",)),
    ("net.weighted_ce_loss_grad", ("self_s",)),
    ("net.ModelParams", ("calls", "self_s")),
    ("net.sgd_step", ("self_s",)),
    ("reliability.meta_gradients_closed", ("calls", "self_s")),
    ("reliability.disentangle", ("self_s",)),
    ("mixup.build_pairs", ("calls", "self_s")),
    ("mixup.gamma_sample", ("self_s",)),
    ("mixup.ram_loss_grad", ("self_s",)),
    ("contrastive.cdcl_grad", ("self_s",)),
    ("contrastive.cdcl_feature_grad", ("self_s",)),
    ("contrastive.pair_match_counts_fast", ("self_s",)),
    ("trainer.co_train", ("self_s",)),
    ("trainer.refined_targets", ("self_s",)),
    ("trainer.confidence_filter", ("self_s",)),
    ("metrics.eval", ("self_s",)),
    ("cli.artifacts", ("self_s",)),
]
DERIVED = [
    ("net.forwards_per_step", "calls/step"), ("net.backwards_per_step", "calls/step"),
    ("trainer.filter_pass_ratio", "fraction"), ("cli.artifacts.bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
]
PER_LAYER = ([("%s.%s" % (span, kind), "count" if kind == "calls" else "s")
              for span, kinds in LAYER_SPANS for kind in kinds] + DERIVED)


def set_keys(text: str, values: dict) -> str:
    """Config text with `values` ({section: {key: value}}) set in place."""
    pending = {section: dict(kv) for section, kv in values.items()}
    out, section = [], None

    def flush(sec):
        out.extend("%s = %s" % kv for kv in pending.pop(sec, {}).items())

    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            flush(section)
            section = stripped[1:-1].strip()
        elif "=" in stripped and stripped.split("=", 1)[0].strip() in pending.get(section, {}):
            key = stripped.split("=", 1)[0].strip()
            line = "%s = %s" % (key, pending[section].pop(key))
        out.append(line)
    flush(section)
    for sec in list(pending):
        out.append("[%s]" % sec)
        flush(sec)
    return "\n".join(out) + "\n"


def workload_config(workload: str, seed: int, out_dir: str) -> str:
    with open(BASE_CONFIG) as fh:
        base = fh.read()
    values = {section: dict(kv) for section, kv in WORKLOADS[workload].items()}
    values.setdefault("run", {}).update(seed=str(seed), out_dir=out_dir)
    return set_keys(base, values)


class Invocation:
    """Worker processes of one benchmark call, with their failures."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []
        self.ref_last = None  # kernel time measured right after the last timed worker
        self.timed: list[dict] = []  # raw timings and host speed of every timed worker
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")

    def spawn(self, mode: str, run_dir: str, config_text: str | None = None):
        """Run one worker; returns its result dict, or None when it failed.

        Around a timed worker (every mode but the oracle gate) the host-speed
        kernel is timed; result["speed"] scales its wall times to the
        reference speed (hostspeed.py).
        """
        self.attempted += 1
        timed = mode != "oracle"
        ref_before = None
        if timed:
            ref_before = self.ref_last if self.ref_last is not None else hostspeed.measure()
        self.ref_last = None
        os.makedirs(run_dir, exist_ok=True)
        result_path = os.path.join(run_dir, "result.json")
        cmd = [sys.executable, WORKER, mode, "--result", result_path]
        if config_text is not None:
            config_path = os.path.join(run_dir, "workload.cfg")
            with open(config_path, "w") as fh:
                fh.write(config_text)
            cmd += ["--config", config_path]
        timeout = max(1.0, self.deadline - time.monotonic())
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.fail("%s: %s worker killed after %.0f s" % (run_dir, mode, timeout))
            return None
        if proc.returncode != 0 or not os.path.isfile(result_path):
            tail = (proc.stderr or "").strip().splitlines()[-5:]
            self.fail("%s: %s worker exited %d: %s"
                      % (run_dir, mode, proc.returncode, " | ".join(tail)))
            return None
        with open(result_path) as fh:
            result = json.load(fh)
        result["wall_s"] = time.monotonic() - t0
        if timed:
            self.ref_last = hostspeed.measure()
            result["ref_s"] = [ref_before, self.ref_last]
            result["speed"] = hostspeed.NOMINAL_S / statistics.mean(result["ref_s"])
            self.timed.append(dict({k: result.get(k) for k in
                                    ("setup_s", "run_s", "epoch_s", "epoch_ref", "ref_s", "speed")},
                                   mode=mode))
        if result["failures"]:
            self.fail("%s: %s" % (run_dir, "; ".join(result["failures"])))
            return None
        return result

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print("FAIL " + message, file=sys.stderr)


def repeat_runs(inv: Invocation, mode: str, workload: str, seed: int, seconds: float,
                wdir: str, tag: str) -> list:
    """Runs of one mode until `seconds` of them are measured (at least MIN_RUNS).

    A run is started only when the one before suggests it ends in time.
    """
    runs, start = [], time.monotonic()
    while True:
        run_dir = os.path.join(wdir, "%s%d" % (tag, len(runs)))
        began = time.monotonic()
        res = inv.spawn(mode, run_dir, workload_config(workload, seed, run_dir))
        if res is None:
            break
        runs.append(res)
        last = time.monotonic() - began
        if len(runs) >= MIN_RUNS and time.monotonic() - start + last > seconds:
            break
    return runs


def check_identical_reports(inv: Invocation, runs: list) -> None:
    digests = {r["report_sha256"] for r in runs}
    if len(digests) > 1:
        inv.fail("repeats of one seed wrote %d different report.json files" % len(digests))


def scaled(run: dict) -> dict:
    """The run's times at the reference speed (hostspeed.py)."""
    return hostspeed.scale_run(run["epoch_s"], run["epoch_ref"], run["run_s"], run["speed"])


def end_to_end_metrics(runs: list, setups: list) -> dict:
    """Timings at the reference speed; the rest as measured."""
    scaled_runs = [scaled(r) for r in runs]
    epochs = [s for r in scaled_runs for s in r["epoch_s"]]
    return {
        "setup_s": statistics.median([s["setup_s"] * s["speed"] for s in setups]),
        "run_s": statistics.median([r["run_s"] for r in scaled_runs]),
        "epoch_s_p50": statistics.median(epochs),
        "epoch_s_p75": statistics.quantiles(epochs, n=4)[2],
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in runs]),
        "final_acc": runs[0]["final_acc"],
        "ood_auroc": runs[0]["ood_auroc"],
    }


def per_layer_metrics(traced: list, untraced: dict) -> dict:
    first = traced[0]
    out = {}
    for span, kinds in LAYER_SPANS:
        recs = [t["layers"].get(span, {"calls": 0, "self_s": 0.0}) for t in traced]
        if "calls" in kinds:
            out[span + ".calls"] = recs[0]["calls"]
        if "self_s" in kinds:
            out[span + ".self_s"] = statistics.median(
                [rec["self_s"] * scaled(t)["factor"] for rec, t in zip(recs, traced)])
    steps = first["network_steps"]
    layers = first["layers"]
    out["net.forwards_per_step"] = layers["net.forward_batch"]["calls"] / steps
    out["net.backwards_per_step"] = layers["net.backward_batch"]["calls"] / steps
    counters = first["counters"]
    out["trainer.filter_pass_ratio"] = counters["ce_rows_kept"] / counters["ce_rows_offered"]
    out["cli.artifacts.bytes"] = first["artifact_bytes"]
    traced_run_s = statistics.median([scaled(t)["run_s"] for t in traced])
    out["trace.overhead_ratio"] = traced_run_s / scaled(untraced)["run_s"]
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> tuple[Invocation, dict, list[str]]:
    inv = Invocation(deadline)
    wdir = os.path.join(WORK_DIR, workload)
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    notes = []

    gate = inv.spawn("oracle", os.path.join(wdir, "oracle"))
    if gate is None:
        return inv, {}, notes
    notes.append("oracle gate: %d/%d checks passed"
                 % (sum(c["passed"] for c in gate["checks"]), len(gate["checks"])))

    if not trace:
        setups = [inv.spawn("setup", os.path.join(wdir, "setup%d" % k),
                            workload_config(workload, seed, os.path.join(wdir, "setup%d" % k)))
                  for k in range(SETUP_SAMPLES)]
        runs = repeat_runs(inv, "full", workload, seed, seconds, wdir, "run")
        if inv.failures or not runs:
            return inv, {}, notes
        check_identical_reports(inv, runs)
        metrics = end_to_end_metrics(runs, setups)
        epochs = sum(len(r["epoch_s"]) for r in runs)
        notes.append("runs: %d training (%.1f s measured), %d set-up samples, %d epochs"
                     % (len(runs), sum(r["wall_s"] for r in runs), len(setups), epochs))
        factors = [s["speed"] for s in setups] + [scaled(r)["factor"] for r in runs]
        notes.append("host-speed factors %.3f-%.3f; as measured: setup_s %.4g s, run_s %.4g s"
                     % (min(factors), max(factors),
                        statistics.median([s["setup_s"] for s in setups]),
                        statistics.median([r["run_s"] for r in runs])))
        runs_for_env = runs
    else:
        untraced = inv.spawn("full", os.path.join(wdir, "untraced"),
                             workload_config(workload, seed, os.path.join(wdir, "untraced")))
        traced = repeat_runs(inv, "trace", workload, seed, seconds, wdir, "traced")
        if inv.failures or untraced is None or not traced:
            return inv, {}, notes
        check_identical_reports(inv, [untraced] + traced)
        calls = [{k: v["calls"] for k, v in t["layers"].items()} for t in traced]
        if any(c != calls[0] for c in calls[1:]):
            inv.fail("traced runs of one seed counted different calls")
        metrics = per_layer_metrics(traced, untraced)
        notes.append("runs: 1 untraced, %d traced; spans in %s"
                     % (len(traced), os.path.relpath(os.path.join(wdir, "traced0", "spans.txt"),
                                                     ROOT)))
        runs_for_env = [untraced]
    env = dict(runs_for_env[0]["env"])
    env.update(cores=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
               git_rev=git_revision(), src_sha256=source_digest(), seed=seed,
               max_threads=max(r["threads"] for r in runs_for_env))
    if env["max_threads"] > env["affinity"]:
        inv.fail("a worker ran %d threads on %d cores" % (env["max_threads"], env["affinity"]))
    notes.append("env: " + json.dumps(env, sort_keys=True))
    with open(os.path.join(wdir, "summary.json"), "w") as fh:
        json.dump({"workload": workload, "trace": trace, "env": env, "metrics": metrics,
                   "failures": inv.failures, "timed": inv.timed}, fh, indent=1, sort_keys=True)
    return inv, metrics, notes


def git_revision() -> str:
    # the ceiling keeps git from reading repositories above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "not a git checkout"


def source_digest() -> str:
    """sha256 over src/noisylab/*.py, a revision id that needs no git."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "noisylab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def print_metrics(workload: str, metrics: dict, specs) -> None:
    for name, unit in specs:
        if name in metrics:
            print("  %-8s %-38s %.6g %s" % (workload, name, metrics[name], unit))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n")[0],
        epilog="default seed %d; held-out seed %d" % (DEFAULT_SEED, HELDOUT_SEED))
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (os.path.join(ROOT, "src", "noisylab", "__init__.py"), BASE_CONFIG):
        if not os.path.isfile(needed):
            print("error: %s not found; run from a noisylab checkout" % needed, file=sys.stderr)
            return 2

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    hostspeed.pin_to_one_cpu()
    start = time.monotonic()
    attempted = failed = 0
    correct = True
    metrics_out = {}
    specs = PER_LAYER if args.trace else END_TO_END
    units = dict(specs)
    for workload in workloads:
        deadline = time.monotonic() + DEADLINE_S
        inv, metrics, notes = run_workload(workload, args.seed, args.seconds,
                                           bool(args.trace), deadline)
        attempted += inv.attempted
        failed += len(inv.failures)
        correct = correct and not inv.failures and bool(metrics)
        print("workload %s  seed %d  trace %d" % (workload, args.seed, args.trace))
        for note in notes:
            print("  " + note)
        print_metrics(workload, metrics, specs)
        if not args.trace:
            print("  %-8s %-38s %.6g fraction (%d of %d operations failed)"
                  % (workload, "fail_rate", len(inv.failures) / max(inv.attempted, 1),
                     len(inv.failures), inv.attempted))
        prefix = "" if len(workloads) == 1 else workload + "."
        for name, value in metrics.items():
            metrics_out[prefix + name] = {"value": value, "unit": units[name]}
    print("total wall %.1f s" % (time.monotonic() - start))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics_out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
