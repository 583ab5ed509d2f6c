"""Command-line entry point.

Subcommands: generate (write dataset files), train (full co-training run),
oracle (self-check suites against the brute-force oracles), report
(pretty-print a run report). Exit codes: 0 success, 1 runtime failure
(including running out of memory), 2 configuration or input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__, config
from .data import dataset_csv_chunks, save_dataset
from .metrics import NETS, DiagnosticsWriter, RunReport, metrics_csv
from .net import save_checkpoint
from .trainer import co_train
from .util import ConfigError, TrainingDiverged, dumps_deterministic, read_text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="noisylab")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write dataset CSV + sidecar JSON")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", default=None, help="output directory (overrides run.out_dir)")
    gen.add_argument("--seed", type=int, default=None, help="override run.seed")

    tr = sub.add_parser("train", help="run co-training and write the report")
    tr.add_argument("--config", required=True)
    tr.add_argument("--out", default=None)
    tr.add_argument("--seed", type=int, default=None)
    tr.add_argument("--diagnostics", action="store_true",
                    help="also write per-sample/per-pair CSV streams")

    orc = sub.add_parser("oracle", help="run a self-check suite")
    orc.add_argument("suite", nargs="?", default="all",
                     help="meta | losses | cdcl | beta | auroc | all")

    rep = sub.add_parser("report", help="pretty-print a run report JSON")
    rep.add_argument("path")
    return parser


def _make_out_dir(cfg: dict) -> str:
    """run.out_dir, created if it does not exist yet."""
    target = cfg["run"]["out_dir"]
    try:
        os.makedirs(target, exist_ok=True)
    except (FileExistsError, FileNotFoundError, NotADirectoryError) as exc:
        raise ConfigError("run.out_dir %r: %s" % (target, exc.strerror))
    return target


def cmd_generate(config_path: str, out_dir: str | None, seed: int | None) -> int:
    cfg = config.load_config(config_path, seed_override=seed, out_override=out_dir)
    target = _make_out_dir(cfg)
    pool = config.make_training_pool(cfg)
    save_dataset(pool, os.path.join(target, "dataset.csv"),
                 os.path.join(target, "dataset.json"),
                 seed=cfg["run"]["seed"])
    print("wrote %s/dataset.csv (%d samples)" % (target, pool.n))
    return 0


def _fingerprint(ds) -> str:
    """sha256 of the dataset's CSV text, fed one piece at a time."""
    digest = hashlib.sha256()
    for chunk in dataset_csv_chunks(ds):
        digest.update(chunk.encode())
    return digest.hexdigest()


def cmd_train(config_path: str, out_dir: str | None, seed: int | None,
              diagnostics: bool = False) -> int:
    cfg = config.load_config(config_path, seed_override=seed, out_override=out_dir)
    target = _make_out_dir(cfg)
    started = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())

    train_set, meta, test, ood = config.make_datasets(cfg)
    tcfg = config.to_train_config(cfg)
    writer = DiagnosticsWriter(target) if diagnostics else None
    try:
        report, params = co_train(train_set, meta, test, tcfg, ood=ood,
                                  diagnostics=writer,
                                  config_echo=config.canonical_dict(cfg),
                                  seeds_echo=config.derived_seeds(cfg))
    except TrainingDiverged as exc:
        snap = exc.snapshot
        with open(os.path.join(target, "abort_snapshot.json"), "w") as fh:
            fh.write(dumps_deterministic(snap["info"]))
        for name, params in snap["params"].items():
            save_checkpoint(params, os.path.join(target, "abort_%s.bin" % name))
        print("training aborted: %s" % exc, file=sys.stderr)
        return 1
    finally:
        if writer is not None:
            writer.close()

    with open(os.path.join(target, "report.json"), "w") as fh:
        fh.write(report.to_json())
    with open(os.path.join(target, "metrics.csv"), "w") as fh:
        fh.write(metrics_csv(report))
    for k, name in enumerate(NETS):
        save_checkpoint(params[k], os.path.join(target, "checkpoint_%s.bin" % name))

    cfg_hash = config.config_hash(cfg)
    manifest = {
        "artifact": "noisylab",
        "artifact_version": __version__,
        "config_hash": cfg_hash,
        "provenance": "noisylab-%s+cfg.%s" % (__version__, cfg_hash[:12]),
        "dataset_fingerprints": {
            "train": _fingerprint(train_set),
            "test": _fingerprint(test),
            "ood": _fingerprint(ood) if ood is not None else None,
        },
        "started_at": started,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "timing": {
            "wall_seconds_per_epoch": [round(s, 6) for s in report.wall_seconds],
            "total_wall_seconds": round(sum(report.wall_seconds), 6),
        },
    }
    with open(os.path.join(target, "manifest.json"), "w") as fh:
        fh.write(dumps_deterministic(manifest))

    last = report.summary["last_acc"]["ensemble"]
    print("run complete: %d epochs, final ensemble accuracy %.4f -> %s"
          % (tcfg.epochs, last, target))
    return 0


def cmd_oracle(suite: str) -> int:
    from . import oracles  # only this command runs the reference forms

    results = oracles.run_suite(suite)
    failed = 0
    for res in results:
        print(res.line())
        failed += 0 if res.passed else 1
    print("%d/%d checks passed" % (len(results) - failed, len(results)))
    return 0 if failed == 0 else 1


def cmd_report(path: str) -> int:
    text = read_text(path)
    try:
        _print_report(RunReport.from_json(text))
    except KeyError as exc:
        raise ConfigError("%s is not a run report: missing key %s" % (path, exc))
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise ConfigError("%s is not a run report: %s" % (path, exc))
    return 0


def _print_report(report: RunReport) -> None:
    summary = report.summary
    print("run report (schema v%d)" % report.schema_version)
    print("  epochs recorded : %d" % len(report.epochs))
    init = report.initial["test_acc"]
    print("  initial accuracy: net1 %.4f  net2 %.4f  ensemble %.4f"
          % (init["net1"], init["net2"], init["ensemble"]))
    last = summary["last_acc"]
    print("  final accuracy  : net1 %.4f  net2 %.4f  ensemble %.4f"
          % (last["net1"], last["net2"], last["ensemble"]))
    best_epoch = summary["best_epoch"]
    print("  best ensemble   : %.4f (epoch %s)"
          % (summary["best_acc_ensemble"], best_epoch if best_epoch is not None else "-"))
    if summary.get("mass_gap_max") is not None:
        print("  reliability mass identity gap (max): %.3e" % summary["mass_gap_max"])
    if summary.get("ood"):
        print("  ood separation  : auroc %.4f  fpr95 %.4f"
              % (summary["ood"]["auroc"], summary["ood"]["fpr95"]))
    for rec in report.epochs[-5:]:
        losses = rec["losses"]["net1"]
        rendered = " ".join("%s=%s" % (k, "-" if losses[k] is None else "%.4f" % losses[k])
                            for k in ("ce_re", "cr", "ram", "cdcl"))
        print("  epoch %3d  acc=%.4f  %s" % (rec["epoch"], rec["test_acc"]["ensemble"], rendered))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(args.config, args.out, args.seed)
        if args.command == "train":
            return cmd_train(args.config, args.out, args.seed, args.diagnostics)
        if args.command == "oracle":
            return cmd_oracle(args.suite)
        if args.command == "report":
            return cmd_report(args.path)
    except ConfigError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory: %s" % exc, file=sys.stderr)
        return 1
    except (OSError, RuntimeError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
