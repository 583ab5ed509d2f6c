"""Run configuration: a flat sectioned key-value file, strict validation,
canonicalization for hashing, and construction of datasets and the trainer
configuration from one top-level seed.

Format example::

    [run]
    seed = 7
    out_dir = runs/demo

    [dataset]
    noise_mode = symmetric
    noise_rate = 0.4

Unknown sections or keys are rejected by name. Every value has a typed
default, so an empty file is a valid full configuration.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .contrastive import CdclConfig
from .data import (AugmentConfig, Dataset, default_augment_config,
                   displaced_blobs, inject_asymmetric_noise,
                   inject_symmetric_noise, load_dataset, make_blobs, split_meta)
from .mixup import RamConfig
from .trainer import TrainConfig
from .util import ConfigError, fmt_float

# seed-stream tags for everything derived from the one top-level seed
_SEED_BLOBS = 10
_SEED_NOISE = 11
_SEED_SPLIT = 12
_SEED_TEST = 13
_SEED_OOD = 14
_SEED_NET1 = 21
_SEED_NET2 = 22
_SEED_LOOP = 23


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError("not a boolean: %r" % text)


def _parse_int_list(text: str):
    text = text.strip()
    if text == "auto":
        return "auto"
    if not text:
        return []
    return [int(v) for v in text.split(",")]


def _parse_pair_map(text: str):
    text = text.strip()
    if not text:
        return None
    out = {}
    for piece in text.split(","):
        src, dst = piece.split(":")
        out[int(src)] = int(dst)
    return out


def _fmt_int_list(value) -> str:
    if value == "auto":
        return "auto"
    return ",".join(str(v) for v in value)


def _fmt_pair_map(value) -> str:
    if value is None:
        return ""
    return ",".join("%d:%d" % (k, value[k]) for k in sorted(value))


# key -> (parser, default, formatter)
_INT = (int, None, str)
_FLOAT = (float, None, fmt_float)
_BOOL = (_parse_bool, None, lambda v: "true" if v else "false")
_STR = (str, None, str)


def _typed(kind, default):
    parser, _, formatter = kind
    return (parser, default, formatter)


SCHEMA: dict = {
    "run": {
        "seed": _typed(_INT, 7),
        "out_dir": _typed(_STR, "runs/out"),
        "diagnostics": _typed(_BOOL, False),
    },
    "dataset": {
        "num_classes": _typed(_INT, 4),
        "per_class": _typed(_INT, 500),
        "dim": _typed(_INT, 2),
        "spread": _typed(_FLOAT, 0.9),
        "noise_mode": _typed(_STR, "symmetric"),
        "noise_rate": _typed(_FLOAT, 0.4),
        "pair_map": (_parse_pair_map, None, _fmt_pair_map),
        "meta_size": _typed(_INT, 40),
        "test_per_class": _typed(_INT, 250),
        "load_dir": _typed(_STR, ""),
        "ood_enabled": _typed(_BOOL, True),
        "ood_per_class": _typed(_INT, 250),
        "ood_radius_factor": _typed(_FLOAT, 1.0),
        "ood_angle_frac": _typed(_FLOAT, 0.5),
    },
    "augment": {
        "sigma_weak": _typed(_STR, "auto"),
        "sigma_strong": _typed(_STR, "auto"),
        "p_drop": _typed(_FLOAT, 0.1),
    },
    "net": {
        "hidden": _typed(_INT, 64),
        "proj": _typed(_INT, 16),
    },
    "reliability": {
        "xi": _typed(_FLOAT, 1e-10),
        "stride": _typed(_INT, 1),
    },
    "ram": {
        "gamma": _typed(_FLOAT, 4.0),
        "delta": _typed(_FLOAT, 1e-8),
        "r_min": _typed(_FLOAT, 0.1),
        "r_max": _typed(_FLOAT, 2.0),
    },
    "cdcl": {
        "tau": _typed(_FLOAT, 0.2),
        "range_eps": _typed(_FLOAT, 1e-6),
    },
    "trainer": {
        "epochs": _typed(_INT, 40),
        "batch_size": _typed(_INT, 64),
        "warmup_start": _typed(_INT, 5),
        "warmup_full": _typed(_INT, 15),
        "eta_w": _typed(_FLOAT, 1.0),
        "lambda_cdcl": _typed(_FLOAT, 0.5),
        "conf_threshold": _typed(_FLOAT, 0.9),
        "sharpen_temp": _typed(_FLOAT, 0.5),
        "lr": _typed(_FLOAT, 0.05),
        "momentum": _typed(_FLOAT, 0.9),
        "weight_decay": _typed(_FLOAT, 5e-4),
        "decay_epochs": (_parse_int_list, "auto", _fmt_int_list),
        "decay_factor": _typed(_FLOAT, 0.1),
        "use_meta": _typed(_BOOL, True),
        "use_ram": _typed(_BOOL, True),
        "use_grg": _typed(_BOOL, True),
        "use_cdcl": _typed(_BOOL, True),
        "use_cr": _typed(_BOOL, True),
        "use_refine": _typed(_BOOL, True),
        "couple_meta": _typed(_BOOL, False),
        "sym_ram": _typed(_BOOL, False),
    },
}


@dataclass
class RunConfig:
    values: dict  # {section: {key: typed value}}

    def __getitem__(self, section: str) -> dict:
        return self.values[section]


def parse_config_text(text: str) -> dict:
    """Sectioned key=value lines into raw strings; '#' starts a comment."""
    raw: dict = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            raw.setdefault(section, {})
            continue
        if "=" not in stripped:
            raise ConfigError("line %d: expected key = value, got %r" % (lineno, line))
        if section is None:
            raise ConfigError("line %d: key outside any [section]" % lineno)
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in raw[section]:
            raise ConfigError("duplicate key '%s.%s'" % (section, key))
        raw[section][key] = value.strip()
    return raw


def build_run_config(raw: dict, seed_override: int | None = None,
                     out_override: str | None = None) -> RunConfig:
    """Typed, validated configuration; unknown sections/keys are named."""
    values: dict = {}
    for section, entries in raw.items():
        if section not in SCHEMA:
            raise ConfigError("unknown config section '[%s]'" % section)
        for key in entries:
            if key not in SCHEMA[section]:
                raise ConfigError("unknown config key '%s.%s'" % (section, key))
    for section, keys in SCHEMA.items():
        values[section] = {}
        for key, (parser, default, _) in keys.items():
            if section in raw and key in raw[section]:
                try:
                    values[section][key] = parser(raw[section][key])
                except (ValueError, TypeError) as exc:
                    raise ConfigError("bad value for '%s.%s': %s" % (section, key, exc))
            else:
                values[section][key] = default
    if seed_override is not None:
        values["run"]["seed"] = int(seed_override)
    if out_override is not None:
        values["run"]["out_dir"] = str(out_override)
    cfg = RunConfig(values)
    _validate(cfg)
    return cfg


def load_config(path, seed_override: int | None = None,
                out_override: str | None = None) -> RunConfig:
    with open(path) as fh:
        return build_run_config(parse_config_text(fh.read()),
                                seed_override=seed_override, out_override=out_override)


def _validate(cfg: RunConfig) -> None:
    ds = cfg["dataset"]
    if ds["noise_mode"] not in ("none", "symmetric", "asymmetric"):
        raise ConfigError("dataset.noise_mode must be none, symmetric or asymmetric")
    if not 0.0 <= ds["noise_rate"] <= 1.0:
        raise ConfigError("dataset.noise_rate must lie in [0, 1]")
    if ds["noise_mode"] == "asymmetric" and ds["pair_map"] is None:
        raise ConfigError("asymmetric noise needs dataset.pair_map")
    for key in ("sigma_weak", "sigma_strong"):
        v = cfg["augment"][key]
        if v != "auto":
            try:
                float(v)
            except ValueError:
                raise ConfigError("augment.%s must be a float or 'auto'" % key)
    # instantiating the typed configs runs their own validation
    resolve_ram(cfg)
    resolve_cdcl(cfg)
    to_train_config(cfg)


def resolve_ram(cfg: RunConfig) -> RamConfig:
    r = cfg["ram"]
    return RamConfig(gamma=r["gamma"], delta=r["delta"], r_min=r["r_min"], r_max=r["r_max"])


def resolve_cdcl(cfg: RunConfig) -> CdclConfig:
    c = cfg["cdcl"]
    return CdclConfig(tau=c["tau"], range_eps=c["range_eps"])


def resolve_augment(cfg: RunConfig) -> AugmentConfig:
    a = cfg["augment"]
    spread = cfg["dataset"]["spread"]
    base = default_augment_config(spread)
    sigma_w = base.sigma_weak if a["sigma_weak"] == "auto" else float(a["sigma_weak"])
    sigma_s = base.sigma_strong if a["sigma_strong"] == "auto" else float(a["sigma_strong"])
    return AugmentConfig(sigma_weak=sigma_w, sigma_strong=sigma_s, p_drop=a["p_drop"])


def resolve_decay_epochs(cfg: RunConfig):
    t = cfg["trainer"]
    if t["decay_epochs"] == "auto":
        return (int(t["epochs"] * 0.6), int(t["epochs"] * 0.85))
    return tuple(t["decay_epochs"])


def to_train_config(cfg: RunConfig) -> TrainConfig:
    t = cfg["trainer"]
    seed = cfg["run"]["seed"]
    return TrainConfig(
        epochs=t["epochs"], batch_size=t["batch_size"],
        warmup_start=t["warmup_start"], warmup_full=t["warmup_full"],
        eta_w=t["eta_w"], lambda_cdcl=t["lambda_cdcl"],
        conf_threshold=t["conf_threshold"], sharpen_temp=t["sharpen_temp"],
        lr=t["lr"], momentum=t["momentum"], weight_decay=t["weight_decay"],
        decay_epochs=resolve_decay_epochs(cfg), decay_factor=t["decay_factor"],
        hidden=cfg["net"]["hidden"], proj=cfg["net"]["proj"],
        xi=cfg["reliability"]["xi"], reliability_stride=cfg["reliability"]["stride"],
        ram=resolve_ram(cfg), cdcl=resolve_cdcl(cfg), augment=resolve_augment(cfg),
        use_meta=t["use_meta"], use_ram=t["use_ram"], use_grg=t["use_grg"],
        use_cdcl=t["use_cdcl"], use_cr=t["use_cr"], use_refine=t["use_refine"],
        couple_meta=t["couple_meta"], sym_ram=t["sym_ram"],
        net1_seed=_derive(seed, _SEED_NET1), net2_seed=_derive(seed, _SEED_NET2),
        loop_seed=_derive(seed, _SEED_LOOP),
    )


def _derive(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([int(seed), tag]).generate_state(1)[0])


def derived_seeds(cfg: RunConfig) -> dict:
    seed = cfg["run"]["seed"]
    return {
        "seed": seed,
        "blobs_seed": _derive(seed, _SEED_BLOBS),
        "noise_seed": _derive(seed, _SEED_NOISE),
        "split_seed": _derive(seed, _SEED_SPLIT),
        "test_seed": _derive(seed, _SEED_TEST),
        "ood_seed": _derive(seed, _SEED_OOD),
        "net1_seed": _derive(seed, _SEED_NET1),
        "net2_seed": _derive(seed, _SEED_NET2),
        "loop_seed": _derive(seed, _SEED_LOOP),
    }


def make_training_pool(cfg: RunConfig) -> Dataset:
    """The full (noisy, pre-split) training pool described by [dataset]."""
    ds_cfg = cfg["dataset"]
    seeds = derived_seeds(cfg)
    if ds_cfg["load_dir"]:
        import os

        base = ds_cfg["load_dir"]
        pool = load_dataset(os.path.join(base, "dataset.csv"),
                            os.path.join(base, "dataset.json"))
        # the test and OOD sets are generated from these keys
        for key, loaded in (("dim", pool.dim), ("num_classes", pool.num_classes)):
            if loaded != ds_cfg[key]:
                raise ConfigError("dataset in %s has %s %d, but dataset.%s = %d"
                                  % (base, key, loaded, key, ds_cfg[key]))
        return pool
    pool = make_blobs(ds_cfg["num_classes"], ds_cfg["per_class"], ds_cfg["dim"],
                      ds_cfg["spread"], seeds["blobs_seed"])
    if ds_cfg["noise_mode"] == "symmetric":
        pool = inject_symmetric_noise(pool, ds_cfg["noise_rate"], seeds["noise_seed"])
    elif ds_cfg["noise_mode"] == "asymmetric":
        pool = inject_asymmetric_noise(pool, ds_cfg["noise_rate"], ds_cfg["pair_map"],
                                       seeds["noise_seed"])
    return pool


def make_datasets(cfg: RunConfig):
    """(train, meta, test, ood-or-None) for one run."""
    ds_cfg = cfg["dataset"]
    seeds = derived_seeds(cfg)
    pool = make_training_pool(cfg)
    train, meta = split_meta(pool, ds_cfg["meta_size"], seeds["split_seed"])
    test = make_blobs(ds_cfg["num_classes"], ds_cfg["test_per_class"], ds_cfg["dim"],
                      ds_cfg["spread"], seeds["test_seed"])
    ood = None
    if ds_cfg["ood_enabled"]:
        ood = displaced_blobs(ds_cfg["num_classes"], ds_cfg["ood_per_class"],
                              ds_cfg["dim"], ds_cfg["spread"], seeds["ood_seed"],
                              radius_factor=ds_cfg["ood_radius_factor"],
                              angle_frac=ds_cfg["ood_angle_frac"])
    return train, meta, test, ood


# environmental keys: they steer where outputs land, not what is computed,
# so they stay out of the canonical form, the hash and the report echo
_NON_EXPERIMENT_KEYS = {("run", "out_dir"), ("run", "diagnostics")}


def canonical_dict(cfg: RunConfig) -> dict:
    """Nested plain dict with resolved values, ready for the report echo."""
    out: dict = {}
    for section in sorted(SCHEMA):
        out[section] = {}
        for key in sorted(SCHEMA[section]):
            if (section, key) in _NON_EXPERIMENT_KEYS:
                continue
            value = cfg[section][key]
            if isinstance(value, tuple):
                value = list(value)
            out[section][key] = value
    out["resolved"] = {
        "decay_epochs": list(resolve_decay_epochs(cfg)),
        "sigma_weak": resolve_augment(cfg).sigma_weak,
        "sigma_strong": resolve_augment(cfg).sigma_strong,
    }
    return out


def canonical_text(cfg: RunConfig) -> str:
    """Sorted section.key=value lines with normalized float formatting."""
    lines = []
    for section in sorted(SCHEMA):
        for key in sorted(SCHEMA[section]):
            if (section, key) in _NON_EXPERIMENT_KEYS:
                continue
            _, _, formatter = SCHEMA[section][key]
            value = cfg[section][key]
            if value is None:
                rendered = ""
            elif isinstance(value, float):
                rendered = fmt_float(value)
            else:
                rendered = formatter(value)
            lines.append("%s.%s=%s" % (section, key, rendered))
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode()).hexdigest()
