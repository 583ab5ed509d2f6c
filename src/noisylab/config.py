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

import numpy as np

from .contrastive import CdclConfig
from .data import (AugmentConfig, Dataset, default_augment_config,
                   displaced_blobs, inject_asymmetric_noise,
                   inject_symmetric_noise, load_dataset, make_blobs, split_meta)
from .mixup import RamConfig
from .trainer import TrainConfig
from .util import ConfigError, fmt_float, read_text

# seed-stream tags for everything derived from the one top-level seed
_SEED_BLOBS = 10
_SEED_NOISE = 11
_SEED_SPLIT = 12
_SEED_TEST = 13
_SEED_OOD = 14
_SEED_NET1 = 21
_SEED_NET2 = 22
_SEED_LOOP = 23

# Every float setting is a rate, scale or tolerance of order one or below; a
# larger magnitude only overflows the arithmetic downstream.
FLOAT_LIMIT = 1e6


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
        src, dst = (int(v) for v in piece.split(":"))
        if src in out:
            raise ValueError("class %d is mapped twice" % src)
        out[src] = dst
    return out


def _parse_sigma(text: str):
    text = text.strip()
    return "auto" if text == "auto" else float(text)


def _fmt_int_list(value) -> str:
    if value == "auto":
        return "auto"
    return ",".join(str(v) for v in value)


def _fmt_pair_map(value) -> str:
    if value is None:
        return ""
    return ",".join("%d:%d" % (k, value[k]) for k in sorted(value))


def _fmt_sigma(value) -> str:
    return "auto" if value == "auto" else fmt_float(value)


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
        "sigma_weak": (_parse_sigma, "auto", _fmt_sigma),
        "sigma_strong": (_parse_sigma, "auto", _fmt_sigma),
        "p_drop": _typed(_FLOAT, 0.1),
    },
    "net": {
        "hidden": _typed(_INT, 64),
        "proj": _typed(_INT, 16),
    },
    "ram": {
        "gamma": _typed(_FLOAT, 4.0),
        "r_min": _typed(_FLOAT, 0.1),
        "r_max": _typed(_FLOAT, 2.0),
    },
    "cdcl": {
        "tau": _typed(_FLOAT, 0.2),
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
                     out_override: str | None = None) -> dict:
    """Typed, validated configuration, {section: {key: typed value}};
    unknown sections/keys are named."""
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
    _validate(values)
    return values


def load_config(path, seed_override: int | None = None,
                out_override: str | None = None) -> dict:
    return build_run_config(parse_config_text(read_text(path)),
                            seed_override=seed_override, out_override=out_override)


def _check_float(name: str, value: float) -> None:
    if not abs(value) <= FLOAT_LIMIT:  # also rejects NaN
        raise ConfigError("%s must be finite and at most %g in magnitude" % (name, FLOAT_LIMIT))


def _validate(cfg: dict) -> None:
    # first, so that a NaN, which passes no range check, is named as such
    for section, values in cfg.items():
        for key, value in values.items():
            if isinstance(value, float):
                _check_float("%s.%s" % (section, key), value)
    if cfg["run"]["seed"] < 0:  # seeds feed np.random.SeedSequence
        raise ConfigError("run.seed must be nonnegative")
    ds = cfg["dataset"]
    # the generators check these too, but cannot name the key
    sizes = [("num_classes", 2), ("per_class", 1), ("dim", 2), ("test_per_class", 1),
             ("meta_size", 1 if cfg["trainer"]["use_meta"] else 0)]
    if ds["ood_enabled"]:
        sizes.append(("ood_per_class", 1))
    for key, low in sizes:
        if ds[key] < low:
            raise ConfigError("dataset.%s must be >= %d" % (key, low))
    if ds["spread"] < 0:
        raise ConfigError("dataset.spread must be nonnegative")
    if ds["noise_mode"] not in ("none", "symmetric", "asymmetric"):
        raise ConfigError("dataset.noise_mode must be none, symmetric or asymmetric")
    if not 0.0 <= ds["noise_rate"] <= 1.0:
        raise ConfigError("dataset.noise_rate must lie in [0, 1]")
    if ds["noise_mode"] == "asymmetric" and ds["pair_map"] is None:
        raise ConfigError("asymmetric noise needs dataset.pair_map")
    for src, dst in (ds["pair_map"] or {}).items():
        if not (0 <= src < ds["num_classes"] and 0 <= dst < ds["num_classes"]):
            raise ConfigError("dataset.pair_map entry %d:%d names a class outside 0..%d"
                              % (src, dst, ds["num_classes"] - 1))
        if src == dst:
            raise ConfigError("dataset.pair_map must not map class %d to itself" % src)
    # instantiating the typed configs runs their own validation
    to_train_config(cfg)


def resolve_augment(cfg: dict) -> AugmentConfig:
    a = cfg["augment"]
    base = default_augment_config(cfg["dataset"]["spread"])
    sigma_w = base.sigma_weak if a["sigma_weak"] == "auto" else a["sigma_weak"]
    sigma_s = base.sigma_strong if a["sigma_strong"] == "auto" else a["sigma_strong"]
    return AugmentConfig(sigma_weak=sigma_w, sigma_strong=sigma_s, p_drop=a["p_drop"])


def resolve_decay_epochs(cfg: dict):
    t = cfg["trainer"]
    if t["decay_epochs"] == "auto":
        return (int(t["epochs"] * 0.6), int(t["epochs"] * 0.85))
    return tuple(t["decay_epochs"])


def to_train_config(cfg: dict) -> TrainConfig:
    """The [trainer] and [net] keys are TrainConfig's field names; the rest
    is resolved or built here."""
    seed = cfg["run"]["seed"]
    return TrainConfig(**{
        **cfg["trainer"], **cfg["net"],
        "decay_epochs": resolve_decay_epochs(cfg),
        "ram": RamConfig(**cfg["ram"]), "cdcl": CdclConfig(**cfg["cdcl"]),
        "augment": resolve_augment(cfg),
        "net1_seed": _derive(seed, _SEED_NET1), "net2_seed": _derive(seed, _SEED_NET2),
        "loop_seed": _derive(seed, _SEED_LOOP),
    })


def _derive(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([int(seed), tag]).generate_state(1)[0])


def derived_seeds(cfg: dict) -> dict:
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


def make_training_pool(cfg: dict) -> Dataset:
    """The full (noisy, pre-split) training pool described by [dataset]."""
    ds_cfg = cfg["dataset"]
    seeds = derived_seeds(cfg)
    if ds_cfg["load_dir"]:
        import os

        base = ds_cfg["load_dir"]
        if not os.path.isdir(base):
            raise ConfigError("dataset.load_dir %r is not a directory" % base)
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


def make_datasets(cfg: dict):
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
_NON_EXPERIMENT_KEYS = {("run", "out_dir")}


def canonical_dict(cfg: dict) -> dict:
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
            elif isinstance(value, dict):  # pair_map: JSON keys are strings
                value = {str(k): v for k, v in sorted(value.items())}
            out[section][key] = value
    augment = resolve_augment(cfg)
    out["resolved"] = {
        "decay_epochs": list(resolve_decay_epochs(cfg)),
        "sigma_weak": augment.sigma_weak,
        "sigma_strong": augment.sigma_strong,
    }
    return out


def canonical_text(cfg: dict) -> str:
    """Sorted section.key=value lines with normalized float formatting."""
    lines = []
    for section in sorted(SCHEMA):
        for key in sorted(SCHEMA[section]):
            if (section, key) in _NON_EXPERIMENT_KEYS:
                continue
            _, _, formatter = SCHEMA[section][key]
            lines.append("%s.%s=%s" % (section, key, formatter(cfg[section][key])))
    return "\n".join(lines) + "\n"


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_text(cfg).encode()).hexdigest()
