"""Run configuration: a flat sectioned key-value file, strict validation,
one canonical form (the report's echo, whose JSON text is hashed), and
construction of datasets and the trainer configuration from one top-level
seed.

Format example::

    [run]
    seed = 7
    out_dir = runs/demo

    [dataset]
    noise_mode = symmetric
    noise_rate = 0.4

Unknown sections or keys are rejected by name. Every key has a default (a
typed setting's is its dataclass field's), so an empty file is a valid full
configuration.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing

import numpy as np

from .contrastive import CdclConfig
from .data import (NOISE_MODES, OOD_ANGLE_FRAC, AugmentConfig, Dataset,
                   default_augment_config, inject_asymmetric_noise, inject_symmetric_noise,
                   load_dataset, make_blobs, split_meta)
from .mixup import RamConfig
from .trainer import TrainConfig
from .util import ConfigError, dumps_deterministic, read_text

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
# Every int setting but run.seed is a size, count or epoch index. Three of
# them multiplied, times 8 bytes, stay below 2**63 at this bound, so a large
# size ends in numpy's MemoryError (exit 1) rather than an overflow.
INT_LIMIT = 10 ** 6


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


# a typed field's parser, by its annotated type
_KINDS = {int: int, float: float, bool: _parse_bool}


def _fields(cls, keys=None, **written) -> dict:
    """SCHEMA entries for the fields `keys` of the typed config `cls` (all of
    them by default): each is parsed by its annotated type and defaults to
    the field's own default. `written` holds the entries of the fields that
    have no typed default."""
    types = typing.get_type_hints(cls)
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    out = {}
    for key in keys or defaults:
        if key in written:
            out[key] = written[key]
        else:
            out[key] = (_KINDS[types[key]], defaults[key])
    return out


_AUTO_SIGMA = (_parse_sigma, "auto")

# key -> (parser, default)
SCHEMA: dict = {
    "run": {
        "seed": (int, 7),
        "out_dir": (str, "runs/out"),
    },
    "dataset": {
        "num_classes": (int, 4),
        "per_class": (int, 500),
        "dim": (int, 2),
        "spread": (float, 0.9),
        "noise_mode": (str, "symmetric"),
        "noise_rate": (float, 0.4),
        "pair_map": (_parse_pair_map, None),
        "meta_size": (int, 40),
        "test_per_class": (int, 250),
        "load_dir": (str, ""),
    },
    "augment": _fields(AugmentConfig, sigma_weak=_AUTO_SIGMA, sigma_strong=_AUTO_SIGMA),
    "net": _fields(TrainConfig, ("hidden", "proj")),
    "ram": _fields(RamConfig),
    "cdcl": _fields(CdclConfig),
    "trainer": _fields(
        TrainConfig,
        ("epochs", "batch_size", "warmup_start", "warmup_full", "eta_w", "lambda_cdcl",
         "conf_threshold", "sharpen_temp", "lr", "momentum", "weight_decay", "decay_epochs",
         "decay_factor", "use_meta", "use_ram", "use_grg", "use_cdcl", "use_cr",
         "use_refine", "couple_meta", "sym_ram"),
        decay_epochs=(_parse_int_list, "auto")),
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
        for key, (parser, default) in keys.items():
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


def _validate(cfg: dict) -> None:
    # first, so that a NaN, which passes no range check, is named as such
    for section, values in cfg.items():
        for key, value in values.items():
            name = "%s.%s" % (section, key)
            if isinstance(value, float) and not abs(value) <= FLOAT_LIMIT:
                raise ConfigError("%s must be finite and at most %g in magnitude"
                                  % (name, FLOAT_LIMIT))
            # bool is an int subclass; seeds are not sizes
            if isinstance(value, int) and not isinstance(value, bool) \
                    and name != "run.seed" and not abs(value) <= INT_LIMIT:
                raise ConfigError("%s must be at most %d in magnitude" % (name, INT_LIMIT))
    if cfg["run"]["seed"] < 0:  # seeds feed np.random.SeedSequence
        raise ConfigError("run.seed must be nonnegative")
    ds = cfg["dataset"]
    # the generators check these too, but cannot name the key
    sizes = [("num_classes", 2), ("per_class", 1), ("dim", 2), ("test_per_class", 1),
             ("meta_size", 1 if cfg["trainer"]["use_meta"] else 0)]
    for key, low in sizes:
        if ds[key] < low:
            raise ConfigError("dataset.%s must be >= %d" % (key, low))
    if ds["spread"] < 0:
        raise ConfigError("dataset.spread must be nonnegative")
    if ds["noise_mode"] not in NOISE_MODES:
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


def to_train_config(cfg: dict) -> TrainConfig:
    """The [trainer] and [net] keys are TrainConfig's field names. The rest is
    built here, the one place that resolves 'auto' decay epochs and sigmas."""
    t = cfg["trainer"]
    decay = t["decay_epochs"]
    if decay == "auto":
        decay = (int(t["epochs"] * 0.6), int(t["epochs"] * 0.85))
    explicit = {key: value for key, value in cfg["augment"].items() if value != "auto"}
    seeds = derived_seeds(cfg)
    return TrainConfig(**{
        **t, **cfg["net"],
        "decay_epochs": tuple(decay),
        "ram": RamConfig(**cfg["ram"]), "cdcl": CdclConfig(**cfg["cdcl"]),
        "augment": dataclasses.replace(default_augment_config(cfg["dataset"]["spread"]),
                                       **explicit),
        **{key: seeds[key] for key in ("net1_seed", "net2_seed", "loop_seed")},
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
        # the test and OOD sets are generated from dim and num_classes, and
        # the report echoes the noise keys; the noise seed may differ, so that
        # one saved pool trains under many run seeds
        checked = [("dim", pool.dim), ("num_classes", pool.num_classes)]
        spec = pool.noise_spec
        if spec is not None:
            checked.append(("noise_mode", spec.mode))
            if spec.mode != "none":
                checked.append(("noise_rate", spec.rate))
            if spec.mode == "asymmetric":
                checked.append(("pair_map", spec.pair_map))
        for key, loaded in checked:
            if loaded != ds_cfg[key]:
                raise ConfigError("dataset in %s has %s %r, but dataset.%s = %r"
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
    """(train, meta, test, ood) for one run. The OOD set is built as the test
    set is, from its own seed stream, around centers rotated by
    data.OOD_ANGLE_FRAC."""
    ds_cfg = cfg["dataset"]
    seeds = derived_seeds(cfg)
    pool = make_training_pool(cfg)
    if ds_cfg["meta_size"] >= pool.n:
        raise ConfigError("dataset.meta_size = %d leaves none of the pool's %d samples "
                          "for training" % (ds_cfg["meta_size"], pool.n))
    train, meta = split_meta(pool, ds_cfg["meta_size"], seeds["split_seed"])
    test = make_blobs(ds_cfg["num_classes"], ds_cfg["test_per_class"], ds_cfg["dim"],
                      ds_cfg["spread"], seeds["test_seed"])
    ood = make_blobs(ds_cfg["num_classes"], ds_cfg["test_per_class"], ds_cfg["dim"],
                     ds_cfg["spread"], seeds["ood_seed"], angle_frac=OOD_ANGLE_FRAC)
    return train, meta, test, ood


# environmental keys: they steer where outputs land, not what is computed,
# so they stay out of the canonical form, the hash and the report echo
_NON_EXPERIMENT_KEYS = {("run", "out_dir")}


def canonical_dict(cfg: dict) -> dict:
    """Nested plain dict with resolved values: the report's config echo, and
    the one canonical form of a configuration (config_hash hashes its JSON
    text, whose keys dumps_deterministic sorts)."""
    out: dict = {}
    for section, keys in SCHEMA.items():
        out[section] = {}
        for key in keys:
            if (section, key) in _NON_EXPERIMENT_KEYS:
                continue
            value = cfg[section][key]
            if isinstance(value, dict):  # pair_map: JSON keys are strings
                value = {str(k): v for k, v in value.items()}
            out[section][key] = value
    tcfg = to_train_config(cfg)
    out["resolved"] = {
        "decay_epochs": list(tcfg.decay_epochs),
        "sigma_weak": tcfg.augment.sigma_weak,
        "sigma_strong": tcfg.augment.sigma_strong,
    }
    return out


def config_hash(cfg: dict) -> str:
    """sha256 of the report's config echo as dumps_deterministic writes it,
    so a run's provenance can be checked from its report.json alone."""
    return hashlib.sha256(dumps_deterministic(canonical_dict(cfg)).encode()).hexdigest()
