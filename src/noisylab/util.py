"""Shared plumbing: errors, text input, seeded RNG streams, deterministic
text: JSON records through the standard encoder (dumps_deterministic), CSV
cells with floats at 17 significant digits."""

from __future__ import annotations

import json

import numpy as np

# CSV floats: 17 significant digits round-trips any float64 exactly.
FLOAT_FMT = "%.17g"


class ConfigError(ValueError):
    """Invalid configuration or arguments. The CLI maps this to exit code 2."""


class TrainingDiverged(RuntimeError):
    """Raised when a training loss or gradient goes non-finite; carries a
    snapshot dict."""

    def __init__(self, message: str, snapshot: dict):
        super().__init__(message)
        self.snapshot = snapshot


def read_text(path) -> str:
    """A file's UTF-8 text; a file that cannot be read (missing, a directory)
    or holds undecodable bytes raises ConfigError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc.strerror or exc))
    except UnicodeDecodeError as exc:
        raise ConfigError("%s is not UTF-8 text: %s" % (path, exc))


def child_rng(seed: int, *keys: int) -> np.random.Generator:
    """Independent generator for the stream identified by (seed, *keys)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, keys)]))


def fmt_float(x: float) -> str:
    return FLOAT_FMT % float(x)


def dumps_deterministic(obj) -> str:
    """The one JSON writer of every record: the standard encoder with sorted
    keys, its default separators and shortest round-trip float spelling, and
    a trailing newline. Byte-identical across runs for equal inputs; a NaN or
    infinity raises ValueError rather than writing non-standard JSON."""
    return json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"


def csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt_float(value)
    return str(value)


def csv_line(cells) -> str:
    return ",".join(csv_cell(c) for c in cells) + "\n"
