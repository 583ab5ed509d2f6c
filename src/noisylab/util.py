"""Shared plumbing: errors, text input, seeded RNG streams, deterministic
JSON/CSV text."""

from __future__ import annotations

import json

import numpy as np

# 17 significant digits round-trips any float64 exactly.
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


def _emit(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            raise ValueError("non-finite float in deterministic JSON: %r" % x)
        out.append(fmt_float(x))
    elif isinstance(obj, dict):
        out.append("{")
        for n, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError("JSON keys must be strings, got %r" % (key,))
            if n:
                out.append(", ")
            out.append(json.dumps(key))
            out.append(": ")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for n, item in enumerate(obj):
            if n:
                out.append(", ")
            _emit(item, out)
        out.append("]")
    else:
        raise TypeError("cannot serialize %r" % type(obj))


def dumps_deterministic(obj) -> str:
    """JSON with sorted keys and 17-significant-digit floats.

    Byte-identical across runs for equal inputs; parseable by json.loads.
    """
    out: list = []
    _emit(obj, out)
    out.append("\n")
    return "".join(out)


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
