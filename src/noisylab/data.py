"""Synthetic blob datasets, label corruption, meta-set splitting and the
jitter/dropout view augmentations.

Everything here is a pure function of its arguments and seed: repeated calls
return byte-identical results. Corruption only rewrites y_obs; y_true, ids
and features are never touched.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .util import FLOAT_FMT, ConfigError, dumps_deterministic, read_text

CENTER_RADIUS = 2.0
# rows per piece of dataset_csv_chunks' text
CSV_CHUNK_ROWS = 256
NOISE_MODES = ("none", "symmetric", "asymmetric")


@dataclass(frozen=True)
class NoiseSpec:
    mode: str  # one of NOISE_MODES
    rate: float = 0.0
    pair_map: dict | None = None
    seed: int | None = None

    def to_dict(self) -> dict:
        d: dict = {"mode": self.mode, "rate": self.rate, "seed": self.seed}
        if self.pair_map is not None:
            d["pair_map"] = {str(k): int(v) for k, v in sorted(self.pair_map.items())}
        return d


@dataclass
class Dataset:
    x: np.ndarray        # (N, D)
    y_true: np.ndarray   # (N,)
    y_obs: np.ndarray    # (N,)
    ids: np.ndarray      # (N,)
    num_classes: int
    noise_spec: NoiseSpec | None = None

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def validate(self) -> None:
        if not np.all(np.isfinite(self.x)):
            raise ValueError("non-finite features")
        for arr in (self.y_true, self.y_obs):
            if arr.min(initial=0) < 0 or arr.max(initial=0) >= self.num_classes:
                raise ValueError("class index out of range")
        # a sort and an adjacent compare: np.unique would import numpy.ma
        ids = np.sort(self.ids)
        if np.any(ids[1:] == ids[:-1]):
            raise ValueError("duplicate sample ids")


@dataclass
class MetaSet:
    """Clean held-out samples driving the outer meta-objective."""

    x: np.ndarray
    y: np.ndarray
    ids: np.ndarray

    @property
    def m(self) -> int:
        return self.x.shape[0]


def class_centers(num_classes: int, dim: int, radius_factor: float = 1.0,
                  angle_frac: float = 0.0) -> np.ndarray:
    """Per-class centers evenly spaced on a circle in the first two dims, of
    radius_factor * CENTER_RADIUS, rotated by angle_frac of one step."""
    angles = 2.0 * np.pi * (np.arange(num_classes) + angle_frac) / num_classes
    centers = np.zeros((num_classes, dim))
    centers[:, 0] = radius_factor * CENTER_RADIUS * np.cos(angles)
    centers[:, 1] = radius_factor * CENTER_RADIUS * np.sin(angles)
    return centers


def make_blobs(num_classes: int, per_class: int, dim: int, spread: float,
               seed: int, radius_factor: float = 1.0, angle_frac: float = 0.0) -> Dataset:
    """Isotropic Gaussian blobs around class_centers, clean labels. The
    training and test sets take the default centers; the OOD set moves them
    (dataset.ood_radius_factor and dataset.ood_angle_frac)."""
    if num_classes < 2 or per_class < 1 or dim < 2:
        raise ConfigError("need num_classes >= 2, per_class >= 1, dim >= 2")
    if spread < 0:
        raise ConfigError("spread must be nonnegative")
    rng = np.random.default_rng(seed)
    centers = class_centers(num_classes, dim, radius_factor, angle_frac)
    n = num_classes * per_class
    y = np.repeat(np.arange(num_classes), per_class)
    x = centers[y] + spread * rng.standard_normal((n, dim))
    return Dataset(x=x, y_true=y, y_obs=y.copy(), ids=np.arange(n),
                   num_classes=num_classes, noise_spec=NoiseSpec("none", seed=seed))


def inject_symmetric_noise(ds: Dataset, rate: float, seed: int) -> Dataset:
    """Flip each label with probability rate to a uniform draw over the
    other C-1 classes, so the observed-label change rate is exactly rate."""
    if not 0.0 <= rate <= 1.0:
        raise ConfigError("noise rate must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    flip = rng.random(ds.n) < rate
    draw = rng.integers(0, ds.num_classes - 1, size=ds.n)
    draw = draw + (draw >= ds.y_true)  # skip the true class
    y_obs = np.where(flip, draw, ds.y_true)
    spec = NoiseSpec("symmetric", rate=rate, seed=seed)
    return Dataset(ds.x, ds.y_true, y_obs.astype(np.int64), ds.ids,
                   ds.num_classes, noise_spec=spec)


def inject_asymmetric_noise(ds: Dataset, rate: float, pair_map: dict,
                            seed: int) -> Dataset:
    """Flip each label with probability rate to pair_map[y_true].

    pair_map may be partial; classes without an entry are never corrupted.
    Self-mappings are rejected.
    """
    if not 0.0 <= rate <= 1.0:
        raise ConfigError("noise rate must lie in [0, 1]")
    target = np.arange(ds.num_classes)
    for src, dst in pair_map.items():
        src, dst = int(src), int(dst)
        if not (0 <= src < ds.num_classes and 0 <= dst < ds.num_classes):
            raise ConfigError("pair_map class out of range: %d -> %d" % (src, dst))
        if src == dst:
            raise ConfigError("pair_map must not map a class to itself: %d" % src)
        target[src] = dst
    rng = np.random.default_rng(seed)
    flip = rng.random(ds.n) < rate
    mapped = target[ds.y_true]
    y_obs = np.where(flip, mapped, ds.y_true)
    spec = NoiseSpec("asymmetric", rate=rate,
                     pair_map={int(k): int(v) for k, v in pair_map.items()}, seed=seed)
    return Dataset(ds.x, ds.y_true, y_obs.astype(np.int64), ds.ids,
                   ds.num_classes, noise_spec=spec)


def split_meta(ds: Dataset, m: int, seed: int) -> tuple[Dataset, MetaSet]:
    """Carve out m clean samples (true labels), round-robin over classes.

    The split is disjoint by id and as class-balanced as m allows; the
    training remainder keeps its original ids and observed labels.
    """
    if m < 0 or m > ds.n:
        raise ConfigError("meta_size %d must lie in [0, %d]" % (m, ds.n))
    rng = np.random.default_rng(seed)
    pools = []
    for c in range(ds.num_classes):
        idx = np.flatnonzero(ds.y_true == c)
        pools.append(list(rng.permutation(idx)))
    chosen: list[int] = []
    c = 0
    while len(chosen) < m:
        if pools[c % ds.num_classes]:
            chosen.append(int(pools[c % ds.num_classes].pop()))
        c += 1
    chosen_arr = np.array(sorted(chosen), dtype=np.int64)
    mask = np.zeros(ds.n, dtype=bool)
    mask[chosen_arr] = True
    meta = MetaSet(x=ds.x[mask].copy(), y=ds.y_true[mask].copy(), ids=ds.ids[mask].copy())
    train = Dataset(ds.x[~mask].copy(), ds.y_true[~mask].copy(), ds.y_obs[~mask].copy(),
                    ds.ids[~mask].copy(), ds.num_classes, noise_spec=ds.noise_spec)
    return train, meta


@dataclass(frozen=True)
class AugmentConfig:
    sigma_weak: float
    sigma_strong: float
    p_drop: float = 0.1

    def __post_init__(self):
        for name in ("sigma_weak", "sigma_strong"):
            if not getattr(self, name) >= 0:
                raise ConfigError("augment.%s must be nonnegative" % name)
        if not 0 <= self.p_drop <= 1:
            raise ConfigError("augment.p_drop must lie in [0, 1]")


def default_augment_config(spread: float) -> AugmentConfig:
    return AugmentConfig(sigma_weak=0.05 * spread, sigma_strong=0.15 * spread)


def make_views(x: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator,
               draw_strong: bool = True):
    """Weak and strong views for a whole (N, D) block, drawn in a fixed order.

    weak: Gaussian jitter sigma_weak. strong: Gaussian jitter sigma_strong,
    then each coordinate zeroed independently with probability p_drop. The
    weak view is drawn first, so draw_strong=False, which returns None for
    the strong view and draws none of it, leaves the weak view's bits as they
    are.
    """
    x = np.asarray(x, dtype=np.float64)
    weak = x + cfg.sigma_weak * rng.standard_normal(x.shape)
    if not draw_strong:
        return weak, None
    strong = x + cfg.sigma_strong * rng.standard_normal(x.shape)
    strong = strong * (rng.random(x.shape) >= cfg.p_drop)
    return weak, strong


def dataset_csv_chunks(ds: Dataset):
    """The flat CSV rendering, header `id,y_true,y_obs,x0..x{D-1}` and one
    row per sample, as consecutive pieces of text: the header line, then
    CSV_CHUNK_ROWS rows at a time, each piece ending in a newline. Writers
    and digests consume it piece by piece, so the whole text never exists
    at once."""
    yield "id,y_true,y_obs," + ",".join("x%d" % d for d in range(ds.dim)) + "\n"
    # one % per row, each value formatted as fmt_float formats it
    row = "%d,%d,%d," + ",".join([FLOAT_FMT] * ds.dim) + "\n"
    for start in range(0, ds.n, CSV_CHUNK_ROWS):
        rows = slice(start, start + CSV_CHUNK_ROWS)
        yield "".join([row % (i, y_true, y_obs, *x) for i, y_true, y_obs, x in zip(
            ds.ids[rows].tolist(), ds.y_true[rows].tolist(), ds.y_obs[rows].tolist(),
            ds.x[rows].tolist())])


def save_dataset(ds: Dataset, csv_path, json_path, seed: int | None = None) -> None:
    """Write the flat CSV plus a sidecar JSON descriptor."""
    with open(csv_path, "w") as fh:
        fh.writelines(dataset_csv_chunks(ds))
    sidecar = {
        "num_classes": ds.num_classes,
        "dim": ds.dim,
        "noise_spec": ds.noise_spec.to_dict() if ds.noise_spec else None,
        "seed": seed,
    }
    with open(json_path, "w") as fh:
        fh.write(dumps_deterministic(sidecar))


def _noise_spec(raw: dict) -> NoiseSpec:
    """The sidecar's noise description, as NoiseSpec.to_dict wrote it; a
    value no noise injection could have written raises ValueError."""
    if raw["mode"] not in NOISE_MODES:
        raise ValueError("noise_spec.mode must be none, symmetric or asymmetric")
    rate, seed = raw.get("rate", 0.0), raw.get("seed")
    # bool is an int subclass; the range test also rejects NaN
    if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not 0.0 <= rate <= 1.0:
        raise ValueError("noise_spec.rate must be a finite number in [0, 1]")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int) or seed < 0):
        raise ValueError("noise_spec.seed must be null or a nonnegative integer")
    pm = raw.get("pair_map")
    return NoiseSpec(raw["mode"], rate=float(rate),
                     pair_map={int(k): int(v) for k, v in pm.items()} if pm else None,
                     seed=seed)


def load_dataset(csv_path, json_path) -> Dataset:
    """Read what save_dataset wrote. Malformed files raise ConfigError naming
    the file and the cause."""
    sidecar_text = read_text(json_path)
    try:
        sidecar = json.loads(sidecar_text)
        for key, low in (("dim", 1), ("num_classes", 2)):
            value = sidecar[key]  # bool is an int subclass
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ValueError("%s must be an integer >= %d" % (key, low))
        dim, num_classes = sidecar["dim"], sidecar["num_classes"]
        spec = _noise_spec(sidecar["noise_spec"]) if sidecar.get("noise_spec") else None
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ConfigError("%s: malformed dataset sidecar (%s: %s)"
                          % (json_path, type(exc).__name__, exc))
    rows = [line.strip() for line in read_text(csv_path).split("\n") if line.strip()]
    if len(rows) < 2:
        raise ConfigError("%s holds no samples" % csv_path)
    # a dim above the header's comma count cannot match it, and its expected
    # header might not fit in memory
    if dim > rows[0].count(",") or \
            rows[0] != "id,y_true,y_obs," + ",".join("x%d" % d for d in range(dim)):
        raise ConfigError("%s: header does not match the sidecar's dim %d" % (csv_path, dim))
    n = len(rows) - 1
    ids = np.empty(n, dtype=np.int64)
    y_true = np.empty(n, dtype=np.int64)
    y_obs = np.empty(n, dtype=np.int64)
    x = np.empty((n, dim))
    for i, row in enumerate(rows[1:]):
        cells = row.split(",")
        try:
            ids[i], y_true[i], y_obs[i] = int(cells[0]), int(cells[1]), int(cells[2])
            x[i] = [float(v) for v in cells[3:]]
        except (ValueError, IndexError, OverflowError) as exc:  # overflow: int64 cells
            raise ConfigError("%s row %d: %s" % (csv_path, i + 1, exc))
    ds = Dataset(x=x, y_true=y_true, y_obs=y_obs, ids=ids,
                 num_classes=num_classes, noise_spec=spec)
    try:
        ds.validate()
    except ValueError as exc:
        raise ConfigError("%s: %s" % (csv_path, exc))
    return ds
