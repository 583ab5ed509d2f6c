"""Blob generation, noise injection, meta splitting, augmentation."""

import hashlib
import os

import numpy as np
import pytest
from scipy import stats

from noisylab import config, data
from noisylab.util import ConfigError, fmt_float

FIXTURE_CFG = os.path.join(os.path.dirname(__file__), "..", "cfg", "fixture.cfg")


class TestMakeBlobs:
    def test_zero_spread_collapses_to_centers(self):
        ds = data.make_blobs(2, 1, 2, 0.0, seed=5)
        centers = data.class_centers(2, 2)
        assert np.array_equal(ds.x, centers)
        assert list(ds.y_obs) == [0, 1]

    def test_zero_spread_moved_centers(self):
        # the OOD rotation, half the 90-degree inter-class angle: the centers
        # sit at 45, 135, 225 and 315 degrees, at the same radius
        ds = data.make_blobs(4, 1, 3, 0.0, seed=5, angle_frac=data.OOD_ANGLE_FRAC)
        r = data.CENTER_RADIUS / np.sqrt(2.0)
        assert np.allclose(ds.x, [[r, r, 0.0], [-r, r, 0.0], [-r, -r, 0.0], [r, -r, 0.0]],
                           rtol=0.0, atol=1e-12)

    def test_nearest_center_oracle(self):
        # independent nearest-center classifier on the generated data
        ds = data.make_blobs(4, 500, 2, 0.5, seed=11)
        centers = data.class_centers(4, 2)
        pred = np.argmin(((ds.x[:, None, :] - centers[None]) ** 2).sum(-1), axis=1)
        assert (pred == ds.y_true).mean() > 0.95

    def test_determinism(self):
        a = data.make_blobs(4, 100, 3, 0.4, seed=3)
        b = data.make_blobs(4, 100, 3, 0.4, seed=3)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y_obs, b.y_obs)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigError):
            data.make_blobs(1, 10, 2, 0.5, seed=0)
        with pytest.raises(ConfigError):
            data.make_blobs(3, 0, 2, 0.5, seed=0)
        with pytest.raises(ConfigError):
            data.make_blobs(3, 10, 1, 0.5, seed=0)

    def test_ids_contiguous(self):
        ds = data.make_blobs(3, 7, 2, 0.2, seed=1)
        ds.validate()
        assert np.array_equal(ds.ids, np.arange(ds.n))


class TestSymmetricNoise:
    def test_zero_rate_identity(self):
        ds = data.make_blobs(4, 50, 2, 0.5, seed=1)
        noisy = data.inject_symmetric_noise(ds, 0.0, seed=2)
        assert np.array_equal(noisy.y_obs, noisy.y_true)

    def test_full_rate_two_classes_all_flip(self):
        ds = data.make_blobs(2, 100, 2, 0.5, seed=1)
        noisy = data.inject_symmetric_noise(ds, 1.0, seed=2)
        assert np.all(noisy.y_obs != noisy.y_true)

    def test_empirical_rate_within_3_sigma(self):
        ds = data.make_blobs(10, 5000, 2, 0.5, seed=1)
        noisy = data.inject_symmetric_noise(ds, 0.4, seed=9)
        n = ds.n
        frac = (noisy.y_obs != noisy.y_true).mean()
        sigma = np.sqrt(0.4 * 0.6 / n)
        assert abs(frac - 0.4) <= 3 * sigma

    def test_never_touches_features_ids_or_truth(self):
        ds = data.make_blobs(4, 50, 2, 0.5, seed=1)
        noisy = data.inject_symmetric_noise(ds, 0.7, seed=2)
        assert np.array_equal(noisy.x, ds.x)
        assert np.array_equal(noisy.ids, ds.ids)
        assert np.array_equal(noisy.y_true, ds.y_true)

    def test_flip_targets_uniform_chi2(self):
        # conditional on a flip, the landing class is uniform over the others
        ds = data.make_blobs(10, 5000, 2, 0.5, seed=1)
        noisy = data.inject_symmetric_noise(ds, 0.4, seed=4)
        flipped = noisy.y_obs != noisy.y_true
        stat = 0.0
        cells = 0
        for c in range(10):
            sel = flipped & (noisy.y_true == c)
            counts = np.bincount(noisy.y_obs[sel], minlength=10)
            counts = np.delete(counts, c)
            expected = sel.sum() / 9.0
            stat += ((counts - expected) ** 2 / expected).sum()
            cells += 8  # 9 cells, one df lost to the row total
        p_value = stats.chi2.sf(stat, cells)
        assert p_value > 0.001

    def test_rate_out_of_range(self):
        ds = data.make_blobs(4, 10, 2, 0.5, seed=1)
        with pytest.raises(ConfigError):
            data.inject_symmetric_noise(ds, 1.2, seed=0)


class TestAsymmetricNoise:
    def test_zero_rate_identity(self):
        ds = data.make_blobs(4, 50, 2, 0.5, seed=1)
        noisy = data.inject_asymmetric_noise(ds, 0.0, {0: 1, 1: 0, 2: 3, 3: 2}, seed=2)
        assert np.array_equal(noisy.y_obs, noisy.y_true)

    def test_full_rate_cyclic_shift(self):
        ds = data.make_blobs(4, 50, 2, 0.5, seed=1)
        cyc = {c: (c + 1) % 4 for c in range(4)}
        noisy = data.inject_asymmetric_noise(ds, 1.0, cyc, seed=2)
        assert np.array_equal(noisy.y_obs, (noisy.y_true + 1) % 4)

    def test_flip_fraction_and_targets(self):
        ds = data.make_blobs(4, 12500, 2, 0.5, seed=1)
        cyc = {c: (c + 1) % 4 for c in range(4)}
        noisy = data.inject_asymmetric_noise(ds, 0.4, cyc, seed=7)
        flipped = noisy.y_obs != noisy.y_true
        sigma = np.sqrt(0.4 * 0.6 / ds.n)
        assert abs(flipped.mean() - 0.4) <= 3 * sigma
        assert np.all(noisy.y_obs[flipped] == (noisy.y_true[flipped] + 1) % 4)

    def test_self_mapping_rejected(self):
        ds = data.make_blobs(4, 10, 2, 0.5, seed=1)
        with pytest.raises(ConfigError):
            data.inject_asymmetric_noise(ds, 0.5, {0: 0}, seed=2)

    def test_partial_map_leaves_other_classes_clean(self):
        ds = data.make_blobs(4, 200, 2, 0.5, seed=1)
        noisy = data.inject_asymmetric_noise(ds, 1.0, {0: 1}, seed=2)
        assert np.all(noisy.y_obs[noisy.y_true == 0] == 1)
        for c in (1, 2, 3):
            assert np.all(noisy.y_obs[noisy.y_true == c] == c)


class TestSplitMeta:
    def test_empty_meta(self):
        ds = data.make_blobs(4, 50, 2, 0.5, seed=1)
        train, meta = data.split_meta(ds, 0, seed=2)
        assert meta.m == 0
        assert train.n == ds.n

    def test_one_per_class(self):
        ds = data.make_blobs(4, 50, 2, 0.5, seed=1)
        _, meta = data.split_meta(ds, 4, seed=2)
        assert sorted(meta.y) == [0, 1, 2, 3]

    def test_balanced_split_counts(self):
        ds = data.make_blobs(4, 500, 2, 0.5, seed=1)
        noisy = data.inject_symmetric_noise(ds, 0.4, seed=2)
        train, meta = data.split_meta(noisy, 40, seed=3)
        assert meta.m == 40
        assert train.n == 1960
        assert np.all(np.bincount(meta.y, minlength=4) == 10)
        assert set(meta.ids) & set(train.ids) == set()
        assert sorted(list(meta.ids) + list(train.ids)) == list(range(2000))

    def test_meta_labels_are_true_labels(self):
        ds = data.make_blobs(4, 100, 2, 0.5, seed=1)
        noisy = data.inject_symmetric_noise(ds, 0.9, seed=2)
        _, meta = data.split_meta(noisy, 20, seed=3)
        lookup = {int(i): int(t) for i, t in zip(noisy.ids, noisy.y_true)}
        assert all(lookup[int(i)] == int(y) for i, y in zip(meta.ids, meta.y))

    def test_oversize_rejected(self):
        ds = data.make_blobs(2, 5, 2, 0.5, seed=1)
        with pytest.raises(ConfigError):
            data.split_meta(ds, 11, seed=2)


class TestAugment:
    def test_weak_no_jitter_identity(self):
        cfg = data.AugmentConfig(sigma_weak=0.0, sigma_strong=0.1, p_drop=0.0)
        x = np.array([[1.0, -2.0, 0.5]])
        weak, _ = data.make_views(x, cfg, np.random.default_rng(3))
        assert np.array_equal(weak, x)

    def test_full_dropout_zeroes_strong_view(self):
        cfg = data.AugmentConfig(sigma_weak=0.0, sigma_strong=0.1, p_drop=1.0)
        _, strong = data.make_views(np.ones((1, 5)), cfg, np.random.default_rng(3))
        assert np.all(strong == 0.0)

    def test_jitter_moment_monte_carlo(self):
        cfg = data.AugmentConfig(sigma_weak=0.05, sigma_strong=0.15, p_drop=0.1)
        x = np.array([0.3, -0.7])
        weak, _ = data.make_views(np.tile(x, (10_000, 1)), cfg, np.random.default_rng(0))
        offsets = weak - x
        bound = 3 * 0.05 / np.sqrt(10_000)
        assert np.all(np.abs(offsets.mean(axis=0)) <= bound)

    def test_make_views_shapes_and_determinism(self):
        cfg = data.AugmentConfig(0.1, 0.2, 0.3)
        x = np.random.default_rng(0).standard_normal((20, 4))
        w1, s1 = data.make_views(x, cfg, np.random.default_rng(5))
        w2, s2 = data.make_views(x, cfg, np.random.default_rng(5))
        assert np.array_equal(w1, w2) and np.array_equal(s1, s2)
        assert w1.shape == s1.shape == x.shape

    def test_weak_view_alone_has_the_same_bits(self):
        cfg = data.AugmentConfig(0.1, 0.2, 0.3)
        x = np.random.default_rng(1).standard_normal((20, 4))
        weak, _ = data.make_views(x, cfg, np.random.default_rng(6))
        alone, strong = data.make_views(x, cfg, np.random.default_rng(6),
                                         draw_strong=False)
        assert strong is None and np.array_equal(alone, weak)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        ds = data.make_blobs(3, 40, 4, 0.5, seed=9)
        noisy = data.inject_asymmetric_noise(ds, 0.3, {0: 1, 1: 2, 2: 0}, seed=10)
        csv = tmp_path / "d.csv"
        sidecar = tmp_path / "d.json"
        data.save_dataset(noisy, csv, sidecar, seed=9)
        back = data.load_dataset(csv, sidecar)
        assert np.array_equal(back.x, noisy.x)
        assert np.array_equal(back.y_true, noisy.y_true)
        assert np.array_equal(back.y_obs, noisy.y_obs)
        assert back.num_classes == 3
        assert back.noise_spec.mode == "asymmetric"
        assert back.noise_spec.pair_map == {0: 1, 1: 2, 2: 0}

    def test_byte_identical_rewrites(self, tmp_path):
        ds = data.make_blobs(3, 25, 2, 0.4, seed=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        data.save_dataset(ds, p1, tmp_path / "a.json", seed=2)
        data.save_dataset(ds, p2, tmp_path / "b.json", seed=2)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


    def test_csv_text_formats_each_value_as_fmt_float(self):
        # the manifest fingerprints hash this text, so its bytes must not move:
        # compare against per-value formatting on edge values
        ds = data.make_blobs(2, 3, 4, 0.5, seed=1)
        ds.x[0] = [-0.0, 5e-324, 1e300, -1e-300]
        ds.x[1] = [0.1, -2.5, 1.0 / 3.0, np.nextafter(1.0, 2.0)]
        ds.x[2] = [np.inf, -np.inf, np.nan, 1.7976931348623157e308]
        lines = "".join(data.dataset_csv_chunks(ds)).splitlines()
        assert lines[0] == "id,y_true,y_obs,x0,x1,x2,x3"
        assert len(lines) == ds.n + 1
        for i, line in enumerate(lines[1:]):
            cells = [str(int(ds.ids[i])), str(int(ds.y_true[i])), str(int(ds.y_obs[i]))]
            assert line == ",".join(cells + [fmt_float(v) for v in ds.x[i]])
        assert lines[1].endswith(",-0,4.9406564584124654e-324,1.0000000000000001e+300,-1e-300")


def test_moved_blobs_outside_hull():
    # the class centers' hull is the square |x| + |y| <= CENTER_RADIUS; the
    # OOD centers lie on its circumcircle, midway between its corners, so at
    # spread 0.2 a point falls inside only beyond 2.9 standard deviations
    ds = data.make_blobs(4, 50, 2, 0.2, seed=1, angle_frac=data.OOD_ANGLE_FRAC)
    outside = np.abs(ds.x[:, :2]).sum(axis=1) > data.CENTER_RADIUS
    assert outside.mean() >= 0.99
    # at the class radius, not in the far field
    radii = np.linalg.norm(ds.x[:, :2], axis=1)
    assert abs(radii.mean() - data.CENTER_RADIUS) < 0.1


# the seed-1 cfg/fixture.cfg train, test and OOD sets' sha256 digests
FIXTURE_FINGERPRINTS = [
    "ae2b4c3db2a6cadbc8900730961328593159939b607000203ca7ad4e64bfbb9c",
    "cc2746025507fffcf344e000e8a5e00918ca83c1ab80a4788efe39ee6ea7b76f",
    "682d3cae221245d68fea86c2754c34f8ca835a14687532cc11630ebf95e10ccb",
]


def test_fixture_set_fingerprints():
    # the seed-1 cfg/fixture.cfg sets, as a run's manifest fingerprints them
    train, _, test, ood = config.make_datasets(config.load_config(FIXTURE_CFG))
    digest = lambda ds: hashlib.sha256(
        "".join(data.dataset_csv_chunks(ds)).encode()).hexdigest()
    assert [digest(ds) for ds in (train, test, ood)] == FIXTURE_FINGERPRINTS


def test_cli_streamed_fingerprints_equal_the_pinned_digests():
    # cli._fingerprint hashes the CSV piece by piece, without the whole text
    from noisylab import cli

    train, _, test, ood = config.make_datasets(config.load_config(FIXTURE_CFG))
    assert len(train.x) > data.CSV_CHUNK_ROWS  # more than one piece of rows
    assert [cli._fingerprint(ds) for ds in (train, test, ood)] == FIXTURE_FINGERPRINTS


@pytest.mark.parametrize("n", [1, 255, 256, 257, 513])
def test_csv_chunks_split_rows_at_the_chunk_size(n):
    ds = data.make_blobs(2, 300, 3, 0.5, seed=2)
    ds = data.Dataset(ds.x[:n], ds.y_true[:n], ds.y_obs[:n], ds.ids[:n], 2)
    chunks = list(data.dataset_csv_chunks(ds))
    assert [c.count("\n") for c in chunks[1:]] == [
        min(data.CSV_CHUNK_ROWS, n - start) for start in range(0, n, data.CSV_CHUNK_ROWS)]
    assert all(c.endswith("\n") for c in chunks)
