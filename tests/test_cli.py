"""Command-line contract: subcommands, exit codes, reproducible outputs."""

import hashlib
import importlib.util
import json
import os

import numpy as np
import pytest

from noisylab import cli, config
from noisylab.data import load_dataset
from noisylab.metrics import RunReport
from noisylab.util import dumps_deterministic

SMALL_RUN = """
[run]
seed = 5

[dataset]
num_classes = 4
per_class = 40
dim = 3
spread = 0.5
noise_mode = symmetric
noise_rate = 0.4
meta_size = 8
test_per_class = 20

[trainer]
epochs = 3
batch_size = 32
warmup_start = 1
warmup_full = 2
decay_epochs = 2

[net]
hidden = 16
proj = 6
"""


ROOT = os.path.join(os.path.dirname(__file__), "..")
ARTIFACTS = ("report.json", "metrics.csv", "manifest.json",
             "checkpoint_net1.bin", "checkpoint_net2.bin")


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_RUN)
    return str(path)


class TestGenerate:
    def test_writes_dataset_files(self, cfg_path, tmp_path):
        out = str(tmp_path / "gen")
        assert cli.main(["generate", "--config", cfg_path, "--out", out]) == 0
        ds = load_dataset(os.path.join(out, "dataset.csv"),
                          os.path.join(out, "dataset.json"))
        assert ds.n == 160
        assert ds.noise_spec.mode == "symmetric"
        assert ds.noise_spec.rate == 0.4

    def test_byte_identical_reruns(self, cfg_path, tmp_path):
        out1, out2 = str(tmp_path / "g1"), str(tmp_path / "g2")
        cli.main(["generate", "--config", cfg_path, "--out", out1])
        cli.main(["generate", "--config", cfg_path, "--out", out2])
        for name in ("dataset.csv", "dataset.json"):
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b

    def test_malformed_key_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[dataset]\nnum_clases = 4\n")
        code = cli.main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "num_clases" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert cli.main(["generate", "--config", str(tmp_path / "nope.cfg"),
                         "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["generate", "train"])
    def test_directory_as_config_exit_2(self, command, tmp_path, capsys):
        folder = tmp_path / "cfgdir"
        folder.mkdir()
        assert cli.main([command, "--config", str(folder),
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and str(folder) in err

    @pytest.mark.parametrize("command", ["generate", "train"])
    def test_unusable_out_dir_exit_2(self, command, cfg_path, tmp_path, capsys):
        # an empty value, from the file or the flag, an existing regular file
        # and a path through one name the key and leave the file as it was
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        empty = tmp_path / "empty_out.cfg"
        empty.write_text(SMALL_RUN.replace("seed = 5", "seed = 5\nout_dir ="))
        for config_path, out in ((str(empty), []), (cfg_path, ["--out", ""]),
                                 (cfg_path, ["--out", str(taken)]),
                                 (cfg_path, ["--out", str(taken / "sub")])):
            assert cli.main([command, "--config", config_path] + out) == 2, out
            err = capsys.readouterr().err
            assert err.startswith("configuration error") and "run.out_dir" in err, err
        assert taken.read_text() == "not a directory\n"

    def test_removed_fd_step_key_exit_2(self, tmp_path, capsys):
        # keys that once existed are unknown now, like any other; the whole
        # [reliability] section is gone, so its keys fail on the section name
        bad = tmp_path / "old.cfg"
        for section, key, value, named in (
                ("reliability", "fd_step", "0.5", "'[reliability]'"),
                ("reliability", "stride", "1", "'[reliability]'"),
                ("reliability", "xi", "1e-10", "'[reliability]'"),
                ("run", "diagnostics", "true", "'run.diagnostics'"),
                ("ram", "delta", "1e-8", "'ram.delta'"),
                ("cdcl", "range_eps", "1e-6", "'cdcl.range_eps'")):
            bad.write_text("[%s]\n%s = %s\n" % (section, key, value))
            assert cli.main(["generate", "--config", str(bad),
                             "--out", str(tmp_path / "x")]) == 2, key
            err = capsys.readouterr().err
            assert "unknown config" in err and named in err, key


def _csv_cell(column, token):
    """A corruption setting the first sample's cell in CSV column `column`
    (0 id, 1 y_true, 2 y_obs) to token."""
    def corrupt(data_dir, cfg_text):
        csv = data_dir / "dataset.csv"
        lines = csv.read_text().splitlines()
        cells = lines[1].split(",")
        cells[column] = token
        lines[1] = ",".join(cells)
        csv.write_text("\n".join(lines) + "\n")
        return cfg_text
    return corrupt


def _csv_first_row(edit):
    """A corruption replacing the first sample's CSV cells by edit(cells)."""
    def corrupt(data_dir, cfg_text):
        csv = data_dir / "dataset.csv"
        lines = csv.read_text().splitlines()
        lines[1] = ",".join(edit(lines[1].split(",")))
        csv.write_text("\n".join(lines) + "\n")
        return cfg_text
    return corrupt


def _empty_csv(data_dir, cfg_text):
    (data_dir / "dataset.csv").write_text("")
    return cfg_text


def _sidecar_without_dim(data_dir, cfg_text):
    sidecar = data_dir / "dataset.json"
    raw = json.loads(sidecar.read_text())
    del raw["dim"]
    sidecar.write_text(json.dumps(raw))
    return cfg_text


def _numeric_leaves(obj, path=()):
    """(path, value) of every number in parsed JSON, booleans aside."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _numeric_leaves(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _numeric_leaves(value, path + (i,))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path, obj


def _with_leaf(text, path, token):
    """JSON text with the leaf at path replaced by the raw JSON token."""
    raw = json.loads(text)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@LEAF@"
    return json.dumps(raw).replace('"@LEAF@"', token)


def _sidecar_value(key, token):
    """A corruption setting the sidecar's key (dotted for a nested one) to
    the raw JSON token."""
    def corrupt(data_dir, cfg_text):
        sidecar = data_dir / "dataset.json"
        sidecar.write_text(_with_leaf(sidecar.read_text(), tuple(key.split(".")), token))
        return cfg_text
    return corrupt


def _negative_dim(data_dir, cfg_text):
    # a CSV whose header and rows hold no feature column, as dim = -1 would
    # render them, so only the sidecar's value is wrong
    (data_dir / "dataset.csv").write_text("id,y_true,y_obs,\n0,0,0,\n1,1,1,\n")
    return _sidecar_value("dim", "-1")(data_dir, cfg_text)


def _dim_mismatch(data_dir, cfg_text):
    # the files were generated with dim = 3; the run asks for 16
    return cfg_text.replace("dim = 3", "dim = 16")


def _small_run_with(section, key, value):
    """SMALL_RUN with section.key set to value (added or replaced)."""
    raw = config.parse_config_text(SMALL_RUN)
    raw.setdefault(section, {})[key] = value
    return "".join("[%s]\n%s\n" % (name, "".join("%s = %s\n" % kv for kv in entries.items()))
                   for name, entries in raw.items())


# every float key, and the sigmas, which are floats unless 'auto'
NUMERIC_KEYS = [(section, key) for section, keys in config.SCHEMA.items()
                for key, (parser, _) in keys.items() if parser is float]
NUMERIC_KEYS += [("augment", "sigma_weak"), ("augment", "sigma_strong")]


class TestInvalidValues:
    @pytest.mark.parametrize("old, new, key", [
        ("hidden = 16", "hidden = 0", "net.hidden"),
        ("proj = 6", "proj = 0", "net.proj"),
    ], ids=["hidden_0", "proj_0"])
    def test_zero_width_net_exit_2(self, old, new, key, tmp_path, capsys):
        path = tmp_path / "net.cfg"
        path.write_text(SMALL_RUN.replace(old, new))
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("line, key", [
        ("lr = nan", "trainer.lr"),
        ("lr = inf", "trainer.lr"),
        ("sharpen_temp = nan", "trainer.sharpen_temp"),
    ], ids=["lr_nan", "lr_inf", "sharpen_temp_nan"])
    def test_non_finite_trainer_value_exit_2(self, line, key, tmp_path, capsys):
        path = tmp_path / "nan.cfg"
        path.write_text(SMALL_RUN.replace("[trainer]\n", "[trainer]\n%s\n" % line))
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("momentum", "1.5"), ("momentum", "1.0"), ("momentum", "-0.5"),
        ("weight_decay", "-5"), ("decay_factor", "-0.5"), ("eta_w", "-3"),
        ("lambda_cdcl", "-1"),
    ], ids=["momentum_1.5", "momentum_1", "momentum_-0.5", "weight_decay_-5",
            "decay_factor_-0.5", "eta_w_-3", "lambda_cdcl_-1"])
    def test_out_of_range_optimizer_value_exit_2(self, key, value, tmp_path, capsys):
        # a run with any of these would ascend or diverge instead of stopping
        # at load with the key named
        path = tmp_path / "range.cfg"
        path.write_text(_small_run_with("trainer", key, value))
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        assert "trainer.%s" % key in capsys.readouterr().err

    def test_negative_decay_epoch_exit_2(self, tmp_path, capsys):
        # a negative entry counts as reached from epoch 0: the base rate would
        # silently start decayed
        path = tmp_path / "decay.cfg"
        path.write_text(_small_run_with("trainer", "decay_epochs", "-1,5"))
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        assert "trainer.decay_epochs" in capsys.readouterr().err

    @pytest.mark.parametrize("text, flag", [
        (SMALL_RUN.replace("seed = 5", "seed = -5"), []),
        (SMALL_RUN, ["--seed", "-1"]),
    ], ids=["config", "flag"])
    def test_negative_seed_exit_2(self, text, flag, tmp_path, capsys):
        # np.random.SeedSequence rejects negative entries with a raw ValueError
        path = tmp_path / "seed.cfg"
        path.write_text(text)
        assert cli.main(["generate", "--config", str(path), "--out", str(tmp_path / "g")]
                        + flag) == 2
        assert "run.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", NUMERIC_KEYS,
                             ids=["%s.%s" % sk for sk in NUMERIC_KEYS])
    def test_non_finite_float_exit_2(self, section, key, tmp_path, capsys):
        # NaN passes every range check; unnamed, these values fail late: a hang
        # in the Beta sampler ([ram] gamma), raw tracebacks, or exit 1 as a
        # training abort
        for value in ("nan", "inf", "-inf"):
            path = tmp_path / ("%s.cfg" % value)
            path.write_text(_small_run_with(section, key, value))
            assert cli.main(["train", "--config", str(path),
                             "--out", str(tmp_path / "r")]) == 2, value
            assert "%s.%s" % (section, key) in capsys.readouterr().err, value


class TestLoadedDataset:
    @pytest.mark.parametrize("corrupt, expected", [
        # y_obs of the first sample set to 7 with 4 classes
        (_csv_cell(2, "7"), ["dataset.csv", "class index out of range"]),
        (_empty_csv, ["dataset.csv", "no samples"]),
        (_sidecar_without_dim, ["dataset.json", "'dim'"]),
        (_dim_mismatch, ["dataset.dim"]),
        (_sidecar_value("dim", "Infinity"), ["dataset.json", "dim must be an integer >= 1"]),
        (_sidecar_value("dim", "1e400"), ["dataset.json", "dim must be an integer >= 1"]),
        (_negative_dim, ["dataset.json", "dim must be an integer >= 1"]),
        (_sidecar_value("dim", "3.5"), ["dataset.json", "dim must be an integer >= 1"]),
        (_sidecar_value("dim", "true"), ["dataset.json", "dim must be an integer >= 1"]),
        (_sidecar_value("num_classes", "4.5"), ["dataset.json", "num_classes must be an integer"]),
        (_sidecar_value("num_classes", "1"), ["dataset.json", "num_classes must be an integer"]),
        # a dim this large must fail on the header's column count before its
        # expected header is built
        (_sidecar_value("dim", "1" + "0" * 29), ["dataset.csv", "header"]),
        # a noise description no noise injection could have written
        (_sidecar_value("noise_spec.mode", '"bogus"'), ["dataset.json", "noise_spec.mode"]),
        (_sidecar_value("noise_spec.rate", "NaN"), ["dataset.json", "noise_spec.rate"]),
        (_sidecar_value("noise_spec.rate", "Infinity"), ["dataset.json", "noise_spec.rate"]),
        (_sidecar_value("noise_spec.rate", "-0.4"), ["dataset.json", "noise_spec.rate"]),
        (_sidecar_value("noise_spec.rate", "1.5"), ["dataset.json", "noise_spec.rate"]),
        (_sidecar_value("noise_spec.rate", '"0.4"'), ["dataset.json", "noise_spec.rate"]),
        (_sidecar_value("noise_spec.seed", '"abc"'), ["dataset.json", "noise_spec.seed"]),
        (_sidecar_value("noise_spec.seed", "-772704146"), ["dataset.json", "noise_spec.seed"]),
        (_sidecar_value("noise_spec.seed", "1.5"), ["dataset.json", "noise_spec.seed"]),
        # integer cells too large for int64
        (_csv_cell(0, "1" + "0" * 25), ["dataset.csv", "row 1"]),
        (_csv_cell(1, "1" + "0" * 25), ["dataset.csv", "row 1"]),
        (_csv_cell(2, "1" + "0" * 25), ["dataset.csv", "row 1"]),
        # SMALL_RUN's dim is 3: a row of 4 or 7 cells, not 6
        (_csv_first_row(lambda cells: cells[:4]), ["dataset.csv", "row 1", "4 cells, expected 6"]),
        (_csv_first_row(lambda cells: cells + ["0.5"]),
         ["dataset.csv", "row 1", "7 cells, expected 6"]),
    ], ids=["label_out_of_range", "empty_csv", "sidecar_without_dim", "dim_mismatch",
            "infinite_dim", "overflowing_dim", "negative_dim", "fractional_dim",
            "boolean_dim", "fractional_num_classes", "one_class", "huge_dim",
            "unknown_noise_mode",
            "nan_noise_rate", "infinite_noise_rate", "negative_noise_rate",
            "noise_rate_above_one", "string_noise_rate", "string_noise_seed",
            "negative_noise_seed", "fractional_noise_seed",
            "huge_id", "huge_y_true", "huge_y_obs", "one_feature_cell", "extra_cell"])
    def test_malformed_dataset_exit_2(self, corrupt, expected, cfg_path, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert cli.main(["generate", "--config", cfg_path, "--out", str(data_dir)]) == 0
        text = SMALL_RUN.replace("[dataset]\n", "[dataset]\nload_dir = %s\n" % data_dir)
        path = tmp_path / "load.cfg"
        path.write_text(corrupt(data_dir, text))
        capsys.readouterr()
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        for fragment in expected:
            assert fragment in err

    # SMALL_RUN's pool is symmetric at 0.4; each case trains on a pool
    # whose noise the [dataset] keys misstate
    @pytest.mark.parametrize("generated, trained, key", [
        ({}, {"noise_mode": "none"}, "noise_mode"),
        ({}, {"noise_rate": "0.2"}, "noise_rate"),
        ({"noise_mode": "asymmetric", "pair_map": "0:1,1:2"},
         {"noise_mode": "asymmetric", "pair_map": "0:1,1:3"}, "pair_map"),
    ], ids=["mode", "rate", "pair_map"])
    def test_noise_setting_mismatch_exit_2(self, generated, trained, key, tmp_path, capsys):
        data_dir = tmp_path / "data"
        gen, load = tmp_path / "gen.cfg", tmp_path / "load.cfg"
        text = SMALL_RUN
        for name, value in generated.items():
            text = _set_value(text, "dataset", name, value)
        gen.write_text(text)
        assert cli.main(["generate", "--config", str(gen), "--out", str(data_dir)]) == 0
        text = _set_value(text, "dataset", "load_dir", str(data_dir))
        for name, value in trained.items():
            text = _set_value(text, "dataset", name, value)
        load.write_text(text)
        capsys.readouterr()
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(load), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(data_dir) in err and "dataset.%s" % key in err
        assert not (out / "report.json").exists()

    def test_matching_noise_trains_under_any_seed(self, cfg_path, tmp_path):
        # the noise seed is not compared: one saved pool serves every run seed
        data_dir = tmp_path / "data"
        assert cli.main(["generate", "--config", cfg_path, "--out", str(data_dir)]) == 0
        load = tmp_path / "load.cfg"
        load.write_text(_set_value(SMALL_RUN, "dataset", "load_dir", str(data_dir)))
        assert cli.main(["train", "--config", str(load), "--out", str(tmp_path / "run"),
                         "--seed", "9"]) == 0

    def test_null_noise_spec_loads_under_any_noise_keys(self, cfg_path, tmp_path):
        data_dir = tmp_path / "data"
        assert cli.main(["generate", "--config", cfg_path, "--out", str(data_dir)]) == 0
        _sidecar_value("noise_spec", "null")(data_dir, SMALL_RUN)
        load = tmp_path / "load.cfg"
        text = _set_value(SMALL_RUN, "dataset", "load_dir", str(data_dir))
        load.write_text(_set_value(text, "dataset", "noise_rate", "0.2"))
        assert cli.main(["train", "--config", str(load), "--out", str(tmp_path / "run")]) == 0


class TestTrain:
    def test_full_run_outputs(self, cfg_path, tmp_path):
        out = str(tmp_path / "run")
        assert cli.main(["train", "--config", cfg_path, "--out", out]) == 0
        for name in ("report.json", "metrics.csv", "manifest.json",
                     "checkpoint_net1.bin", "checkpoint_net2.bin"):
            assert os.path.exists(os.path.join(out, name)), name
        report = RunReport.from_json(open(os.path.join(out, "report.json")).read())
        assert len(report.epochs) == 3
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["config_hash"] == manifest["provenance"].split("cfg.")[1][:12] or \
            manifest["config_hash"].startswith(manifest["provenance"].split("cfg.")[1])

    def test_repeat_same_seed_identical_report(self, cfg_path, tmp_path):
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert cli.main(["train", "--config", cfg_path, "--out", out1]) == 0
        assert cli.main(["train", "--config", cfg_path, "--out", out2]) == 0
        a = open(os.path.join(out1, "report.json"), "rb").read()
        b = open(os.path.join(out2, "report.json"), "rb").read()
        assert a == b
        a_csv = open(os.path.join(out1, "metrics.csv"), "rb").read()
        b_csv = open(os.path.join(out2, "metrics.csv"), "rb").read()
        assert a_csv == b_csv

    def test_seed_override_changes_report(self, cfg_path, tmp_path):
        out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
        cli.main(["train", "--config", cfg_path, "--out", out1])
        cli.main(["train", "--config", cfg_path, "--out", out2, "--seed", "77"])
        a = open(os.path.join(out1, "report.json")).read()
        b = open(os.path.join(out2, "report.json")).read()
        assert a != b

    @pytest.mark.parametrize("loaded", [False, True], ids=["generated", "load_dir"])
    def test_meta_set_of_the_whole_pool_exit_2(self, loaded, tmp_path, capsys):
        # 2 classes of 10 samples and a meta set of 20 would train on nothing
        text = SMALL_RUN.replace("num_classes = 4", "num_classes = 2").replace(
            "per_class = 40", "per_class = 10").replace("meta_size = 8", "meta_size = 20")
        if loaded:
            gen = tmp_path / "gen.cfg"
            gen.write_text(text)
            data_dir = tmp_path / "data"
            assert cli.main(["generate", "--config", str(gen), "--out", str(data_dir)]) == 0
            text = text.replace("[dataset]\n", "[dataset]\nload_dir = %s\n" % data_dir)
        path = tmp_path / "whole.cfg"
        path.write_text(text)
        capsys.readouterr()
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 2
        assert "dataset.meta_size" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_out_of_memory_exit_1_without_traceback(self, cfg_path, tmp_path, capsys,
                                                     monkeypatch):
        def exhausted(cfg):
            raise MemoryError("Unable to allocate 22.4 GiB for an array")

        monkeypatch.setattr(config, "make_training_pool", exhausted)
        for command in ("generate", "train"):
            assert cli.main([command, "--config", cfg_path,
                             "--out", str(tmp_path / command)]) == 1, command
            err = capsys.readouterr().err
            assert err == "error: out of memory: Unable to allocate 22.4 GiB for an array\n"

    def test_epochs_zero_initial_only(self, tmp_path):
        text = SMALL_RUN.replace("epochs = 3", "epochs = 0")
        text = text.replace("warmup_start = 1", "warmup_start = 0")
        text = text.replace("warmup_full = 2", "warmup_full = 0")
        path = tmp_path / "zero.cfg"
        path.write_text(text)
        out = str(tmp_path / "zero")
        assert cli.main(["train", "--config", str(path), "--out", out]) == 0
        report = RunReport.from_json(open(os.path.join(out, "report.json")).read())
        assert report.epochs == []
        assert "test_acc" in report.initial

    def test_diagnostics_streams(self, cfg_path, tmp_path):
        out = str(tmp_path / "diag")
        assert cli.main(["train", "--config", cfg_path, "--out", out,
                         "--diagnostics"]) == 0
        rel = open(os.path.join(out, "diag_reliability.csv")).read().splitlines()
        assert rel[0] == "epoch,batch,id,alpha,beta,is_label_clean"
        assert len(rel) > 1
        lam = open(os.path.join(out, "diag_lambda.csv")).read().splitlines()
        assert lam[0] == "epoch,pair_type,bin_lo,bin_hi,count"
        # each epoch's purity is in metrics.csv, with no stream of its own
        assert sorted(name for name in os.listdir(out) if name.startswith("diag_")) == [
            "diag_lambda.csv", "diag_reliability.csv"]

    def test_epoch_record_matches_the_diagnostics_streams(self, cfg_path, tmp_path):
        # each epoch's reliability and lambda statistics, recomputed from the
        # streams, equal the record's bits, and so do metrics.csv's purities
        import csv

        out = tmp_path / "diag"
        assert cli.main(["train", "--config", cfg_path, "--out", str(out),
                         "--diagnostics"]) == 0
        read = lambda name: list(csv.DictReader(open(out / name)))
        cell = lambda v: None if v == "" else float(v)
        epochs = RunReport.from_json((out / "report.json").read_text()).epochs
        rel, lam = read("diag_reliability.csv"), read("diag_lambda.csv")
        met = read("metrics.csv")
        assert len(met) == len(epochs) == 3
        pairs_seen = 0
        for rec, met_row in zip(epochs, met):
            t = rec["epoch"]
            # the file's order is the tally's: batch by batch, net 1's rows
            # before net 2's
            rows = [row for row in rel if int(row["epoch"]) == t]
            for label, clean in (("clean", "true"), ("noisy", "false")):
                for name in ("alpha", "beta"):
                    values = np.array([float(row[name]) for row in rows
                                       if row["is_label_clean"] == clean])
                    stats = rec["reliability_stats"]
                    assert values.size > 0
                    assert stats["%s_%s_mean" % (name, label)] == values.mean(), (t, name)
                    assert stats["%s_%s_std" % (name, label)] == values.std(), (t, name)
            bins = [row for row in lam if int(row["epoch"]) == t]
            if rec["lambda_stats"] is None:
                assert bins == []
            else:
                counts = {}
                for row in bins:
                    counts.setdefault(row["pair_type"], []).append(int(row["count"]))
                for kind, kind_counts in counts.items():
                    assert rec["lambda_stats"][kind]["count"] == sum(kind_counts), (t, kind)
                assert rec["lambda_stats"]["hist"] == [sum(c) for c in zip(*counts.values())]
                pairs_seen += 1
            assert int(met_row["epoch"]) == t
            for key in ("purity_raw", "purity_gated"):
                assert rec[key] == cell(met_row[key]), (t, key)
        assert pairs_seen == 1  # the ramp is 0, without Mixup pairs, before epoch 2
        assert epochs[-1]["purity_raw"] is not None

    def test_non_finite_gradient_aborts_with_snapshot(self, cfg_path, tmp_path, capsys,
                                                       monkeypatch):
        # a non-finite gradient behind a finite loss is a divergence: exit 1
        # with the abort snapshot, not an exception from the parameter update
        import numpy as np

        from noisylab import trainer

        backward = trainer.backward_batch

        def poisoned(params, cache, dlogits, demb=None, buffers=None):
            grad = backward(params, cache, dlogits, demb, buffers)
            grad[0] = np.inf
            return grad

        monkeypatch.setattr(trainer, "backward_batch", poisoned)
        out = tmp_path / "inf"
        assert cli.main(["train", "--config", cfg_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "non-finite gradient at epoch 0 batch 0" in err
        assert "Traceback" not in err
        snap = json.loads((out / "abort_snapshot.json").read_text())
        assert (snap["epoch"], snap["batch"], snap["net"]) == (0, 0, "net1")
        assert np.isfinite(float(snap["components"]["total"]))
        for name in ("abort_net1.bin", "abort_net2.bin"):
            assert (out / name).exists()

    def test_non_finite_second_net_aborts_before_either_net_moves(self, cfg_path, tmp_path,
                                                                   capsys, monkeypatch):
        # only net2's gradient is non-finite, at batch 1: the abort names net2,
        # and both nets' abort checkpoints hold the parameters from before that
        # batch, so net1 has not taken its step either
        from noisylab import trainer
        from noisylab.net import load_checkpoint

        backward = trainer.backward_batch
        seen = []

        def poisoned(params, cache, dlogits, demb=None, buffers=None):
            grad = backward(params, cache, dlogits, demb, buffers)
            seen.append(params.flat.copy())
            if len(seen) == 2:
                grad[1, 0] = np.nan
            return grad

        monkeypatch.setattr(trainer, "backward_batch", poisoned)
        out = tmp_path / "nan2"
        assert cli.main(["train", "--config", cfg_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "non-finite gradient at epoch 0 batch 1 (net2)" in err
        snap = json.loads((out / "abort_snapshot.json").read_text())
        assert (snap["epoch"], snap["batch"], snap["net"]) == (0, 1, "net2")
        assert not np.array_equal(seen[0], seen[1])  # batch 0 moved both nets
        for k, name in enumerate(("net1", "net2")):
            saved = load_checkpoint(out / ("abort_%s.bin" % name))
            assert np.array_equal(saved.flat, seen[1][k]), name

    def test_diverging_run_prints_only_its_abort_line(self, tmp_path):
        # a step size that blows the run up overflows on its way to the
        # divergence guard; in a fresh interpreter, where numpy's warnings
        # reach stderr, the abort line is all the run prints there
        import subprocess
        import sys

        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(SMALL_RUN.replace("decay_epochs = 2\n", "decay_epochs = 2\nlr = 1000000\n"))
        out = tmp_path / "diverged"
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run([sys.executable, "-m", "noisylab.cli", "train", "--config",
                               str(cfg), "--out", str(out)], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 1
        assert proc.stderr == ("training aborted: non-finite reliability at epoch 1 batch 1"
                               " (net1)\n")
        snap = json.loads((out / "abort_snapshot.json").read_text())
        assert (snap["epoch"], snap["batch"], snap["net"]) == (1, 1, "net1")
        for name in ("abort_net1.bin", "abort_net2.bin"):
            assert (out / name).exists()

    def test_checkpoints_loadable(self, cfg_path, tmp_path):
        from noisylab.net import load_checkpoint

        out = str(tmp_path / "ck")
        cli.main(["train", "--config", cfg_path, "--out", out])
        params = load_checkpoint(os.path.join(out, "checkpoint_net1.bin"))
        assert params.arch.hidden == 16

    def test_ood_summary_belongs_to_the_final_pair(self, cfg_path, tmp_path):
        # the saved checkpoints, stacked, score the regenerated test and OOD
        # sets to the AUROC and FPR95 the report holds
        from noisylab import metrics
        from noisylab.net import load_checkpoint, stack_params

        out = tmp_path / "run"
        assert cli.main(["train", "--config", cfg_path, "--out", str(out)]) == 0
        params = stack_params([load_checkpoint(out / ("checkpoint_%s.bin" % name))
                               for name in metrics.NETS])
        _, _, test, ood = config.make_datasets(config.load_config(cfg_path))
        scores = metrics.OodScoreSet(metrics.msp_scores_ensemble(params, test.x),
                                     metrics.msp_scores_ensemble(params, ood.x))
        summary = json.loads((out / "report.json").read_text())["summary"]
        assert summary["ood"] == {"auroc": metrics.auroc(scores),
                                  "fpr95": metrics.fpr_at_95_tpr(scores)}

    def test_manifest_hash_recomputable(self, cfg_path, tmp_path):
        from noisylab import config as cfgmod

        out = str(tmp_path / "mh")
        cli.main(["train", "--config", cfg_path, "--out", out])
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        cfg = cfgmod.load_config(cfg_path, out_override=out)
        assert cfgmod.config_hash(cfg) == manifest["config_hash"]
        # the hash is over the report's config echo, so the report alone
        # checks a run's provenance
        report = json.load(open(os.path.join(out, "report.json")))
        echo = dumps_deterministic(report["config"]).encode()
        assert hashlib.sha256(echo).hexdigest() == manifest["config_hash"]


class TestPairMap:
    @pytest.mark.parametrize("mode", ["asymmetric", "symmetric"])
    def test_run_writes_every_artifact_and_a_readable_report(self, mode, tmp_path, capsys):
        # the report echoes the map with string keys, as JSON requires and
        # as the dataset sidecar writes it
        path = tmp_path / "pairs.cfg"
        text = _small_run_with("dataset", "noise_mode", mode)
        path.write_text(text.replace("[dataset]\n", "[dataset]\npair_map = 2:3,0:1\n"))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 0
        for name in ARTIFACTS:
            assert (out / name).stat().st_size > 0, name
        report = RunReport.from_json((out / "report.json").read_text())
        assert report.config["dataset"]["pair_map"] == {"0": 1, "2": 3}
        capsys.readouterr()
        assert cli.main(["report", str(out / "report.json")]) == 0
        assert "epochs recorded : 3" in capsys.readouterr().out


def _perfbench_module(name, monkeypatch):
    """perfbench/<name>.py, imported as it is; the BLAS thread variables
    that run.py pins on import are restored afterwards."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(ROOT, "perfbench", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkContract:
    """What the benchmark worker (perfbench/worker.py, imported as it is)
    reads of the program, on a small CLI run of the full pipeline and of
    perfbench's plain_ce workload: its artifact checks, its epoch-start hook
    on trainer.warmup and its row-count probes."""

    @pytest.mark.parametrize("workload", ["fixture", "plain_ce"])
    def test_worker_reads_a_small_run(self, workload, tmp_path, monkeypatch):
        from noisylab import trainer

        worker = _perfbench_module("worker", monkeypatch)
        run_py = _perfbench_module("run", monkeypatch)
        from tracer import Tracer

        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(run_py.set_keys(SMALL_RUN, run_py.WORKLOADS[workload]))

        run = {}
        co_train = cli.co_train

        def recording_co_train(train, meta, test, cfg, **kwargs):
            out = co_train(train, meta, test, cfg, **kwargs)
            run.update(report=out[0], test=test, cfg=cfg, n_train=train.n)
            return out

        kept = []
        refined_targets = trainer.refined_targets

        def counting_refined(*args, **kwargs):
            targets, bc = refined_targets(*args, **kwargs)
            kept.extend(len(rows) for rows in bc)
            return targets, bc

        monkeypatch.setattr(cli, "co_train", recording_co_train)
        monkeypatch.setattr(trainer, "refined_targets", counting_refined)
        monkeypatch.setattr(trainer, "warmup", trainer.warmup)  # restored afterwards
        tracer = Tracer()
        for span, probe in worker.PROBES.items():
            module, name = span.split(".")
            target = getattr(importlib.import_module("noisylab." + module), name)
            monkeypatch.setattr("noisylab.%s.%s" % (module, name),
                                tracer.wrap(target, span, probe=probe))
        epoch_refs = worker.install_epoch_reference()

        out = str(tmp_path / "run")
        assert cli.main(["train", "--config", str(cfg_path), "--out", out]) == 0
        tracer.stop()
        cfg = run["cfg"]
        assert cfg.use_meta == (workload == "fixture")
        assert worker.check_run(out, run["report"], run["test"], cfg) == []
        assert len(epoch_refs) == cfg.epochs
        # every row of every batch is offered to each net's cross-entropy
        offered = 2 * run["n_train"] * cfg.epochs
        assert tracer.counters["ce_rows_offered"] == offered
        if cfg.use_refine:
            assert tracer.counters["ce_rows_kept"] == sum(kept)
            assert 0 < sum(kept) < offered
        else:  # no filter: every offered row is kept
            assert kept == []
            assert tracer.counters["ce_rows_kept"] == offered


class TestTrainImports:
    @staticmethod
    def train_in_fresh_interpreter(cfg_path, out):
        """noisylab train in a fresh interpreter, without bytecode files, as
        the benchmark runs it: its exit code and which of noisylab.oracles
        and numpy.ma it left imported."""
        import subprocess
        import sys

        script = ("import json, sys\n"
                  "from noisylab import cli\n"
                  "code = cli.main(['train', '--config', %r, '--out', %r])\n"
                  "print(json.dumps([code, sorted(m for m in ('noisylab.oracles', 'numpy.ma')"
                  " if m in sys.modules)]))\n" % (cfg_path, out))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        return json.loads(proc.stdout.splitlines()[-1])

    def test_train_leaves_oracles_and_numpy_ma_unimported(self, cfg_path, tmp_path):
        out = str(tmp_path / "run")
        assert self.train_in_fresh_interpreter(cfg_path, out) == [0, []]
        # the run scored its OOD set, the step that used to import numpy.ma
        with open(os.path.join(out, "report.json")) as fh:
            assert json.load(fh)["summary"]["ood"]["fpr95"] is not None

    def test_load_dir_train_leaves_numpy_ma_unimported(self, cfg_path, tmp_path):
        # load_dataset checks the loaded sample ids for duplicates
        data_dir = tmp_path / "data"
        assert cli.main(["generate", "--config", cfg_path, "--out", str(data_dir)]) == 0
        load = tmp_path / "load.cfg"
        load.write_text(SMALL_RUN.replace("[dataset]\n", "[dataset]\nload_dir = %s\n" % data_dir))
        assert self.train_in_fresh_interpreter(str(load), str(tmp_path / "run")) == [0, []]


class TestOracle:
    def test_suite_all_passes(self, capsys):
        assert cli.main(["oracle", "auroc"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "FAIL" not in out

    def test_unknown_suite_exit_2(self, capsys):
        assert cli.main(["oracle", "nonsense"]) == 2
        assert "nonsense" in capsys.readouterr().err


class TestReport:
    def test_pretty_print(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "pp")
        cli.main(["train", "--config", cfg_path, "--out", out])
        capsys.readouterr()
        assert cli.main(["report", os.path.join(out, "report.json")]) == 0
        text = capsys.readouterr().out
        assert "final accuracy" in text
        assert "epochs recorded : 3" in text

    @pytest.mark.parametrize("make", [lambda path: None, lambda path: path.mkdir()],
                             ids=["missing", "directory"])
    def test_unreadable_report_exit_2(self, make, tmp_path, capsys):
        path = tmp_path / "report.json"
        make(path)
        assert cli.main(["report", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_missing_key_exit_2(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text('{"schema_version": 1}')
        assert cli.main(["report", str(path)]) == 2
        assert "'config'" in capsys.readouterr().err

    @pytest.mark.parametrize("leaf, token", [
        (("schema_version",), "Infinity"),
        (("summary", "best_acc_ensemble"), "1" + "0" * 400),
    ], ids=["infinite_schema_version", "integer_beyond_float"])
    def test_overflowing_value_exit_2(self, leaf, token, cfg_path, tmp_path, capsys):
        # %d of an infinity, or %.4f of an integer above the float range,
        # raises OverflowError
        out = tmp_path / "run"
        assert cli.main(["train", "--config", cfg_path, "--out", str(out)]) == 0
        path = tmp_path / "big.json"
        path.write_text(_with_leaf((out / "report.json").read_text(), leaf, token))
        capsys.readouterr()
        assert cli.main(["report", str(path)]) == 2
        assert str(path) in capsys.readouterr().err


class TestNonUtf8Input:
    @pytest.mark.parametrize("target", ["config", "dataset.csv", "dataset.json", "report"])
    def test_undecodable_bytes_exit_2_naming_the_file(self, target, cfg_path, tmp_path,
                                                     capsys):
        data_dir = tmp_path / "data"
        assert cli.main(["generate", "--config", cfg_path, "--out", str(data_dir)]) == 0
        load = tmp_path / "load.cfg"
        load.write_text(SMALL_RUN.replace("[dataset]\n", "[dataset]\nload_dir = %s\n" % data_dir))
        out = ["--out", str(tmp_path / "out")]
        if target == "config":
            bad = tmp_path / "bad.cfg"
            argv = ["generate", "--config", str(bad)] + out
        elif target == "report":
            bad = tmp_path / "report.json"
            argv = ["report", str(bad)]
        else:
            bad = data_dir / target
            argv = ["train", "--config", str(load)] + out
        bad.write_bytes(b"\xff\xfe" + (bad.read_bytes() if bad.exists() else b"{}"))
        capsys.readouterr()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "UTF-8" in err


def _mutate(blob: bytes, rng) -> bytes:
    """One to three byte flips, truncations or insertions at random offsets."""
    out = bytearray(blob)
    for _ in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(3))
        if kind == 0 and out:
            pos = int(rng.integers(len(out)))
            out[pos] ^= int(rng.integers(1, 256))
        elif kind == 1:
            del out[int(rng.integers(len(out) + 1)):]
        else:
            out.insert(int(rng.integers(len(out) + 1)), int(rng.integers(256)))
    return bytes(out)


def _config_text(default) -> str:
    """A SCHEMA default as it would be written in a config file."""
    if isinstance(default, bool):
        return "true" if default else "false"
    return "" if default is None else str(default)


def _set_value(text: str, section: str, key: str, value: str) -> str:
    """Config text with section.key set to value, in place or appended to
    its section (which is added when missing)."""
    out, current, done = [], None, False
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            if current == section and not done:
                out.append("%s = %s" % (key, value))
                done = True
            current = stripped[1:-1]
        elif current == section and stripped.split("=", 1)[0].strip() == key:
            line, done = "%s = %s" % (key, value), True
        out.append(line)
    if not done:
        if current != section:
            out.append("[%s]" % section)
        out.append("%s = %s" % (key, value))
    return "\n".join(out) + "\n"


class TestFuzz:
    """Seeded byte-level mutations of every file the CLI reads: each run
    ends in exit 0, 1 or 2, never in an escaping exception."""

    # epoch 0 of 1 is all warm-up, so a run that loads its data stays cheap
    ONE_EPOCH = SMALL_RUN.replace("epochs = 3", "epochs = 1").replace(
        "warmup_full = 2", "warmup_full = 1")

    @staticmethod
    def run_cli(argv, label, capsys, named=None):
        """The run ends in exit 0, 1 or 2; given `named`, in exit 0, or 2
        with `named` in its message."""
        try:
            code = cli.main(argv)
        except Exception as exc:  # the assertion names the input that escaped
            pytest.fail("%s: %s escaped: %s" % (label, type(exc).__name__, exc))
        err = capsys.readouterr().err
        if named is None:
            assert code in (0, 1, 2), label
        else:
            assert code == 0 or (code == 2 and named in err), (label, code, err)

    def test_mutated_configs(self, tmp_path, capsys):
        rng = np.random.default_rng(2026)
        path = tmp_path / "fuzz.cfg"
        for case in range(150):
            mutated = _mutate(SMALL_RUN.encode(), rng)
            path.write_bytes(mutated)
            self.run_cli(["generate", "--config", str(path), "--out", str(tmp_path / "g")],
                         "config case %d %r" % (case, mutated), capsys)

    @pytest.mark.parametrize("name", ["dataset.csv", "dataset.json"])
    def test_mutated_dataset_files(self, name, cfg_path, tmp_path, capsys):
        rng = np.random.default_rng(7 if name == "dataset.csv" else 8)
        data_dir = tmp_path / "data"
        assert cli.main(["generate", "--config", cfg_path, "--out", str(data_dir)]) == 0
        clean = (data_dir / name).read_bytes()
        path = tmp_path / "load.cfg"
        path.write_text(self.ONE_EPOCH.replace("[dataset]\n",
                                               "[dataset]\nload_dir = %s\n" % data_dir))
        for case in range(40):
            (data_dir / name).write_bytes(_mutate(clean, rng))
            self.run_cli(["train", "--config", str(path), "--out", str(tmp_path / "r")],
                         "%s case %d" % (name, case), capsys)

    def test_mutated_reports(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        cfg = tmp_path / "one.cfg"
        cfg.write_text(self.ONE_EPOCH)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        clean = (out / "report.json").read_bytes()
        path = tmp_path / "fuzz.json"
        for case in range(120):
            path.write_bytes(_mutate(clean, rng))
            self.run_cli(["report", str(path)], "report case %d" % case, capsys)

    def test_value_mutations_exit_0_or_name_the_key(self, tmp_path, capsys):
        # every key of the schema set to its sign flip, zero, a huge float, an
        # integer too large for int64, nan/inf and a non-numeric token, in a
        # one-epoch run whose every loss term runs from the first batch: each
        # run completes or exits 2 naming the key, and most values get past
        # the parser to the checks behind it, which the byte flips above
        # mostly do not reach
        base = self.ONE_EPOCH.replace("warmup_start = 1", "warmup_start = 0").replace(
            "warmup_full = 1", "warmup_full = 0")
        raw = config.parse_config_text(base)
        path = tmp_path / "value.cfg"
        parsed = cases = 0
        for section, keys in config.SCHEMA.items():
            for key, (_, default) in keys.items():
                current = raw.get(section, {}).get(key, _config_text(default))
                flipped = current[1:] if current.startswith("-") else "-" + current
                for value in (flipped, "0", "1e308", "1" + "0" * 25, "nan", "inf", "-inf",
                              "abc"):
                    path.write_text(_set_value(base, section, key, value))
                    label = "%s.%s = %s" % (section, key, value)
                    try:
                        code = cli.main(["train", "--config", str(path),
                                         "--out", str(tmp_path / "r")])
                    except Exception as exc:
                        pytest.fail("%s: %s escaped: %s" % (label, type(exc).__name__, exc))
                    err = capsys.readouterr().err
                    named = "%s.%s" % (section, key) in err
                    assert code == 0 or (code == 2 and named), (label, code, err)
                    cases += 1
                    parsed += "bad value for" not in err
        assert cases == 8 * sum(len(keys) for keys in config.SCHEMA.values())
        assert parsed > cases / 2, (parsed, cases)

    # what test_value_mutations_exit_0_or_name_the_key tries on config keys,
    # in JSON: besides each leaf's sign flip
    JSON_VALUES = ("0", "1e308", "1e400", "Infinity", "NaN", "1" + "0" * 29, '"abc"')

    def json_value_cases(self, text):
        """(label, text) with each numeric leaf of the JSON text set to its
        sign flip and to each of JSON_VALUES."""
        for path, value in _numeric_leaves(json.loads(text)):
            for token in (json.dumps(-value),) + self.JSON_VALUES:
                yield "%s = %s" % ("/".join(map(str, path)), token), \
                    _with_leaf(text, path, token)

    def test_dataset_sidecar_values_exit_0_or_name_the_file(self, cfg_path, tmp_path,
                                                            capsys):
        data_dir = tmp_path / "data"
        assert cli.main(["generate", "--config", cfg_path, "--out", str(data_dir)]) == 0
        clean = (data_dir / "dataset.json").read_text()
        path = tmp_path / "load.cfg"
        path.write_text(self.ONE_EPOCH.replace("[dataset]\n",
                                               "[dataset]\nload_dir = %s\n" % data_dir))
        cases = 0
        for label, text in self.json_value_cases(clean):
            (data_dir / "dataset.json").write_text(text)
            # a sidecar value fails in the sidecar, in the CSV that must match
            # it, or against the config: each message names the directory
            self.run_cli(["train", "--config", str(path), "--out", str(tmp_path / "r")],
                         label, capsys, named=str(data_dir))
            cases += 1
        assert cases == 8 * 5  # dim, num_classes, seed and noise_spec's rate and seed

    def test_report_values_exit_0_or_name_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(self.ONE_EPOCH)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        path = tmp_path / "value.json"
        cases = 0
        for label, text in self.json_value_cases((out / "report.json").read_text()):
            path.write_text(text)
            self.run_cli(["report", str(path)], label, capsys, named=str(path))
            cases += 1
        assert cases > 8 * 50

    def test_mutated_checkpoints_raise_value_error(self, tmp_path):
        from noisylab import net

        rng = np.random.default_rng(10)
        path = tmp_path / "ck.bin"
        net.save_checkpoint(net.init_params(net.Architecture(3, 4, 2, 3), 1), path)
        clean = path.read_bytes()
        for case in range(200):
            path.write_bytes(_mutate(clean, rng))
            try:
                net.load_checkpoint(path)
            except ValueError:
                pass
            except Exception as exc:
                pytest.fail("checkpoint case %d: %s escaped: %s"
                            % (case, type(exc).__name__, exc))
