"""Command-line contract: subcommands, exit codes, reproducible outputs."""

import json
import os

import pytest

from noisylab import cli
from noisylab.data import load_dataset
from noisylab.metrics import RunReport

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
ood_per_class = 20

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

    def test_removed_fd_step_key_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "old.cfg"
        bad.write_text("[reliability]\nfd_step = 0.5\n")
        assert cli.main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert "reliability.fd_step" in capsys.readouterr().err


def _label_out_of_range(data_dir, cfg_text):
    # y_obs of the first sample set to 7 with 4 classes
    csv = data_dir / "dataset.csv"
    lines = csv.read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = "7"
    lines[1] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    return cfg_text


def _empty_csv(data_dir, cfg_text):
    (data_dir / "dataset.csv").write_text("")
    return cfg_text


def _sidecar_without_dim(data_dir, cfg_text):
    sidecar = data_dir / "dataset.json"
    raw = json.loads(sidecar.read_text())
    del raw["dim"]
    sidecar.write_text(json.dumps(raw))
    return cfg_text


def _dim_mismatch(data_dir, cfg_text):
    # the files were generated with dim = 3; the run asks for 16
    return cfg_text.replace("dim = 3", "dim = 16")


class TestLoadedDataset:
    @pytest.mark.parametrize("corrupt, expected", [
        (_label_out_of_range, ["dataset.csv", "class index out of range"]),
        (_empty_csv, ["dataset.csv", "no samples"]),
        (_sidecar_without_dim, ["dataset.json", "'dim'"]),
        (_dim_mismatch, ["dataset.dim"]),
    ], ids=["label_out_of_range", "empty_csv", "sidecar_without_dim", "dim_mismatch"])
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
        pur = open(os.path.join(out, "diag_purity.csv")).read().splitlines()
        assert pur[0] == "epoch,purity_raw,purity_gated"
        assert len(pur) == 4  # 3 epochs + header

    def test_checkpoints_loadable(self, cfg_path, tmp_path):
        from noisylab.net import load_checkpoint

        out = str(tmp_path / "ck")
        cli.main(["train", "--config", cfg_path, "--out", out])
        params = load_checkpoint(os.path.join(out, "checkpoint_net1.bin"))
        assert params.arch.hidden == 16

    def test_manifest_hash_recomputable(self, cfg_path, tmp_path):
        from noisylab import config as cfgmod

        out = str(tmp_path / "mh")
        cli.main(["train", "--config", cfg_path, "--out", out])
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        cfg = cfgmod.load_config(cfg_path, out_override=out)
        assert cfgmod.config_hash(cfg) == manifest["config_hash"]


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

    def test_missing_key_exit_2(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text('{"schema_version": 1}')
        assert cli.main(["report", str(path)]) == 2
        assert "'config'" in capsys.readouterr().err
