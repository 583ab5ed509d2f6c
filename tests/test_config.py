"""Config parsing, strict validation, canonicalization and hashing."""

import dataclasses
import hashlib

import numpy as np
import pytest

from noisylab import config
from noisylab.trainer import TrainConfig
from noisylab.util import ConfigError, dumps_deterministic

MINIMAL = """
[run]
seed = 11
out_dir = runs/test

[dataset]
num_classes = 4
per_class = 50
spread = 0.5
noise_mode = symmetric
noise_rate = 0.4
meta_size = 8
test_per_class = 25
ood_per_class = 25

[trainer]
epochs = 2
batch_size = 32
warmup_start = 0
warmup_full = 1
"""


class TestParsing:
    def test_minimal_roundtrip(self):
        cfg = config.build_run_config(config.parse_config_text(MINIMAL))
        assert cfg["run"]["seed"] == 11
        assert cfg["dataset"]["noise_rate"] == 0.4
        assert cfg["trainer"]["epochs"] == 2
        # defaults fill everything else
        assert cfg["ram"]["gamma"] == 4.0
        assert cfg["cdcl"]["tau"] == 0.2

    def test_comments_and_blank_lines(self):
        text = "# top comment\n[run]\nseed = 3  # trailing\n\n"
        cfg = config.build_run_config(config.parse_config_text(text))
        assert cfg["run"]["seed"] == 3

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match="mystery"):
            config.build_run_config(config.parse_config_text("[mystery]\nx = 1\n"))

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="dataset.bogus_key"):
            config.build_run_config(config.parse_config_text("[dataset]\nbogus_key = 1\n"))

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="trainer.epochs"):
            config.build_run_config(config.parse_config_text("[trainer]\nepochs = soon\n"))

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            config.parse_config_text("[run]\nseed = 1\nseed = 2\n")

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError):
            config.parse_config_text("seed = 1\n")

    def test_pair_map_parsing(self):
        text = "[dataset]\nnoise_mode = asymmetric\npair_map = 0:1,1:0,2:3,3:2\n"
        cfg = config.build_run_config(config.parse_config_text(text))
        assert cfg["dataset"]["pair_map"] == {0: 1, 1: 0, 2: 3, 3: 2}

    @pytest.mark.parametrize("pair_map", ["0:1,0:2", "0:4", "-1:0", "2:2"],
                             ids=["repeated_source", "target_out_of_range",
                                  "source_out_of_range", "self_map"])
    def test_bad_pair_map_named(self, pair_map):
        # rejected at load time, also when no noise is injected from it
        for mode in ("asymmetric", "symmetric"):
            text = MINIMAL.replace("noise_mode = symmetric",
                                   "noise_mode = %s\npair_map = %s" % (mode, pair_map))
            with pytest.raises(ConfigError, match="dataset.pair_map"):
                config.build_run_config(config.parse_config_text(text))

    def test_asymmetric_requires_pair_map(self):
        with pytest.raises(ConfigError, match="pair_map"):
            config.build_run_config(config.parse_config_text(
                "[dataset]\nnoise_mode = asymmetric\n"))

    def test_seed_override(self):
        cfg = config.build_run_config(config.parse_config_text(MINIMAL),
                                      seed_override=99)
        assert cfg["run"]["seed"] == 99


class TestResolution:
    def test_auto_augment_follows_spread(self):
        cfg = config.build_run_config(config.parse_config_text(MINIMAL))
        aug = config.to_train_config(cfg).augment
        assert aug.sigma_weak == pytest.approx(0.05 * 0.5)
        assert aug.sigma_strong == pytest.approx(0.15 * 0.5)

    def test_explicit_augment_overrides(self):
        text = MINIMAL + "\n[augment]\nsigma_weak = 0.33\n"
        cfg = config.build_run_config(config.parse_config_text(text))
        assert config.to_train_config(cfg).augment.sigma_weak == pytest.approx(0.33)

    def test_auto_decay_epochs(self):
        cfg = config.build_run_config(config.parse_config_text(
            MINIMAL.replace("epochs = 2", "epochs = 40")))
        assert config.to_train_config(cfg).decay_epochs == (24, 34)

    def test_explicit_decay_epochs(self):
        text = MINIMAL + "\n" + "[trainer]".replace("[trainer]", "")  # keep layout
        cfg = config.build_run_config(config.parse_config_text(
            MINIMAL + "decay_epochs = 1,2\n"))
        assert config.to_train_config(cfg).decay_epochs == (1, 2)

    def test_empty_config_matches_train_config_defaults(self):
        # a setting's default lives in its dataclass: an empty file differs
        # from TrainConfig() only where to_train_config resolves a value
        tcfg = config.to_train_config(config.build_run_config({}))
        default = TrainConfig()
        unresolved = dataclasses.replace(
            tcfg, decay_epochs=default.decay_epochs,
            augment=dataclasses.replace(tcfg.augment, sigma_weak=default.augment.sigma_weak,
                                        sigma_strong=default.augment.sigma_strong),
            net1_seed=default.net1_seed, net2_seed=default.net2_seed,
            loop_seed=default.loop_seed)
        assert unresolved == default

    def test_derived_seeds_stable(self):
        cfg = config.build_run_config(config.parse_config_text(MINIMAL))
        a = config.derived_seeds(cfg)
        b = config.derived_seeds(cfg)
        assert a == b
        assert len({a["blobs_seed"], a["noise_seed"], a["net1_seed"],
                    a["net2_seed"], a["loop_seed"]}) == 5

    def test_make_datasets_shapes(self):
        cfg = config.build_run_config(config.parse_config_text(MINIMAL))
        train, meta, test, ood = config.make_datasets(cfg)
        assert train.n == 192 and meta.m == 8
        assert test.n == 100
        assert ood is not None and ood.n == 100
        clean = train.y_obs != train.y_true
        assert 0.2 < clean.mean() < 0.6


# every key that holds a float, and the sigmas, which are floats unless 'auto'
FLOAT_KEYS = [(section, key) for section, keys in config.SCHEMA.items()
              for key, (_, default) in keys.items() if isinstance(default, float)]
FLOAT_KEYS += [("augment", "sigma_weak"), ("augment", "sigma_strong")]


def _with(section, key, value):
    raw = config.parse_config_text(MINIMAL)
    raw.setdefault(section, {})[key] = value
    return config.build_run_config(raw)


class TestCanonicalization:
    @pytest.mark.parametrize("section, key", FLOAT_KEYS,
                             ids=["%s.%s" % sk for sk in FLOAT_KEYS])
    def test_float_spellings_share_hash_and_echo(self, section, key):
        value = config.SCHEMA[section][key][1]
        value = 0.1 if value == "auto" else value
        cfgs = [_with(section, key, spelling)
                for spelling in (repr(value), "%.20e" % value, "%.25f" % value)]
        assert len({config.config_hash(cfg) for cfg in cfgs}) == 1
        assert [config.canonical_dict(cfg)[section][key] for cfg in cfgs] == [value] * 3

    def test_auto_sigma_stays_auto(self):
        cfg = _with("augment", "sigma_weak", "auto")
        assert config.canonical_dict(cfg)["augment"]["sigma_weak"] == "auto"
        assert '"sigma_weak": "auto"' in dumps_deterministic(config.canonical_dict(cfg))
        with pytest.raises(ConfigError, match="augment.sigma_weak"):
            _with("augment", "sigma_weak", "automatic")

    def test_hash_stable_and_order_insensitive(self):
        a = config.build_run_config(config.parse_config_text(MINIMAL))
        reordered = MINIMAL.replace("seed = 11\nout_dir = runs/test",
                                    "out_dir = runs/test\nseed = 11")
        b = config.build_run_config(config.parse_config_text(reordered))
        assert config.config_hash(a) == config.config_hash(b)

    def test_hash_sensitive_to_values(self):
        a = config.build_run_config(config.parse_config_text(MINIMAL))
        b = config.build_run_config(config.parse_config_text(
            MINIMAL.replace("noise_rate = 0.4", "noise_rate = 0.5")))
        assert config.config_hash(a) != config.config_hash(b)

    def test_canonical_text_contains_defaults(self):
        # the canonical text is the JSON of the echo, which config_hash hashes
        cfg = config.build_run_config(config.parse_config_text(MINIMAL))
        text = dumps_deterministic(config.canonical_dict(cfg))
        assert '"ram": {"gamma": 4.0' in text
        assert '"tau": 0.2' in text
        assert text == dumps_deterministic(config.canonical_dict(cfg))
        assert config.config_hash(cfg) == hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_json_raises(self, value):
        with pytest.raises(ValueError):
            dumps_deterministic({"summary": {"last": [1.0, value]}})

    def test_canonical_dict_json_ready(self):
        cfg = config.build_run_config(config.parse_config_text(MINIMAL))
        text = dumps_deterministic(config.canonical_dict(cfg))
        assert "resolved" in text
