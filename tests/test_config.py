import pytest
import yaml

from fedspeech.arch import WorkloadSpec, base_preset
from fedspeech.config import (config_fingerprint, load_config, resolve_arch,
                              resolve_calibration, resolve_profiles, validate_config)
from fedspeech.costs import param_count
from fedspeech.errors import ConfigError
from fedspeech.memory import default_calibration, memory_timeline


def write_yaml(path, payload):
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return str(path)


class TestLoading:
    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.yaml")

    def test_empty_config(self, tmp_path):
        assert load_config(write_yaml(tmp_path / "c.yaml", {})) == {}

    def test_env_var_default(self, tmp_path, monkeypatch):
        path = write_yaml(tmp_path / "c.yaml", {"seed": 3})
        monkeypatch.setenv("FEDSPEECH_CONFIG", path)
        assert load_config(None) == {"seed": 3}

    def test_no_config_anywhere(self, monkeypatch):
        monkeypatch.delenv("FEDSPEECH_CONFIG", raising=False)
        assert load_config(None) == {}


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown configuration key: sed"):
            validate_config({"sed": 1})

    def test_unknown_nested_key_with_location(self):
        with pytest.raises(ConfigError, match=r"fl\.clientz"):
            validate_config({"fl": {"clientz": 10}})

    def test_unknown_list_entry_key(self):
        with pytest.raises(ConfigError, match=r"devices\[0\]\.memori_gb"):
            validate_config({"devices": [{"name": "a40", "memori_gb": 48}]})

    def test_unknown_arch_key(self):
        with pytest.raises(ConfigError, match=r"arch\.transformers"):
            validate_config({"arch": {"preset": "base", "transformers": {}}})

    def test_valid_config_passes(self):
        validate_config({
            "arch": {"preset": "large"},
            "workload": {"duration_s": 5.5, "batch": 4, "precision": "fp32"},
            "fl": {"clients": 10, "rounds": 150},
            "seed": 1,
        })


class TestResolution:
    def test_preset_flag_wins(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path / "c.yaml", {"arch": {"preset": "base"}}))
        assert resolve_arch(cfg, "large").name == "large"
        assert resolve_arch(cfg, None).name == "base"

    def test_transformer_override_changes_params(self):
        small = resolve_arch({"arch": {"preset": "base",
                                       "transformer": {"blocks": 6}}})
        assert small.block_count == 6
        assert (param_count(small).total_params
                < param_count(resolve_arch({})).total_params)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            resolve_arch({}, "gigantic")

    def test_device_override_merges_with_builtin(self):
        profiles = resolve_profiles({"devices": [{"name": "rpi4", "memory_gb": 4}]})
        rpi = next(p for p in profiles if p.name == "rpi4")
        assert rpi.memory_total_bytes == 4e9
        assert rpi.anchors  # measured anchors survive the override

    def test_new_device_needs_anchors(self):
        with pytest.raises(ConfigError, match="needs anchors"):
            resolve_profiles({"devices": [{"name": "tpu", "memory_gb": 64}]})

    def test_new_device_with_anchors(self):
        profiles = resolve_profiles({"devices": [{
            "name": "tpu", "memory_gb": 64, "supports_mixed": True,
            "anchors": [{"arch": "base", "batch": 4, "precision": "fp32",
                         "seconds_per_batch": 0.1}]}]})
        tpu = next(p for p in profiles if p.name == "tpu")
        assert tpu.anchors[0].seconds_per_batch == 0.1

    def test_calibration_override_refits(self):
        default = resolve_calibration({})
        wider = resolve_calibration({"memory": {"reference_peak_gb": 3.0}})
        assert wider.activation_overhead > default.activation_overhead

    def test_empty_config_is_the_library_default(self):
        library, resolved = default_calibration(), resolve_calibration({})
        assert library == resolved
        statics = [memory_timeline(base_preset(), WorkloadSpec(5.5, batch=4), cal)
                   .static_bytes for cal in (library, resolved)]
        assert statics[0] == statics[1]
        assert type(statics[0]) is type(statics[1])


class TestFingerprint:
    def test_stable_and_sensitive(self):
        a = config_fingerprint({"x": 1, "y": [1, 2]})
        b = config_fingerprint({"y": [1, 2], "x": 1})
        c = config_fingerprint({"x": 2, "y": [1, 2]})
        assert a == b
        assert a != c
