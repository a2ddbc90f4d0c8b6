import os
import subprocess
import sys

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedspeech.arch import WorkloadSpec, arch_from_mapping, arch_to_mapping, base_preset
from fedspeech.cli import main
from fedspeech.config import (config_fingerprint, load_config, resolve_arch,
                              resolve_calibration, resolve_profiles, validate_config)
from fedspeech.costs import forward_flops
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

    def test_cli_import_leaves_yaml_unloaded(self):
        # a fresh interpreter: this one has imported yaml for the tests
        code = "import sys, fedspeech.cli; print('yaml' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        env.pop("FEDSPEECH_CONFIG", None)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, check=True)
        assert done.stdout == "False\n"

    @pytest.mark.parametrize("content, message", [
        (b"fl: {clients: 3\n", "line 2, column 1: expected ',' or '}', but got "
                               "'<stream end>'"),
        (b"a: b: c\n", "line 1, column 5: mapping values are not allowed here"),
        (b"seed: \x07\n", "unacceptable character #x0007: special characters are "
                          "not allowed in "),
        (b"seed: \xff\n", "bytes that are not valid UTF-8"),
    ])
    def test_unreadable_yaml_exits_2_on_one_line(self, tmp_path, capsys, content,
                                                 message):
        path = tmp_path / "c.yaml"
        path.write_bytes(content)
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot parse {path}: {message}")
        assert err.count("\n") == 1, err

    def test_directory_as_config_exits_2(self, tmp_path, capsys):
        assert main(["analyze", "--config", str(tmp_path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == \
            f"error: cannot read config {tmp_path}: Is a directory\n"


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
        assert (forward_flops(small, WorkloadSpec()).total_params
                < forward_flops(resolve_arch({}), WorkloadSpec()).total_params)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            resolve_arch({}, "gigantic")

    def test_device_override_merges_with_builtin(self):
        profiles = resolve_profiles({"devices": [{"name": "rpi4", "memory_gb": 4}]})
        rpi = next(p for p in profiles if p.name == "rpi4")
        assert rpi.memory_gb == 4.0
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
        assert library is resolved
        assert resolve_calibration({"memory": {}}) == library
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


# The config format's keys, written out independently of the reader: a dict
# is a mapping of these keys, a one-item list a list of that item, None a leaf.
CONV_KEYS = dict.fromkeys(["in_channels", "out_channels", "kernel", "stride", "bias",
                           "norm", "groups", "activation"])
SCHEMA = {
    "arch": {"preset": None, "name": None, "conv_stack": [CONV_KEYS],
             "feature_proj": {"in_dim": None, "out_dim": None}, "pos_conv": CONV_KEYS,
             "transformer": dict.fromkeys(["blocks", "model_dim", "heads", "ffn_dim"]),
             "quantizer": dict.fromkeys(["input_dim", "groups", "entries_per_group",
                                         "codevector_dim"])},
    "workload": dict.fromkeys(["duration_s", "sample_rate_hz", "batch", "precision"]),
    "devices": [{"name": None, "memory_gb": None, "os_reserve_gb": None,
                 "supports_mixed": None,
                 "anchors": [dict.fromkeys(["arch", "batch", "precision",
                                            "seconds_per_batch", "duration_s"])]}],
    "fl": dict.fromkeys(["clients", "per_round", "rounds", "local_epochs", "batch",
                         "seed"]),
    "aggregation": dict.fromkeys(["method", "alpha", "epsilon"]),
    "memory": dict.fromkeys(["runtime_overhead_gb", "residency_factor",
                             "reference_peak_gb"]),
    "output_dir": None,
    "seed": None,
}
# Words the config format knows, and leaves that are often valid, so that
# random documents reach past the checks. Integers stay small, so that an
# accepted document runs in milliseconds.
WORDS = ["base", "large", "fp32", "mixed", "FP32", "fedavg", "loss", "loss_weighted",
         "group", "layer", "none", "gelu", "rpi4", "a40", "nx"]
SCALARS = st.one_of(st.integers(-2, 40), st.floats(), st.booleans(), st.none(),
                    st.sampled_from(WORDS), st.text(max_size=4))
ANY = st.one_of(SCALARS, st.lists(SCALARS, max_size=2),
                st.dictionaries(st.sampled_from(WORDS), SCALARS, max_size=2))
PLAUSIBLE = st.one_of(st.integers(-2, 40), st.floats(0.05, 64), st.sampled_from(WORDS))


def often(strategy):
    """``strategy`` three times in four, else any leaf."""
    return st.sampled_from([strategy] * 3 + [ANY]).flatmap(lambda s: s)


COMMANDS = [["analyze"], ["memory"], ["predict-time", "--device", "a40"],
            ["fl-plan", "--rounds", "2", "--samples-per-client", "3"],
            ["fl-sim", "--rounds", "3"], ["forecast", "--device", "nx"]]


def documents(node):
    """Documents of up to three keys of ``node`` each."""
    if node is None:
        return often(PLAUSIBLE)
    if isinstance(node, list):
        return often(st.lists(documents(node[0]), max_size=2))
    keys = st.lists(st.sampled_from(sorted(node)), max_size=3, unique=True)
    return often(keys.flatmap(lambda ks: st.fixed_dictionaries(
        {k: documents(node[k]) for k in ks})))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(document=documents(SCHEMA), command=st.sampled_from(COMMANDS))
def test_any_document_exits_0_or_2(tmp_path, capsys, document, command):
    path = write_yaml(tmp_path / "c.yaml", document)
    code = main(command + ["--config", path, "--out", str(tmp_path / "r")])
    assert code in (0, 2)
    if code == 2:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


@st.composite
def overrides(draw):
    """A valid ``arch`` section over a preset: any transformer and quantizer
    shape that divides evenly, a new conv stack, with or without pos_conv."""
    preset = draw(st.sampled_from(["base", "large"]))
    heads = draw(st.integers(1, 8))
    model_dim = 16 * heads * draw(st.integers(1, 4))  # pos_conv has 16 groups
    groups = draw(st.integers(1, 4))
    channels = draw(st.integers(1, 64))
    section = {"preset": preset, "name": draw(st.text(min_size=1, max_size=8)),
               "conv_stack": [{"in_channels": 1, "out_channels": channels,
                               "kernel": draw(st.integers(1, 10)),
                               "stride": draw(st.integers(1, 5)),
                               "bias": draw(st.booleans()),
                               "norm": draw(st.sampled_from(["none", "group", "layer"]))}],
               "feature_proj": {"in_dim": channels, "out_dim": model_dim},
               "transformer": {"blocks": draw(st.integers(1, 30)), "model_dim": model_dim,
                               "heads": heads, "ffn_dim": draw(st.integers(1, 4096))},
               "quantizer": {"groups": groups,
                             "codevector_dim": groups * draw(st.integers(1, 64))}}
    if draw(st.booleans()):
        section["pos_conv"] = None
    return section


@settings(max_examples=40, deadline=None)
@given(section=st.one_of(st.sampled_from([{"preset": "base"}, {"preset": "large"}]),
                         overrides()))
def test_arch_mapping_round_trips(section):
    arch = arch_from_mapping(section)
    assert arch_from_mapping(arch_to_mapping(arch)) == arch
