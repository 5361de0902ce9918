"""Command-line surface: flags, config file, formats, exit codes."""

import argparse
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qka
from qka import cli, transcript
from qka.cli import MAX_COMMAND_KEY_BITS, RUN_DEFAULTS, batch_summary, main
from qka.adversaries import AdversaryModel
from qka.protocols import (
    MAX_KEY_BITS,
    InvalidSchemeError,
    ProtocolConfig,
    run_batch,
    run_two_party,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunCommand:
    def test_two_party_json_has_identical_keys(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--protocol", "two-party", "--key-bits", "128",
            "--seed", "7", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        keys = payload["derived_keys"]
        assert keys["Alice"] == keys["Bob"]
        assert len(keys["Alice"]) == 32  # 128 bits in hex
        assert payload["agreement"] is True

    def test_reproducible_output(self, capsys):
        argv = ("run", "--protocol", "three-party", "--key-bits", "8", "--seed", "3")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_batch_summary_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--protocol", "two-party", "--key-bits", "8",
            "--seed", "1", "--trials", "20",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "qka.batch/1"
        assert payload["summary"]["trials"] == 20
        assert payload["summary"]["agreement_rate"] == 1.0
        assert payload["summary"]["abort_rate"] == 0.0
        assert len(payload["trials"]) == 20

    def test_abort_rate_under_attack(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--protocol", "two-party", "--key-bits", "16",
            "--seed", "5", "--trials", "300", "--adversary", "intercept-z",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["abort_rate"] > 0.95

    def test_fail_on_abort_exit_code(self, capsys):
        code, _, _ = run_cli(
            capsys, "run", "--protocol", "two-party", "--key-bits", "16",
            "--seed", "5", "--trials", "50", "--adversary", "intercept-z",
            "--fail-on-abort",
        )
        assert code == 3

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--protocol", "two-party", "--key-bits", "8",
            "--seed", "2", "--format", "text",
        )
        assert code == 0
        assert "agreement      True" in out

    def test_five_party_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--protocol", "five-party", "--key-bits", "4",
            "--seed", "9", "--five-party-state", "cluster",
            "--five-party-rounds", "3456",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["agreement"] is True
        assert len(payload["parties"]) == 5

    def test_out_path(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys, "run", "--protocol", "two-party", "--key-bits", "8",
            "--seed", "4", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["agreement"] is True


class TestStreamedOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--protocol", "five-party", "--key-bits", "64", "--seed", "2"),
            ("--protocol", "three-party", "--key-bits", "8", "--trials", "3"),
            ("--protocol", "two-party", "--key-bits", "8", "--format", "text"),
            ("--protocol", "two-party", "--key-bits", "8", "--trials", "2", "--format", "text"),
            ("--protocol", "two-party", "--key-bits", "16", "--adversary", "intercept-z"),
        ],
        ids=["json-run", "json-batch", "text-run", "text-batch", "aborted-run"],
    )
    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path, argv):
        target = tmp_path / "out.txt"
        _, out, _ = run_cli(capsys, "run", *argv)
        code, to_file, _ = run_cli(capsys, "run", *argv, "--out", str(target))
        assert code == 0 and to_file == ""
        assert target.read_bytes() == out.encode()
        assert out.endswith("\n") and not out.endswith("\n\n")

    @pytest.mark.parametrize(
        "argv, key_rate, checks_see_errors",
        [
            (("--adversary", "none"), 0.0, False),  # every trial agrees: float zeros
            (("--adversary", "intercept-z", "--key-bits", "16"), None, True),  # all abort: null
            (("--adversary", "intercept-z", "--attack-fraction", "0.05",
              "--threshold", "0.5", "--key-bits", "64"), 0.0, True),
            (("--adversary", "dishonest-bob", "--key-bits", "8"), "float", False),
        ],
        ids=["honest", "all-abort", "light-attack", "reorder"],
    )
    def test_batch_json_is_json_dumps_of_its_payload(self, capsys, argv, key_rate, checks_see_errors):
        code, out, _ = run_cli(capsys, "run", "--trials", "6", "--seed", "4", *argv)
        assert code == 0
        payload = json.loads(out)
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        summary = payload["summary"]
        if key_rate == "float":
            assert isinstance(summary["key_bit_error_rate"], float)
            assert 0 < summary["key_bit_error_rate"] < 1
        else:
            assert summary["key_bit_error_rate"] == key_rate
        assert isinstance(summary["mean_error_rate"], float)
        assert (summary["mean_error_rate"] > 0) == checks_see_errors


class TestConfigHandling:
    def test_config_file_supplies_values(self, capsys, tmp_path):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"protocol": "two-party", "key_bits": 8, "seed": 11}))
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["key_bits"] == 8

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"protocol": "two-party", "key_bits": 8, "seed": 11}))
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--key-bits", "16")
        assert code == 0
        assert json.loads(out)["key_bits"] == 16

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"protcol": "two-party"}))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert "configuration error" in err

    @pytest.mark.parametrize("content", [None, "directory", b"{\"seed\": \xff}", b"{seed: 1}"],
                             ids=["missing", "directory", "non-utf8", "invalid-json"])
    def test_unreadable_config_file_exits_2(self, capsys, monkeypatch, tmp_path, content):
        _forbid_runs(monkeypatch)
        cfg = tmp_path / "spec.json"
        if content == "directory":
            cfg.mkdir()
        elif content is not None:
            cfg.write_bytes(content)
        code, out, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("qka: configuration error: cannot read config file: ")
        assert len(err.splitlines()) == 1

    def test_env_seed_that_is_not_an_integer_exits_2(self, capsys, monkeypatch):
        _forbid_runs(monkeypatch)
        monkeypatch.setenv("QKA_SEED", "7.5")
        code, out, err = run_cli(capsys, "run", "--key-bits", "8")
        assert (code, out, err) == (
            2, "", "qka: configuration error: QKA_SEED must be an integer, got '7.5'\n"
        )

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("QKA_SEED", "77")
        _, with_env, _ = run_cli(capsys, "run", "--protocol", "two-party", "--key-bits", "8")
        monkeypatch.delenv("QKA_SEED")
        _, explicit, _ = run_cli(
            capsys, "run", "--protocol", "two-party", "--key-bits", "8", "--seed", "77"
        )
        assert with_env == explicit

    def test_flag_beats_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("QKA_SEED", "77")
        _, out, _ = run_cli(
            capsys, "run", "--protocol", "two-party", "--key-bits", "8", "--seed", "5"
        )
        monkeypatch.setenv("QKA_SEED", "123456")
        _, out2, _ = run_cli(
            capsys, "run", "--protocol", "two-party", "--key-bits", "8", "--seed", "5"
        )
        assert out == out2

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--protocol", "two-party", "--key-bits", "7"),
            ("run", "--protocol", "two-party", "--key-bits", "8", "--trials", "0"),
            ("run", "--protocol", "five-party", "--key-bits", "8",
             "--adversary", "dishonest-alice"),
            ("run", "--protocol", "three-party", "--key-bits", "8",
             "--adversary", "dishonest-bob"),
            ("run", "--protocol", "two-party", "--key-bits", "8",
             "--adversary", "dishonest-bob", "--swap-count", "8"),
            ("run", "--protocol", "two-party", "--key-bits", "8",
             "--threshold", "1.5"),
        ],
    )
    def test_configuration_errors_exit_2(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "configuration error" in err

    def test_five_party_intercept_bell_names_register_cap(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--protocol", "five-party", "--key-bits", "8",
            "--adversary", "intercept-bell",
        )
        assert code == 2
        assert out == ""
        assert "12-qubit cap" in err
        assert len(err.splitlines()) == 1

    def test_unknown_flag_exits_2_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--bogus"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_config_file_with_unsupported_rounds_exits_2(self, capsys, tmp_path):
        # the scheme validator rejects an undecodable selection as a
        # configuration error
        cfg = tmp_path / "spec.json"
        cfg.write_text(
            json.dumps(
                {"protocol": "five-party", "key_bits": 4, "five_party_rounds": "1245"}
            )
        )
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert "configuration error" in err


class TestFivePartyRounds:
    @pytest.mark.parametrize("rounds", ["2134", "1245", "12"])
    def test_flag_and_config_share_one_rule(self, capsys, tmp_path, rounds):
        base = ["run", "--protocol", "five-party", "--key-bits", "4", "--seed", "3"]
        by_flag = run_cli(capsys, *base, "--five-party-rounds", rounds)
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"five_party_rounds": rounds}))
        by_config = run_cli(capsys, *base, "--config", str(cfg))
        assert by_flag == by_config
        code, out, err = by_flag
        if rounds == "2134":  # an order of the decodable set {1, 2, 3, 4}
            assert code == 0 and err == "" and json.loads(out)["agreement"] is True
        else:
            assert code == 2 and out == "" and err.count("\n") == 1
            assert err.startswith("qka: configuration error: ")

    def test_exactly_the_orders_of_three_subgroup_sets_decode(self):
        decodable = set()
        for digits in itertools.product("123456", repeat=4):
            rounds = "".join(digits)
            try:
                ProtocolConfig(key_bits=2, party_count=5, five_party_rounds=rounds).validate()
            except InvalidSchemeError:
                continue
            decodable.add(rounds)
        assert len(decodable) == 72
        assert {"".join(sorted(r)) for r in decodable} == set(cli.FIVE_PARTY_ROUND_CHOICES)


def _junk(ints=st.integers()):
    """JSON values of every type, some nested."""
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(-3, 40), ints,
        st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
    )
    return st.one_of(scalars, st.lists(scalars, max_size=2),
                     st.dictionaries(st.text(max_size=3), scalars, max_size=2))


# Values a run accepts, sized so a valid spec finishes quickly. ``out`` gets
# no string here, but a junk value may be one, so each example runs in a
# temporary directory of its own.
_VALID = {
    "protocol": st.sampled_from(["two-party", "three-party", "five-party"]),
    "key_bits": st.one_of(st.sampled_from([2, 4, 8]), st.integers(MAX_KEY_BITS + 1, 2**70)),
    "seed": st.integers(0, 2**70),
    "trials": st.one_of(
        st.integers(1, 3), st.integers(MAX_COMMAND_KEY_BITS // 2 + 1, 2**70)
    ),
    "adversary": st.sampled_from(
        ["none", "intercept-z", "intercept-bell", "dishonest-bob", "dishonest-alice"]
    ),
    "attack_fraction": st.floats(0, 1),
    "swap_count": st.integers(0, 3),
    "threshold": st.floats(0, 1),
    "five_party_state": st.sampled_from(["omega", "cluster"]),
    "five_party_rounds": st.sampled_from(["1234", "1256", "3456", "1245", "12"]),
    "format": st.sampled_from(["json", "text", "csv"]),
    "out": st.none(),
    "fail_on_abort": st.booleans(),
}
assert set(_VALID) == set(RUN_DEFAULTS)
# Accepted sizes stay small so a valid spec finishes quickly; the other draws
# lie above MAX_KEY_BITS, or make trials * key_bits exceed MAX_COMMAND_KEY_BITS
# for any accepted key_bits, and must exit 2 before anything runs.
_SIZE_JUNK = _junk(st.integers(-2**70, 0))


def _with_one_junk_value(spec: dict):
    key = st.sampled_from(sorted(RUN_DEFAULTS))
    return key.flatmap(
        lambda k: (_SIZE_JUNK if k in ("key_bits", "trials") else _junk()).map(
            lambda value: {**spec, k: value}
        )
    )


_SPECS = st.fixed_dictionaries({}, optional=_VALID)
_CONFIGS = st.one_of(
    _SPECS,
    _SPECS.flatmap(_with_one_junk_value),
    st.one_of(st.lists(st.integers(), max_size=3), st.integers(), st.text(max_size=4)),
)


class TestConfigTypes:
    @pytest.mark.parametrize(
        "values, key",
        [
            ({"key_bits": "16"}, "key_bits"),
            ({"trials": "3"}, "trials"),
            ({"key_bits": 16.0}, "key_bits"),
            ({"threshold": "0.1"}, "threshold"),
            ({"key_bits": True}, "key_bits"),
            ({"fail_on_abort": 1}, "fail_on_abort"),
            ({"out": 5}, "out"),
        ],
    )
    def test_wrong_type_exits_2_naming_the_key(self, capsys, tmp_path, values, key):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps(values))
        code, out, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("qka: configuration error: ") and repr(key) in err

    def test_top_level_must_be_an_object(self, capsys, tmp_path):
        cfg = tmp_path / "spec.json"
        cfg.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert "must hold a JSON object" in err

    def test_integral_numbers_still_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"key_bits": 8, "threshold": 0, "attack_fraction": 1,
                                   "seed": None, "fail_on_abort": False}))
        code, _, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(config=_CONFIGS)
    def test_fuzzed_config_never_crashes(self, capsys, config):
        with tempfile.TemporaryDirectory() as work:
            cfg = Path(work) / "spec.json"
            cfg.write_text(json.dumps(config))
            home = os.getcwd()
            os.chdir(work)
            try:
                code, _, err = run_cli(capsys, "run", "--config", str(cfg))
            finally:
                os.chdir(home)
        assert code in (0, 2, 3)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("qka: configuration error: ")


class TestRefusalLines:
    """The exact first refusal for a config file and flags, multi-fault specs included."""

    @pytest.mark.parametrize(
        "config, flags, line",
        [
            # one out-of-choice value per choice option, and one wrong type
            ({"protocol": "x"}, [], "unknown protocol 'x'"),
            ({"adversary": "x"}, [], "unknown adversary 'x'"),
            ({"format": "csv"}, [], "run output format must be json or text"),
            ({"five_party_state": "x"}, [], "five_party_state must be 'omega' or 'cluster'"),
            ({"key_bits": "16"}, [], "config key 'key_bits' must be an integer, got \"16\""),
            # a bool is no number: the config key's type check refuses it first
            ({"threshold": True}, [], "config key 'threshold' must be a number, got true"),
            ({"attack_fraction": True}, [],
             "config key 'attack_fraction' must be a number, got true"),
            # a flag overrides the file before any choice is checked
            ({"format": "csv"}, ["--format", "json"], None),
            ({"protocol": "x"}, ["--protocol", "two-party"], None),
            # type errors come in file order, before any choice
            ({"trials": "x", "key_bits": "y"}, [],
             "config key 'trials' must be an integer, got \"x\""),
            ({"protocol": "x", "key_bits": "y"}, [],
             "config key 'key_bits' must be an integer, got \"y\""),
            # then protocol, trials, format and adversary, then the library's rules
            ({"protocol": "x", "trials": 0}, [], "unknown protocol 'x'"),
            ({"trials": 0, "format": "csv"}, [], "trials must be >= 1"),
            ({"trials": -2, "adversary": "x"}, [], "trials must be >= 1"),
            ({"format": "csv", "adversary": "x"}, [], "run output format must be json or text"),
            ({"adversary": "x", "key_bits": 3}, [], "unknown adversary 'x'"),
            ({"five_party_state": "foo"}, ["--key-bits", "3"],
             "key_bits must be a positive even integer"),
            ({"five_party_state": "foo", "threshold": 2}, [],
             "error_threshold must lie in [0, 1]"),
            ({}, ["--seed", "-1"], "seed and run_index must be nonnegative"),
            # an empty output path is no path: refused in either form, before any trial
            ({"out": ""}, [], "cannot write output to '': No such file or directory"),
            ({}, ["--out", ""], "cannot write output to '': No such file or directory"),
            ({"out": ""}, ["--trials", "3"],
             "cannot write output to '': No such file or directory"),
        ],
    )
    def test_config_refusal_line(self, capsys, monkeypatch, tmp_path, config, flags, line):
        if line is not None:
            _forbid_runs(monkeypatch)
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "run", "--config", str(cfg), *flags)
        if line is None:
            assert (code, err) == (0, "") and out
        else:
            assert (code, out, err) == (2, "", f"qka: configuration error: {line}\n")

    @pytest.mark.parametrize(
        "flag, choices",
        [
            ("--protocol", ("two-party", "three-party", "five-party")),
            ("--adversary",
             ("none", "intercept-z", "intercept-bell", "dishonest-alice", "dishonest-bob")),
            ("--five-party-state", ("omega", "cluster")),
            ("--format", ("json", "text")),
        ],
    )
    def test_flag_out_of_choice_is_argparse_line(self, capsys, flag, choices):
        reference = argparse.ArgumentParser(prog="qka run")
        reference.add_argument(flag, choices=choices)
        with pytest.raises(SystemExit):
            reference.parse_args([flag, "x"])
        expected = capsys.readouterr().err.splitlines()[-1]
        with pytest.raises(SystemExit) as exc:
            main(["run", flag, "x"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == expected


def test_readme_run_flags_are_the_option_table():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    paragraph = readme[readme.index("`run` flags:"):].split("\n\n")[0]
    flags = {"--" + key.replace("_", "-"): option for key, option in cli.RUN_OPTIONS.items()}
    assert set(re.findall(r"--[a-z][a-z-]*", paragraph)) == {*flags, "--config"}
    for flag, option in flags.items():
        if option.choices:
            assert f"`{flag} {{{','.join(option.choices)}}}`" in paragraph


def _forbid_runs(monkeypatch):
    """Make every run entry the CLI calls fail the test if it is reached."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("a refused request reached a run entry")

    for entry in ("run_protocol", "run_batch"):
        monkeypatch.setattr(cli, entry, must_not_run)


class TestSizeLimits:
    def test_key_bits_above_the_limit_exits_2(self, capsys, monkeypatch):
        _forbid_runs(monkeypatch)
        code, out, err = run_cli(capsys, "run", "--key-bits", str(MAX_KEY_BITS + 2))
        assert code == 2 and out == ""
        assert err.startswith("qka: configuration error: ") and str(MAX_KEY_BITS) in err

    def test_largest_key_is_accepted(self):
        ProtocolConfig(key_bits=MAX_KEY_BITS, party_count=5).validate()
        with pytest.raises(ValueError, match=str(MAX_KEY_BITS)):
            ProtocolConfig(key_bits=MAX_KEY_BITS + 2, party_count=5).validate()

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_trials_times_key_bits_above_the_limit_exits_2(
        self, capsys, monkeypatch, tmp_path, source
    ):
        _forbid_runs(monkeypatch)
        trials = MAX_COMMAND_KEY_BITS // 1024 + 1
        if source == "flags":
            argv = ("run", "--key-bits", "1024", "--trials", str(trials))
        else:
            cfg = tmp_path / "spec.json"
            cfg.write_text(json.dumps({"key_bits": 1024, "trials": trials}))
            argv = ("run", "--config", str(cfg))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("qka: configuration error: ")
        assert str(MAX_COMMAND_KEY_BITS) in err and str(trials * 1024) in err

    def test_command_at_the_limit_is_accepted(self):
        spec = {**RUN_DEFAULTS, "seed": 0, "key_bits": 1024,
                "trials": MAX_COMMAND_KEY_BITS // 1024}
        config, _ = cli._validate_run_spec(spec)
        assert config.key_bits == 1024


def _out_path(tmp_path, where: str) -> str | None:
    return {
        "none": None,
        "file": str(tmp_path / "out.txt"),
        "missing": str(tmp_path / "missing" / "out.txt"),
        "directory": str(tmp_path),
    }[where]


class TestUnwritableOut:
    @pytest.mark.parametrize("where", ["missing", "directory"])
    @pytest.mark.parametrize(
        "argv",
        [("run",), ("run", "--trials", "3"), ("efficiency", "--table"), ("verify-groups",)],
    )
    def test_exits_2_naming_the_path(self, capsys, monkeypatch, tmp_path, argv, where):
        # run refuses before any trial
        _forbid_runs(monkeypatch)
        path = _out_path(tmp_path, where)
        code, out, err = run_cli(capsys, *argv, "--out", path)
        assert code == 2 and out == ""
        assert err.startswith(f"qka: configuration error: cannot write output to {path!r}: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("name", ["x" * 300, "nul\0byte"], ids=["long-name", "nul-byte"])
    def test_failed_open_exits_2(self, capsys, tmp_path, name):
        # the directory exists, so only opening the file fails
        path = str(tmp_path / name)
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"key_bits": 2, "out": path}))
        for argv in (("run", "--config", str(cfg)), ("efficiency", "--out", path)):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith(f"qka: configuration error: cannot write output to {path!r}: ")


class TestBrokenPipe:
    def test_closed_stdout_exits_1_without_traceback(self):
        # Megabytes of JSON against a pipe whose reader is already gone, so
        # the write fails with EPIPE whatever the pipe buffer holds.
        path = [str(Path(qka.__file__).parent.parent), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "qka.cli", "run", "--key-bits", "4096"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err


class TestParserReuse:
    """One parser serves a process; each call prints what a fresh process prints."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_in_one_process_print_what_fresh_processes_print(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage at the terminal width
        monkeypatch.delenv("QKA_SEED", raising=False)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"protocol": "three-party", "key_bits": 8, "seed": 3}))
        calls = [
            ({}, ["run", "--protocol", "two-party", "--no-such-flag"]),
            ({}, ["run", "--protocol", "two-party", "--key-bits", "8", "--seed", "2"]),
            ({}, ["run", "--config", str(config), "--format", "text"]),
            ({"QKA_SEED": "41"}, ["run", "--key-bits", "8", "--adversary", "intercept-z"]),
            ({}, ["--version"]),
        ]
        path = [str(Path(qka.__file__).parent.parent), os.environ.get("PYTHONPATH")]
        base = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        for extra, argv in calls:
            for key, value in extra.items():
                monkeypatch.setenv(key, value)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            for key in extra:
                monkeypatch.delenv(key)
            fresh = subprocess.run(
                [sys.executable, "-m", "qka.cli", *argv], capture_output=True, text=True,
                env=dict(base, **extra), timeout=60, check=False,
            )
            assert (code, captured.out, captured.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr
            ), argv
            if argv is calls[0][1]:
                assert code == 2 and "unrecognized arguments: --no-such-flag" in captured.err


_FLOATS = st.one_of(st.floats(0, 1), st.floats(-1, 2), st.sampled_from(["nan", "inf", "-inf"]))
_RUN_FLAGS = {
    "--protocol": st.sampled_from(cli.PROTOCOL_CHOICES),
    "--key-bits": st.one_of(
        st.integers(1, 32).map(lambda half: 2 * half),
        st.integers(-2, 64),
        st.integers(MAX_KEY_BITS + 1, 2**70),
    ),
    "--seed": st.integers(-1, 2**70),
    "--trials": st.one_of(
        st.integers(0, 4), st.integers(MAX_COMMAND_KEY_BITS // 2 + 1, 2**70)
    ),
    "--adversary": st.sampled_from(cli.ADVERSARY_CHOICES),
    "--attack-fraction": _FLOATS,
    "--swap-count": st.integers(-1, 4),
    "--threshold": _FLOATS,
    "--five-party-state": st.sampled_from(["omega", "cluster"]),
    "--five-party-rounds": st.sampled_from(
        [*cli.FIVE_PARTY_ROUND_CHOICES, "2134", "1245", "12"]
    ),
    "--format": st.sampled_from(["json", "text"]),
}


class TestRunFlagFuzz:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        flags=st.fixed_dictionaries({}, optional=_RUN_FLAGS),
        fail_on_abort=st.booleans(),
        where=st.sampled_from(["none", "file", "missing", "directory"]),
    )
    def test_fuzzed_flags_never_crash(self, capsys, tmp_path, flags, fail_on_abort, where):
        argv = ["run", *(f"{flag}={value}" for flag, value in flags.items())]
        if fail_on_abort:
            argv.append("--fail-on-abort")
        out_path = _out_path(tmp_path, where)
        if out_path:
            argv.append(f"--out={out_path}")
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 2, 3)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("qka: configuration error: ") and out == ""
        else:
            assert where in ("none", "file") and bool(out) == (where == "none")
        if where in ("missing", "directory"):
            assert code == 2


class TestTextOutput:
    def test_text_single_run_computes_no_digest(self, capsys, monkeypatch):
        calls = []
        digest = transcript.payload_digest

        def counted(payload):
            calls.append(1)
            return digest(payload)

        monkeypatch.setattr(transcript, "payload_digest", counted)
        code, out, _ = run_cli(capsys, "run", "--format", "text", "--seed", "3")
        assert code == 0 and "agreement      True" in out
        assert calls == []
        # the patch point is live: a JSON run digests every event
        code, _, _ = run_cli(capsys, "run", "--format", "json", "--seed", "3")
        assert code == 0 and calls


class TestEfficiencyCommand:
    def test_table_text(self, capsys):
        code, out, _ = run_cli(capsys, "efficiency", "--table")
        assert code == 0
        for token in ("1/7", "1/24", "1/70", "1/6", "14.29%", "4.17%", "1.43%", "16.67%"):
            assert token in out

    def test_table_csv(self, capsys):
        code, out, _ = run_cli(capsys, "efficiency", "--table", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "protocol,c,q,b,eta_fraction,eta_percent"

    def test_table_json(self, capsys):
        code, out, _ = run_cli(capsys, "efficiency", "--table", "--format", "json")
        assert code == 0
        assert json.loads(out)["schema"] == "qka.efficiency/1"

    @pytest.mark.parametrize("n", ["0", "-4"])
    def test_nonpositive_key_bits_exit_2(self, capsys, n):
        code, out, err = run_cli(capsys, "efficiency", "--key-bits", n)
        assert (code, out, err) == (2, "", "qka: configuration error: key-bits must be positive\n")


class TestVerifyGroupsCommand:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify-groups")
        assert code == 0
        assert "FAIL" not in out
        assert "dense coding table for |psi+>" in out
        assert "dense coding table for |omega>" in out
        assert "dense coding table for |cluster>" in out
        # the Bell table lists all four letter images
        for name in ("|psi+>", "|phi+>", "|psi->", "|phi->"):
            assert name in out


def reference_summary(results):
    """The per-run summary the one-pass one replaced, kept as its oracle."""
    total = len(results)
    completed = [r for r in results if not r.aborted]
    error_rates = [c.error_rate for r in results for c in r.checks]
    bit_errors = bit_total = 0
    for r in completed:
        truth = r.ground_truth_key()
        for key in r.derived_keys.values():
            bit_errors += int(sum(int(a) != int(b) for a, b in zip(key, truth)))
            bit_total += key.size
    return {
        "trials": total,
        "abort_rate": sum(r.aborted for r in results) / total,
        "agreement_rate": sum(r.agreement() for r in completed) / total,
        "mean_error_rate": sum(error_rates) / len(error_rates) if error_rates else 0.0,
        "key_bit_error_rate": bit_errors / bit_total if bit_total else None,
    }


class TestBatchSummary:
    @pytest.mark.parametrize(
        "protocol, adversary, fraction, threshold",
        [
            ("two-party", "intercept-z", 0.3, 0.0),  # aborts
            ("two-party", "intercept-z", 0.3, 0.25),  # aborts, and attacked lanes that finish
            ("two-party", "dishonest-alice", 1.0, 0.0),  # lanes that disagree
            ("two-party", "dishonest-bob", 1.0, 0.0),
            ("three-party", "intercept-z", 0.3, 0.25),
            ("five-party", "intercept-z", 0.3, 0.25),
        ],
    )
    def test_one_pass_matches_each_run(self, capsys, protocol, adversary, fraction, threshold):
        argv = ["run", "--protocol", protocol, "--key-bits", "16", "--seed", "31",
                "--trials", "12", "--adversary", adversary,
                "--attack-fraction", str(fraction), "--threshold", str(threshold)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        base = ProtocolConfig(key_bits=16, party_count=cli.PARTY_COUNTS[protocol],
                              error_threshold=threshold, seed=31)
        results = run_batch(base, AdversaryModel(kind=adversary, fraction=fraction), 12)
        assert payload["summary"] == batch_summary(results) == reference_summary(results)
        agreements = [r.agreement() for r in results]
        assert [trial["agreement"] for trial in payload["trials"]] == agreements
        assert [trial["aborted"] for trial in payload["trials"]] == [r.aborted for r in results]
        assert False in agreements  # aborts, or lanes that finish and disagree
        assert any(r.aborted for r in results) == (adversary == "intercept-z")

    def test_statistics(self):
        results = [
            run_two_party(ProtocolConfig(key_bits=8, seed=6, run_index=i))
            for i in range(10)
        ]
        summary = batch_summary(results)
        assert summary == {
            "trials": 10,
            "abort_rate": 0.0,
            "agreement_rate": 1.0,
            "mean_error_rate": 0.0,
            "key_bit_error_rate": 0.0,
        }

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            batch_summary([])

    def test_deterministic_given_seeds(self):
        first = batch_summary(
            [run_two_party(ProtocolConfig(key_bits=8, seed=6, run_index=i)) for i in range(5)]
        )
        second = batch_summary(
            [run_two_party(ProtocolConfig(key_bits=8, seed=6, run_index=i)) for i in range(5)]
        )
        assert first == second
