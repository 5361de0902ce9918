"""Smoke tests for the benchmark itself: python -m pytest bench/tests -q"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as wl
from tracer import PATCHES, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

cli = run.import_program()


def _tiny_loop(workload: wl.Workload, gate: wl.Gate, tracer=None):
    tiny = wl.Workload(workload.name, tuple(c.tiny() for c in workload.configs))
    rng, first = run.prepare(cli, tiny, seed=5)
    return run.closed_loop(cli, tiny, rng, first, 0.0, gate, tracer)


def _snapshot() -> dict:
    """Every attribute of every qka module and class, by identity."""
    seen = {}
    for name in ("qka", "qka.registers", "qka.pauli", "qka.protocols", "qka.adversaries",
                 "qka.efficiency", "qka.transcript", "qka.cli"):
        module = importlib.import_module(name)
        for attr, value in vars(module).items():
            seen[(name, attr)] = value
            if inspect.isclass(value) and value.__module__.startswith("qka"):
                for cattr, cvalue in vars(value).items():
                    seen[(name, attr, cattr)] = cvalue
    return seen


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_every_workload_passes_the_gate_at_a_tiny_size(name):
    gate = wl.Gate()
    tracer = Tracer()
    untraced, traced = _tiny_loop(wl.WORKLOADS[name], gate, tracer)
    gate.check_statistics()
    assert gate.errors == []
    assert gate.correct and gate.attempted == untraced[0].trials > 0
    assert len(traced) == len(untraced) == 1
    assert tracer.missing == []
    metrics = layer_metrics(tracer, gate.attempted, 1, 1, 1)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert all(math.isfinite(v) for v in metrics.values())


def test_merges_counted_only_where_registers_merge():
    merges = {}
    for name in ("honest-two-party-n1024", "attack-batch"):
        tracer = Tracer()
        _tiny_loop(wl.WORKLOADS[name], wl.Gate(), tracer)
        merges[name] = tracer.merges
    assert merges["honest-two-party-n1024"] == 0
    assert merges["attack-batch"] > 0


def test_tracer_restores_every_patched_attribute():
    before = _snapshot()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert _snapshot() != before
            run.invoke(cli, wl.WORKLOADS["five-party-n16"].short_call(1).argv)
            raise RuntimeError("leave the block early")
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert len(tracer.names) == len(PATCHES) and len(tracer.span_name) > 0


def test_gate_rejects_a_wrong_key_and_a_bad_exit():
    call = wl.WORKLOADS["honest-two-party-n1024"].short_call(3)
    _, rc, out, err = run.invoke(cli, call.argv)
    good = wl.Gate()
    good.check(call, rc, out, err)
    assert good.correct

    payload = json.loads(out)
    bob = payload["parties"][1]
    key = int(payload["derived_keys"][bob], 16) ^ 1
    payload["derived_keys"][bob] = f"{key:0{len(payload['derived_keys'][bob])}x}"
    tampered = wl.Gate()
    tampered.check(call, 0, json.dumps(payload), None)
    assert not tampered.correct and tampered.failed == 1

    crashed = wl.Gate()
    crashed.check(call, 2, "", "qka: configuration error")
    assert crashed.failed == 1


def test_wilson_interval_brackets_the_rate():
    lo, hi = wl.wilson_interval(50, 800)
    assert lo < 50 / 800 < hi
    assert wl.wilson_interval(0, 0) == (0.0, 1.0)


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in random.Random(0).sample(range(1000), 100)]
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10 and pct == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = _bench("--workload", "honest-two-party-n1024", "--seed", "7",
                  "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "attack-batch", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
