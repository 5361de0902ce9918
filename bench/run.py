"""qka benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory. One process on one thread drives ``qka.cli.main``
in-process as a closed loop with one client (``workloads.py`` defines the
workloads). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
each metric with its unit and sample count, and the run's provenance.

Times are reported at reference speed (see ``REFERENCE_NS``): each call's
wall time is scaled by the host speed measured right before and after it,
and the raw wall-clock figures are kept in the provenance line.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: median over fresh interpreters of the time from launch until
  the first trial could start (imports, input generation, one n=16 warm-up
  per protocol the workload uses);
* ``us_per_key_bit`` and ``us_per_key_bit.tail``: median and tail of the
  time per key bit over rotations, where the tail is the highest
  percentile with at least ten samples beyond it (never below the median);
* ``trials_per_s``: median over rotations of protocol runs per second;
* ``peak_rss_mb``: ``ru_maxrss`` of this process after the timed loop.

``fail_share`` (failed over attempted trials) is printed too; in the JSON it
is ``failed`` and ``attempted``.

``--trace 1`` reruns every rotation traced right after its untraced run,
checks that both print identical bytes, and reports the per-layer metrics
of ``tracer.py``. Spans are written to ``bench/out/spans-<workload>.npz``.

Every output is checked (``workloads.Gate``); the command exits 1 when any
check fails, and 2 when it cannot run at all, such as outside a checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import workloads as wl  # bench/ is on sys.path as the script's directory

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 9
# On a shared host the speed of each CPU drifts by up to 1.7x within seconds,
# alike for interpreter and numpy work. Every time is therefore scaled to
# reference speed: multiplied by REFERENCE_NS over the time of a fixed
# calibration kernel that the same process measures right before and after
# it. The kernel takes about REFERENCE_NS on an unloaded 2-core x86 host at
# 2.1 GHz.
REFERENCE_NS = 1_000_000


class SetupError(Exception):
    pass


def import_program():
    """Import qka from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "qka" / "cli.py").is_file():
        raise SetupError(f"no qka sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import qka.cli

    if Path(qka.cli.__file__).resolve().parent != (src / "qka").resolve():
        raise SetupError(f"qka was imported from {qka.cli.__file__}, not {src}")
    return qka.cli


def invoke(cli, argv) -> tuple[int, object, str, str | None]:
    """One closed-loop call: (wall ns, exit code, stdout, error text or None)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = 0 if exc.code is None else exc.code
    except Exception:  # a crash is a failed trial, not a failed benchmark
        rc = None
        error = traceback.format_exc()
    elapsed = time.perf_counter_ns() - start
    if rc != 0 and error is None:
        error = err.getvalue()
    return elapsed, rc, out.getvalue(), error


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def prepare(cli, workload: wl.Workload, seed: int) -> tuple[random.Random, list[wl.Call]]:
    """Everything before the first timed trial: inputs and warm-up runs."""
    rng = random.Random(seed)
    first = workload.rotation(rng)
    for call in workload.warm_up_calls(seed):
        invoke(cli, call.argv)
    return rng, first


def _kernel_ns() -> int:
    import numpy as np

    start = time.perf_counter_ns()
    acc, table = 0, {}
    for i in range(4000):
        acc += i * i % 7
        table[i & 255] = acc
    m = np.ones((2, 2), dtype=complex)
    for _ in range(300):
        m = (m @ m) * 0.5
    return time.perf_counter_ns() - start


def calibrate() -> int:
    """Nanoseconds for a fixed mix of interpreter and small-numpy work.

    The kernel runs twice and the faster time counts, so that an interrupt
    during one run does not read as a slow host.
    """
    return min(_kernel_ns(), _kernel_ns())


def speed_scale(before: int, after: int) -> float:
    """Factor taking a time measured between two calibrations to reference speed."""
    return 2 * REFERENCE_NS / (before + after)


def setup_probe(workload_name: str, seed: int) -> int:
    """Child side of ``setup_s``: set up, print the monotonic clock, then the
    calibration time, measured on the CPU the setup ran on."""
    cli = import_program()
    prepare(cli, wl.WORKLOADS[workload_name], seed)
    ready = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    print(ready, calibrate())
    return 0


def measure_setup(workload_name: str, seed: int) -> list[float]:
    """Setup seconds of fresh interpreters, launch to first-trial readiness,
    at reference speed."""
    samples = []
    for i in range(SETUP_PROBES):
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed + i)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise SetupError(f"setup probe failed: {proc.stderr.strip()[-2000:]}")
        ready, calibration = map(int, proc.stdout.split()[-2:])
        samples.append((ready - start) / 1e9 * REFERENCE_NS / calibration)
    return samples


@dataclass
class Rotation:
    """One timed pass over a workload's calls: (call, output digest, bytes)."""

    calls: list[tuple[wl.Call, str, int]]
    wall_ns: int = 0
    ref_ns: float = 0.0  # wall time at reference speed

    @property
    def key_bits(self) -> int:
        return sum(call.key_bits for call, _, _ in self.calls)

    @property
    def trials(self) -> int:
        return sum(call.config.trials for call, _, _ in self.calls)


class Clock:
    """Times calls at reference speed, calibrating between consecutive calls."""

    def __init__(self):
        self._before = calibrate()

    def time(self, cli, argv) -> tuple[int, float, object, str, str | None]:
        """(wall ns, ns at reference speed, exit code, stdout, error) of one call."""
        elapsed, rc, out, error = invoke(cli, argv)
        after = calibrate()
        scaled = elapsed * speed_scale(self._before, after)
        self._before = after
        return elapsed, scaled, rc, out, error


def closed_loop(cli, workload, rng, first, seconds: float, gate: wl.Gate,
                tracer=None) -> tuple[list[Rotation], list[Rotation]]:
    """Run and check rotations until ``seconds`` have passed (at least one).

    With a tracer, each rotation is rerun traced right after it ran, so both
    see the same host speed, and every traced output must match its
    untraced bytes. Returns the untraced and the traced rotations.
    """
    untraced, traced = [], []
    rotation = first
    deadline = time.monotonic() + seconds
    clock = Clock()
    while True:
        done = Rotation([])
        for call in rotation:
            wall, ref, rc, out, error = clock.time(cli, call.argv)
            done.wall_ns += wall
            done.ref_ns += ref
            gate.check(call, rc, out, error)
            done.calls.append((call, digest(out), len(out)))
        untraced.append(done)
        if tracer is not None:
            again = Rotation(done.calls)
            with tracer.installed():
                for call, expected, _ in done.calls:
                    wall, ref, _, out, _ = clock.time(cli, call.argv)
                    tracer.trial += 1
                    again.wall_ns += wall
                    again.ref_ns += ref
                    if digest(out) != expected:
                        gate.fail(f"{call.config.label} seed {call.seed}: traced output "
                                  "differs from untraced output", call.config.trials)
            traced.append(again)
        if time.monotonic() >= deadline:
            return untraced, traced
        rotation = workload.rotation(rng)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond.

    With 20 or fewer samples that percentile is at or below the median, and
    the median is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args, gate: wl.Gate, extra: dict) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "reference_ns": REFERENCE_NS,
        **extra,
    }


def end_to_end(cli, workload, args, gate) -> tuple[dict, dict]:
    setups = measure_setup(workload.name, args.seed)
    rng, first = prepare(cli, workload, args.seed)
    check_determinism(cli, workload, args.seed, gate)
    rotations, _ = closed_loop(cli, workload, rng, first, args.seconds, gate)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_bit = [r.ref_ns / 1e3 / r.key_bits for r in rotations]
    tail_value, tail_pct = tail(per_bit)
    wall_s = sum(r.wall_ns for r in rotations) / 1e9
    trials = sum(r.trials for r in rotations)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "us_per_key_bit": (statistics.median(per_bit), "us"),
        "us_per_key_bit.tail": (tail_value, "us"),
        "trials_per_s": (statistics.median(r.trials / r.ref_ns * 1e9 for r in rotations),
                         "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    counts = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "us_per_key_bit": f"median of {len(per_bit)} rotations",
        "us_per_key_bit.tail": f"p{tail_pct:.1f} of {len(per_bit)} rotations",
        "trials_per_s": f"median of {len(per_bit)} rotations, {trials} trials",
        "peak_rss_mb": "1 process",
    }
    extra = {
        "rotations": len(per_bit),
        "trials": trials,
        "timed_wall_s": wall_s,
        "raw_us_per_key_bit": statistics.median(
            r.wall_ns / 1e3 / r.key_bits for r in rotations),
        "raw_trials_per_s": trials / wall_s,
        "tail_percentile": tail_pct,
        "setup_samples_s": setups,
        "samples": counts,
        "statistics": gate.check_statistics(),
    }
    return metrics, extra


def per_layer(cli, workload, args, gate) -> tuple[dict, dict]:
    from tracer import Tracer, layer_metrics

    rng, first = prepare(cli, workload, args.seed)
    check_determinism(cli, workload, args.seed, gate)
    tracer = Tracer()
    untraced, traced = closed_loop(cli, workload, rng, first, args.seconds, gate, tracer)
    trials = sum(r.trials for r in untraced)
    output_bytes = sum(size for r in untraced for _, _, size in r.calls)
    untraced_ns = sum(r.ref_ns for r in untraced)
    traced_ns = sum(r.ref_ns for r in traced)
    scale = traced_ns / sum(r.wall_ns for r in traced)  # span times to reference speed
    metrics = {
        name: (value, _layer_unit(name))
        for name, value in layer_metrics(
            tracer, trials, output_bytes, untraced_ns, traced_ns, scale).items()
    }
    spans_path = BENCH_DIR / "out" / f"spans-{workload.name}.npz"
    tracer.write(spans_path)
    extra = {
        "trials": trials,
        "spans": len(tracer.span_name),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "unpatched": tracer.missing,
        "untraced_wall_s": sum(r.wall_ns for r in untraced) / 1e9,
        "traced_wall_s": sum(r.wall_ns for r in traced) / 1e9,
        "statistics": gate.check_statistics(),
    }
    return metrics, extra


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def check_determinism(cli, workload, seed: int, gate: wl.Gate) -> None:
    call = workload.short_call(seed)
    first = invoke(cli, call.argv)
    second = invoke(cli, call.argv)
    if first[1:] != second[1:]:
        gate.fail(f"{call.config.label} seed {seed}: same seed gave different output")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # One thread: keep numpy's BLAS pool (imported with qka) from starting
    # helpers of its own; setup probes inherit this environment.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    try:
        if args.setup_probe:
            return setup_probe(args.workload, args.seed)
        cli = import_program()
        workload = wl.WORKLOADS[args.workload]
        gate = wl.Gate()
        measure = per_layer if args.trace else end_to_end
        metrics, extra = measure(cli, workload, args, gate)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for message in gate.errors:
        print(f"bench: check failed: {message}", file=sys.stderr)
    counts = extra.get("samples", {})
    for name, (value, unit) in metrics.items():
        note = f"  ({counts[name]})" if name in counts else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    if not args.trace:
        print(f"fail_share = {gate.failed / max(gate.attempted, 1):.6g} ratio  "
              f"({gate.failed} of {gate.attempted} trials)")
    print("provenance " + json.dumps(provenance(args, gate, extra), sort_keys=True))
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
