"""Run every workload several times and record each metric's run-to-run spread.

    python3 bench/record.py [--runs 10] [--seconds S] [--workload NAME ...]
                            [--seed-base 1000] [--trace-runs 1] [--out FILE]

Runs ``bench/run.py`` once per (run, workload), interleaving workloads so
that slow drifts in machine load reach all of them alike, each run in its
own interpreter with seed ``seed-base + run``. For every end-to-end metric
it prints the median, the quartiles and the spread, (Q3 - Q1) / median with
quartiles as ``statistics.quantiles(values, n=4)`` gives them, next to the
bound from ``BENCHMARK.json``; ``fail_share`` is printed from the trial
counts. ``--trace-runs`` traced runs per workload add the per-layer medians.
``--out`` writes everything, with the host and each run's provenance, as
one JSON trajectory point (``bench/BENCH_<k>.json``).

Exits 1 when any run fails a correctness check or exits non-zero, or when
a spread other than ``setup_s``'s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_PROVENANCE = ("seed", "attempted", "failed", "rotations", "trials", "samples",
                  "tail_percentile", "raw_us_per_key_bit", "raw_trials_per_s",
                  "statistics")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    prov = next((json.loads(line.split(" ", 1)[1]) for line in lines
                 if line.startswith("provenance ")), None)
    return {"returncode": proc.returncode, "result": result, "provenance": prov,
            "stderr": proc.stderr[-2000:]}


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for i in range(args.runs):
        for name in names:
            run = run_once(name, args.seed_base + i, args.seconds, 0)
            runs[name].append(run)
            result = run["result"]
            if run["returncode"] != 0 or not result or not result["correct"]:
                ok = False
                print(f"FAILED {name} seed {args.seed_base + i}: exit {run['returncode']}\n"
                      f"{run['stderr']}", file=sys.stderr)

    record = {"host": None, "seconds": args.seconds, "runs_per_workload": args.runs,
              "seed_base": args.seed_base, "workloads": {}}
    for name in names:
        good = [r for r in runs[name] if r["result"] and r["provenance"]]
        if not good:
            continue
        record["host"] = record["host"] or {
            k: good[0]["provenance"][k]
            for k in ("git_sha", "nproc", "python", "numpy", "reference_ns")}
        attempted = sum(r["result"]["attempted"] for r in good)
        failed = sum(r["result"]["failed"] for r in good)
        entry = {"fail_share": {"value": failed / attempted, "failed": failed,
                                "attempted": attempted},
                 "runs": [{k: r["provenance"][k] for k in RUN_PROVENANCE}
                          for r in good],
                 "end_to_end": {}}
        print(f"\n{name}  ({len(good)} runs, {args.seconds:g} s each)")
        for metric in bounds:
            values = [r["result"]["metrics"][metric]["value"] for r in good]
            unit = good[0]["result"]["metrics"][metric]["unit"]
            s = summarize(values)
            s["unit"] = unit
            entry["end_to_end"][metric] = s
            bound = bounds[metric]
            flag = "" if s["spread"] <= bound / 3 else (
                "  above bound/3" if s["spread"] <= bound else "  ABOVE BOUND")
            if metric != "setup_s" and s["spread"] > bound:
                ok = False
            print(f"  {metric:<22} {s['median']:>12.6g} {unit:<4} "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}"
                  f"  bound {bound}{flag}")
        print(f"  {'fail_share':<22} {failed / attempted:>12.6g} ratio "
              f"({failed} of {attempted} trials)")
        traced = [run_once(name, args.seed_base + i, args.seconds, 1)
                  for i in range(args.trace_runs)]
        if traced:
            layer_values: dict[str, list[float]] = {}
            for run in traced:
                if run["returncode"] != 0 or not run["result"]:
                    ok = False
                    print(f"FAILED traced {name}: {run['stderr']}", file=sys.stderr)
                    continue
                for metric, v in run["result"]["metrics"].items():
                    layer_values.setdefault(metric, []).append(v["value"])
            entry["per_layer_median"] = {
                m: statistics.median(v) for m, v in layer_values.items()}
        record["workloads"][name] = entry

    if args.out:
        args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
