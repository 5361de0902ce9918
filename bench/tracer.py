"""Outside-in tracer: spans around qka's public functions, patched from here.

Each entry of ``PATCHES`` names an attribute that qka looks up at call time:
a method on a class (``QubitStore.measure_bell``) or a module-level name in
the module that calls it (``qka.protocols.attack_transit``, which protocols
imports directly). ``Tracer.installed()`` replaces each one with a wrapper
that records a span and puts the original back on exit, so the program
itself is never edited.

A span is (name, start, end, parent, trial), where the trial is the index of
the CLI call the span belongs to (one run, or one batch of runs). Spans stay
in flat arrays in memory and are written out once, by ``Tracer.write``, when
the run ends.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# (module, attribute path within it, group). The group's first component is
# the layer; the rest names the per-layer metric the span feeds.
PATCHES: tuple[tuple[str, str, str], ...] = (
    ("qka.registers", "QubitStore.new_bell", "registers.prepare"),
    ("qka.registers", "QubitStore.new_four_qubit", "registers.prepare"),
    ("qka.registers", "QubitStore.new_computational", "registers.prepare"),
    ("qka.registers", "QubitStore.apply_pauli", "registers.pauli"),
    ("qka.registers", "QubitStore.measure_bell", "registers.measure_bell"),
    ("qka.registers", "QubitStore.measure_in_basis", "registers.measure_basis"),
    ("qka.registers", "QubitStore.measure_z", "registers.measure_z"),
    ("qka.protocols", "apply_element", "registers.state"),
    ("qka.pauli", "apply_element", "registers.state"),
    ("qka.pauli", "inner_product", "registers.state"),
    ("qka.protocols", "validate_scheme", "pauli.validate_scheme"),
    ("qka.protocols", "canonical_order", "pauli.group"),
    ("qka.protocols", "product_set", "pauli.group"),
    ("qka.protocols", "standard_subgroups_g2", "pauli.group"),
    ("qka.cli", "run_protocol", "protocols.engine"),
    ("qka.protocols", "run_two_party", "protocols.engine"),
    ("qka.protocols", "run_three_party", "protocols.engine"),
    ("qka.protocols", "run_five_party", "protocols.engine"),
    ("qka.protocols", "insert_decoys_and_permute", "protocols.scramble"),
    ("qka.protocols", "verify_decoys", "protocols.decoy_check"),
    ("qka.protocols", "encode_key", "protocols.encode"),
    ("qka.protocols", "attack_transit", "adversaries.transit"),
    ("qka.protocols", "choose_swap_pairs", "adversaries.insider"),
    ("qka.protocols", "dishonest_bob_reorder", "adversaries.insider"),
    ("qka.protocols", "dishonest_alice_early_measure", "adversaries.insider"),
    ("qka.transcript", "Transcript.log", "transcript.log"),
    ("qka.transcript", "Transcript.to_dict", "transcript.serialize"),
    ("qka.transcript", "TranscriptEvent.to_dict", "transcript.serialize"),
    ("qka.protocols", "count_from_transcript", "efficiency.tally"),
    ("qka.protocols", "qubit_efficiency", "efficiency.eta"),
    ("qka.cli", "main", "cli.main"),
    ("qka.cli", "batch_summary", "cli.batch_summary"),
)

ENGINE_RUNS = frozenset({"run_two_party", "run_three_party", "run_five_party"})
JOINT_MEASUREMENTS = frozenset({"QubitStore.measure_bell", "QubitStore.measure_in_basis"})


def _resolve(module_name: str, path: str):
    """The object holding the attribute and the attribute's name."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def patch_targets() -> tuple[list[tuple[object, str, str, str]], list[str]]:
    """(owner, attribute, span name, group) for every patch that resolves,
    and the ``module:path`` of each one the program no longer defines."""
    found, missing = [], []
    for module_name, path, group in PATCHES:
        try:
            owner, attr = _resolve(module_name, path)
        except AttributeError:
            owner, attr = None, None
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}:{path}")
            continue
        span_name = path if "." in path else f"{module_name.split('.')[-1]}.{path}"
        found.append((owner, attr, span_name, group))
    return found, missing


@dataclass
class SpanTotals:
    """Span sums over a run; ``self_ns`` is self time, by group."""

    calls: dict[str, float]
    self_ns: dict[str, float]
    decoy_check_measure_ns: float  # register measurements under verify_decoys
    decode_measure_ns: float  # register measurements called by run_* itself
    top_ns: float  # wall time inside top-level spans (the cli.main calls)

    def layer_self_ns(self, layer: str) -> float:
        return sum(v for g, v in self.self_ns.items() if g.split(".")[0] == layer)


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self._targets, self.missing = patch_targets()
        self.names = [span_name for _, _, span_name, _ in self._targets]
        self.groups = [group for _, _, _, group in self._targets]
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_trial = array("i")
        self.trial = 0
        self.merges = 0
        self.decoy_pairs = 0
        self.decoy_errors = 0
        self.engine_runs = 0
        self.engine_aborts = 0
        self._stack: list[int] = []

    # -- recording -----------------------------------------------------

    def _wrap(self, fn, name_id: int, span_name: str):
        stack = self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, trials = self.span_parent, self.span_trial
        clock = time.perf_counter_ns
        before = self._merge_check if span_name in JOINT_MEASUREMENTS else None
        after = None
        if span_name == "protocols.verify_decoys":
            after = self._count_decoys
        elif span_name.split(".")[-1] in ENGINE_RUNS:
            after = self._count_run

        def traced(*args, **kwargs):
            if before is not None:
                before(span_name, args)
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            trials.append(self.trial)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def _merge_check(self, span_name: str, args) -> None:
        """Count joint measurements whose qubits sit in different registers."""
        store = args[0]
        qubits = args[1:3] if span_name == "QubitStore.measure_bell" else args[1]
        registers = {id(store.register_of(q)) for q in qubits}
        if len(registers) > 1:
            self.merges += 1

    def _count_decoys(self, args, kwargs, result) -> None:
        pairs = kwargs.get("decoy_pairs", args[2] if len(args) > 2 else ())
        error_rate, _ = result
        self.decoy_pairs += len(pairs)
        self.decoy_errors += round(error_rate * len(pairs))

    def _count_run(self, args, kwargs, result) -> None:
        self.engine_runs += 1
        self.engine_aborts += int(result.aborted)

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore all."""
        applied: list[tuple[object, str, object]] = []
        try:
            for name_id, (owner, attr, span_name, _) in enumerate(self._targets):
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(original, name_id, span_name))
                applied.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(applied):
                setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.uint16),
            "start": np.frombuffer(self.span_start, dtype=np.int64),
            "end": np.frombuffer(self.span_end, dtype=np.int64),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "trial": np.frombuffer(self.span_trial, dtype=np.int32),
        }

    def totals(self) -> "SpanTotals":
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.zeros(len(dur), dtype=np.int64)
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_ns = dur - child
        group_names = sorted(set(self.groups))
        group_of_name = np.array([group_names.index(g) for g in self.groups])
        span_group = group_of_name[a["name"]]
        calls = np.bincount(span_group, minlength=len(group_names))
        selfs = np.bincount(span_group, weights=self_ns, minlength=len(group_names))

        parent_name = np.full(len(dur), -1, dtype=np.int64)
        parent_name[has_parent] = a["name"][a["parent"][has_parent]]
        is_measure = np.isin(a["name"], self._ids(lambda n: n.startswith("QubitStore.measure")))

        def measure_ns_under(span_names) -> float:
            under = np.isin(parent_name, self._ids(lambda n: n in span_names))
            return float(dur[is_measure & under].sum())

        return SpanTotals(
            calls={g: float(calls[i]) for i, g in enumerate(group_names)},
            self_ns={g: float(selfs[i]) for i, g in enumerate(group_names)},
            decoy_check_measure_ns=measure_ns_under({"protocols.verify_decoys"}),
            decode_measure_ns=measure_ns_under({f"protocols.{n}" for n in ENGINE_RUNS}),
            top_ns=float(dur[~has_parent].sum()),
        )

    def _ids(self, keep) -> list[int]:
        return [i for i, name in enumerate(self.names) if keep(name)]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), groups=np.array(self.groups),
                 **self.arrays())


def layer_metrics(tracer: Tracer, trials: int, output_bytes: int,
                  untraced_ns: float, traced_ns: float,
                  scale: float = 1.0) -> dict[str, float]:
    """The per-layer metrics: counts and self times per trial.

    ``scale`` converts measured span times to reference speed, as the
    end-to-end times are; shares are ratios of span times and need none.
    """
    totals = tracer.totals()
    per = 1.0 / trials
    ms = scale * per / 1e6

    def calls(group: str) -> float:
        return totals.calls.get(group, 0.0) * per

    def self_ms(group: str) -> float:
        return totals.self_ns.get(group, 0.0) * ms

    wall = totals.top_ns or 1.0
    joint = (totals.calls.get("registers.measure_bell", 0.0)
             + totals.calls.get("registers.measure_basis", 0.0))
    m = {}
    for op in ("prepare", "pauli", "measure_bell", "measure_basis", "measure_z"):
        m[f"registers.{op}.calls"] = calls(f"registers.{op}")
        m[f"registers.{op}.self_ms"] = self_ms(f"registers.{op}")
    m["registers.merge.calls"] = tracer.merges * per
    m["registers.merge_share"] = tracer.merges / joint if joint else 0.0
    m["registers.self_share"] = totals.layer_self_ns("registers") / wall
    m["pauli.validate_scheme.calls"] = calls("pauli.validate_scheme")
    m["pauli.validate_scheme.self_ms"] = self_ms("pauli.validate_scheme")
    m["pauli.self_ms"] = totals.layer_self_ns("pauli") * ms
    m["pauli.self_share"] = totals.layer_self_ns("pauli") / wall
    m["protocols.engine.self_ms"] = self_ms("protocols.engine")
    for op in ("scramble", "decoy_check", "encode"):
        m[f"protocols.{op}.calls"] = calls(f"protocols.{op}")
        m[f"protocols.{op}.self_ms"] = self_ms(f"protocols.{op}")
    m["protocols.decoy_check.measure_ms"] = totals.decoy_check_measure_ns * ms
    m["protocols.decode.measure_ms"] = totals.decode_measure_ns * ms
    m["protocols.decoy_error_share"] = (
        tracer.decoy_errors / tracer.decoy_pairs if tracer.decoy_pairs else 0.0
    )
    m["protocols.abort_share"] = (
        tracer.engine_aborts / tracer.engine_runs if tracer.engine_runs else 0.0
    )
    for op in ("transit", "insider"):
        m[f"adversaries.{op}.calls"] = calls(f"adversaries.{op}")
        m[f"adversaries.{op}.self_ms"] = self_ms(f"adversaries.{op}")
    m["transcript.log.calls"] = calls("transcript.log")
    m["transcript.log.self_ms"] = self_ms("transcript.log")
    m["transcript.serialize.self_ms"] = self_ms("transcript.serialize")
    m["efficiency.tally.calls"] = calls("efficiency.tally")
    m["efficiency.tally.self_ms"] = self_ms("efficiency.tally")
    m["cli.main.self_ms"] = self_ms("cli.main")
    m["cli.batch_summary.self_ms"] = self_ms("cli.batch_summary")
    m["cli.output_bytes"] = output_bytes * per
    m["trace.overhead_share"] = traced_ns / untraced_ns - 1.0
    return m
