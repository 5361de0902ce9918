"""Workload definitions and the correctness gate for their outputs.

Every workload is a closed loop with one client: the benchmark calls
``qka.cli.main`` in-process, waits for it, checks the output, then sends the
next call. One pass over a workload's configurations is a *rotation*, the
unit each timing sample covers. All inputs (each call's ``--seed``) come
from the workload seed, so one seed always yields the same calls.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace

HONEST_KEY_BITS = 1024

# Parties, and closed-form (c, q, b) per key bit from the paper's efficiency table.
PROTOCOLS = {
    "two-party": (2, (1, 4, 3)),
    "three-party": (3, (1, 15, 9)),
    "five-party": (5, (1, 20, 50)),
}

# Wilson intervals use z = 4 (two-sided 6e-5), so a correct program fails a
# statistical check about once in 16,000 runs per check.
WILSON_Z = 4.0
INTERCEPT_Z_ABORT = 1.0 - 0.5 ** 8  # n = 16, f = 1: eight decoy pairs, each 1/2
REORDER_SWAPS = 4
REORDER_SUCCESS = 0.5 ** REORDER_SWAPS  # disjoint swaps, each a fair coin
MAX_REORDER_RERUNS = 1000


@dataclass(frozen=True)
class Config:
    """One ``qka run`` configuration; ``trials`` > 1 makes it a batch."""

    label: str
    protocol: str
    key_bits: int
    trials: int = 1
    flags: tuple[str, ...] = ()
    honest: bool = True

    def argv(self, seed: int) -> tuple[str, ...]:
        argv = ("run", "--protocol", self.protocol, "--key-bits", str(self.key_bits),
                *self.flags)
        if self.trials > 1:
            argv += ("--trials", str(self.trials))
        return argv + ("--seed", str(seed), "--format", "json")

    def tiny(self) -> "Config":
        """The same configuration at n <= 16 and at most two trials."""
        return replace(self, key_bits=min(self.key_bits, 16), trials=min(self.trials, 2))


@dataclass(frozen=True)
class Call:
    config: Config
    seed: int

    @property
    def argv(self) -> tuple[str, ...]:
        return self.config.argv(self.seed)

    @property
    def key_bits(self) -> int:
        """Key bits over all the call's trials."""
        return self.config.key_bits * self.config.trials


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[Config, ...]

    @property
    def protocols(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(c.protocol for c in self.configs))

    def rotation(self, rng: random.Random) -> list[Call]:
        return [Call(c, rng.randrange(2**31)) for c in self.configs]

    def warm_up_calls(self, seed: int) -> list[Call]:
        """One honest n=16 run per protocol the workload uses."""
        return [Call(Config("warm-up", p, 16), seed) for p in self.protocols]

    def short_call(self, seed: int) -> Call:
        """A short input for the same-seed, same-bytes check."""
        return Call(self.configs[0].tiny(), seed)


def _honest(protocol: str) -> Workload:
    return Workload(
        f"honest-{protocol}-n{HONEST_KEY_BITS}",
        (Config("honest", protocol, HONEST_KEY_BITS),),
    )


# Batch sizes make each batch take about 0.1 s on a 2-core 2020s x86 host, so
# a rotation gives one sample about every half second.
ATTACK_BATCH = Workload("attack-batch", (
    Config("intercept-z", "two-party", 16, 80,
           ("--adversary", "intercept-z", "--attack-fraction", "1"), False),
    Config("intercept-bell", "two-party", 16, 100,
           ("--adversary", "intercept-bell", "--attack-fraction", "0.5"), False),
    Config("dishonest-bob", "two-party", 32, 60,
           ("--adversary", "dishonest-bob", "--swap-count", str(REORDER_SWAPS)), False),
    Config("dishonest-alice", "two-party", 16, 75,
           ("--adversary", "dishonest-alice"), False),
    Config("intercept-bell-3p", "three-party", 16, 80,
           ("--adversary", "intercept-bell", "--attack-fraction", "0.25"), False),
))

FIVE_PARTY_N16 = Workload("five-party-n16", tuple(
    Config(f"{state}-{rounds}", "five-party", 16, 4,
           ("--five-party-state", state, "--five-party-rounds", rounds))
    for state in ("omega", "cluster")
    for rounds in ("1234", "1256", "3456")
))

WORKLOADS = {w.name: w for w in (
    _honest("two-party"),
    _honest("three-party"),
    _honest("five-party"),
    ATTACK_BATCH,
    FIVE_PARTY_N16,
)}


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return centre - half, centre + half


def _xor_hex(hex_keys) -> int:
    out = 0
    for key in hex_keys:
        out ^= int(key, 16)
    return out


@dataclass
class Gate:
    """Checks every output and keeps the tallies the statistical checks need."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    intercept_z_aborts: int = 0
    intercept_z_trials: int = 0
    reorder_batches: list[tuple[Call, list]] = field(default_factory=list)

    def fail(self, message: str, trials: int = 0) -> None:
        self.failed += trials
        if len(self.errors) < 20:
            self.errors.append(message)

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0

    def check(self, call: Call, rc, out: str, err: str | None) -> None:
        config = call.config
        self.attempted += config.trials
        where = f"{config.label} seed {call.seed}"
        if err is not None or rc != 0:
            self.fail(f"{where}: exit {rc}: {(err or '').strip()[-500:]}", config.trials)
            return
        try:
            payload = json.loads(out)
        except json.JSONDecodeError as exc:
            self.fail(f"{where}: unparsable output: {exc}", config.trials)
            return
        try:
            if config.trials == 1:
                self._check_run(where, config, payload)
            else:
                self._check_batch(where, call, payload)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            self.fail(f"{where}: malformed output: {exc!r}", config.trials)

    def _check_run(self, where: str, config: Config, d: dict) -> None:
        n = config.key_bits
        parties, (c, q, b) = PROTOCOLS[config.protocol]
        private = d.get("private_keys", {})
        truth = _xor_hex(private.values())
        derived = d.get("derived_keys", {})
        problems = [
            text for text, bad in (
                ("schema is not qka.run/1", d.get("schema") != "qka.run/1"),
                ("not one private and one derived key per party",
                 len(private) != parties or len(derived) != parties),
                ("run aborted", d.get("aborted") is not False),
                ("parties disagree", d.get("agreement") is not True),
                ("ground truth is not the XOR of the private keys",
                 int(d.get("ground_truth_key") or "0", 16) != truth),
                ("a derived key differs from the XOR of the private keys",
                 any(k is None or int(k, 16) != truth for k in derived.values())),
                ("resource counts differ from the closed form",
                 d.get("resource_counts") != {"c": c * n, "q": q * n, "b": b * n}),
            ) if bad
        ]
        if problems:
            self.fail(f"{where}: {'; '.join(problems)}", 1)

    def _check_batch(self, where: str, call: Call, d: dict) -> None:
        config = call.config
        trials = d.get("trials", [])
        if (d.get("schema") != "qka.batch/1"
                or d.get("summary", {}).get("trials") != config.trials
                or [t.get("run_index") for t in trials] != list(range(config.trials))):
            self.fail(f"{where}: not a qka.batch/1 record of {config.trials} trials",
                      config.trials)
            return
        aborted = sum(1 for t in trials if t["aborted"])
        if config.honest:
            bad = sum(1 for t in trials
                      if t["aborted"] or not t["agreement"] or t["shared_key"] is None)
            if bad:
                self.fail(f"{where}: {bad} honest trials aborted or disagreed", bad)
        elif config.label.startswith("dishonest"):
            # Insiders leave the channel alone, so no decoy check may fail.
            if aborted:
                self.fail(f"{where}: {aborted} insider trials aborted", aborted)
        if config.label == "intercept-z":
            self.intercept_z_aborts += aborted
            self.intercept_z_trials += config.trials
        if config.label == "dishonest-bob":
            self.reorder_batches.append((call, [t["shared_key"] for t in trials]))

    def check_statistics(self) -> dict:
        """Wilson-interval checks on the pooled rates; returns what was seen."""
        seen = {}
        aborts, trials = self.intercept_z_aborts, self.intercept_z_trials
        if trials:
            lo, hi = wilson_interval(aborts, trials)
            seen["intercept_z_abort"] = [aborts, trials]
            if not lo <= INTERCEPT_Z_ABORT <= hi:
                self.fail(f"intercept-z abort rate {aborts}/{trials} excludes "
                          f"1-(1/2)^8 at z={WILSON_Z}")
        if self.reorder_batches:
            hits, runs = self._reorder_hits()
            seen["reorder_success"] = [hits, runs]
            lo, hi = wilson_interval(hits, runs)
            if not lo <= REORDER_SUCCESS <= hi:
                self.fail(f"reorder success {hits}/{runs} excludes "
                          f"(1/2)^{REORDER_SWAPS} at z={WILSON_Z}")
        return seen

    def _reorder_hits(self) -> tuple[int, int]:
        """Rerun dishonest-bob trials through the library for the attack report.

        The batch record lacks the report, so each trial is rerun from its
        (seed, run_index), the way the CLI builds it, and the initiator's key
        is checked against the one the CLI printed.
        """
        from qka.adversaries import AdversaryKind, AdversaryModel
        from qka.protocols import ProtocolConfig, bits_to_hex, run_protocol

        adversary = AdversaryModel(kind=AdversaryKind.DISHONEST_BOB_REORDER,
                                   swap_count=REORDER_SWAPS)
        hits = runs = 0
        for call, shared_keys in self.reorder_batches:
            config = call.config
            for i in range(config.trials):
                if runs == MAX_REORDER_RERUNS:
                    return hits, runs
                result = run_protocol(
                    ProtocolConfig(key_bits=config.key_bits, seed=call.seed, run_index=i),
                    adversary,
                )
                alice = result.derived_keys[result.party_names[0]]
                if bits_to_hex(alice) != shared_keys[i]:
                    self.fail(f"dishonest-bob seed {call.seed} trial {i}: "
                              "library and CLI keys differ")
                hits += bool(result.attack_report["alice_key_matches_target"])
                runs += 1
        return hits, runs
