"""Command-line front end.

Subcommands:

* ``qka run``  — execute a protocol (optionally under an adversary) for one
  or many seeded trials and emit the result or a batch summary.
* ``qka efficiency`` — print the four-protocol resource/efficiency table.
* ``qka verify-groups`` — run the exhaustive group-algebra checks and print
  the dense-coding tables for the Bell and 4-qubit resource states.

Every flag of ``run`` can also come from a JSON config file (``--config``);
flags override file values, and the environment variable ``QKA_SEED`` is
the seed fallback when neither supplies one. Output is deterministic for a
fixed spec: identical runs serialize byte-identically.

Exit codes: 0 success, 2 configuration error, 3 when ``--fail-on-abort``
is set and any run aborted on a failed disturbance check.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .adversaries import AdversaryKind, AdversaryModel
from .efficiency import (
    FIVE_PARTY,
    THREE_PARTY,
    TWO_PARTY,
    efficiency_table_csv,
    efficiency_table_json,
    efficiency_table_text,
    qubit_efficiency,
)
from .pauli import (
    GroupElement,
    PauliLetter,
    canonical_order,
    check_disjoint,
    dense_coding_orthogonal,
    group_g1,
    group_g2,
    mul,
    product_set,
    standard_subgroups_g2,
)
from .protocols import (
    FIVE_PARTY_ROUND_CHOICES,
    FIVE_PARTY_STATES,
    ProtocolConfig,
    ProtocolResult,
    _json_chunks,
    bits_to_hex,
    check_adversary,
    run_batch,
    run_protocol,
)
from .registers import (
    BELL_VECTORS,
    BellOutcome,
    FourQubitState,
    StateRegister,
    apply_element,
    four_qubit_vector,
)

PARTY_COUNTS = {TWO_PARTY: 2, THREE_PARTY: 3, FIVE_PARTY: 5}
PROTOCOL_CHOICES = tuple(PARTY_COUNTS)
ADVERSARY_CHOICES = tuple(kind.value for kind in AdversaryKind)
# A batch keeps every trial's result for its summary, about 1.5-2.5 KB per
# five-party key bit, so one command may ask for at most this many key bits.
MAX_COMMAND_KEY_BITS = 2**17


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunOption:
    """One ``qka run`` option and config key; its flag is the key with dashes.

    A config value must have one of ``types`` (a bool is never a number),
    which ``expected`` names; ``types[0]`` parses the flag, and ``(bool,)``
    makes it a switch. ``refusal`` is the message for a merged spec value
    outside ``choices``.
    """

    key: str
    types: tuple[type, ...]
    expected: str
    default: object
    choices: tuple[str, ...] | None = None
    help: str | None = None
    refusal: str | None = None

    def check_type(self, value: object) -> None:
        if isinstance(value, bool) != (bool in self.types) or not isinstance(value, self.types):
            got = json.dumps(value)
            raise ConfigError(f"config key {self.key!r} must be {self.expected}, got {got}")

    def check_choice(self, spec: dict) -> None:
        if spec[self.key] not in self.choices:
            raise ConfigError(self.refusal.format(spec[self.key]))


_INT = ((int,), "an integer")
_NUMBER = ((float, int), "a number")
_STR = ((str,), "a string")
RUN_OPTIONS = {option.key: option for option in (
    RunOption("protocol", *_STR, TWO_PARTY, PROTOCOL_CHOICES, refusal="unknown protocol {!r}"),
    RunOption("key_bits", *_INT, 16),
    RunOption("seed", (int, type(None)), "an integer or null", None),
    RunOption("trials", *_INT, 1),
    RunOption("adversary", *_STR, AdversaryKind.NONE.value, ADVERSARY_CHOICES,
              refusal="unknown adversary {!r}"),
    RunOption("attack_fraction", *_NUMBER, 1.0),
    RunOption("swap_count", *_INT, 1, help="number of disjoint position swaps for dishonest-bob"),
    RunOption("threshold", *_NUMBER, 0.0, help="decoy error-rate tolerance"),
    # ProtocolConfig.validate refuses a bad state, after its key_bits rule.
    RunOption("five_party_state", *_STR, FourQubitState.OMEGA.value, FIVE_PARTY_STATES),
    RunOption("five_party_rounds", *_STR, "1234",
              help="four digits 1-6 naming a decodable round selection, e.g. 1234"),
    RunOption("format", *_STR, "json", ("json", "text"),
              refusal="run output format must be json or text"),
    RunOption("out", (str, type(None)), "a string or null", None,
              help="write output to this path instead of stdout"),
    RunOption("fail_on_abort", (bool,), "true or false", False),
)}
RUN_DEFAULTS = {key: option.default for key, option in RUN_OPTIONS.items()}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The ``qka`` parser, built once per process; every caller gets the same object.

    Reusing it is safe: argparse changes nothing in a parser while it
    parses, and writes usage, errors and ``--version`` to whatever
    ``sys.stdout`` and ``sys.stderr`` are at call time. ``--config``,
    ``--out`` and ``QKA_SEED`` are read per call, after parsing. A caller
    must not add to it.
    """
    parser = argparse.ArgumentParser(
        prog="qka",
        description="Simulate orthogonal-state quantum key agreement protocols.",
    )
    parser.add_argument("--version", action="version", version=f"qka {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute protocol trials")
    run_p.add_argument("--config", help="JSON config file; flags override its values")
    for option in RUN_OPTIONS.values():
        flag = "--" + option.key.replace("_", "-")
        if option.types == (bool,):
            run_p.add_argument(flag, action="store_true", default=None, help=option.help)
        else:
            run_p.add_argument(flag, type=option.types[0], choices=option.choices, help=option.help)

    eff_p = sub.add_parser("efficiency", help="resource and efficiency table")
    eff_p.add_argument("--table", action="store_true",
                       help="emit the four-protocol comparison table")
    eff_p.add_argument("--key-bits", type=int, default=2, dest="key_bits")
    eff_p.add_argument("--format", choices=("json", "text", "csv"), default="text")
    eff_p.add_argument("--out")

    ver_p = sub.add_parser("verify-groups",
                           help="exhaustive group checks and dense-coding tables")
    ver_p.add_argument("--out")
    return parser


def _load_run_spec(args: argparse.Namespace) -> dict:
    spec = dict(RUN_DEFAULTS)
    if args.config:
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_values) - set(RUN_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_values.items():
            RUN_OPTIONS[key].check_type(value)
        spec.update(file_values)
    for key in RUN_DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            spec[key] = value
    if spec["seed"] is None:
        env_seed = os.environ.get("QKA_SEED")
        if env_seed is not None:
            try:
                spec["seed"] = int(env_seed)
            except ValueError:
                raise ConfigError(f"QKA_SEED must be an integer, got {env_seed!r}")
        else:
            spec["seed"] = 0
    return spec


def _validate_run_spec(spec: dict) -> tuple[ProtocolConfig, AdversaryModel]:
    # Refusals keep this order: protocol, trials, format, adversary, then the library's.
    RUN_OPTIONS["protocol"].check_choice(spec)
    if spec["trials"] < 1:
        raise ConfigError("trials must be >= 1")
    RUN_OPTIONS["format"].check_choice(spec)
    RUN_OPTIONS["adversary"].check_choice(spec)
    config = ProtocolConfig(
        key_bits=spec["key_bits"],
        party_count=PARTY_COUNTS[spec["protocol"]],
        error_threshold=spec["threshold"],
        seed=spec["seed"],
        five_party_state=spec["five_party_state"],
        five_party_rounds=spec["five_party_rounds"],
    )
    try:
        config.validate()
        total = spec["trials"] * config.key_bits
        if total > MAX_COMMAND_KEY_BITS:
            raise ValueError(
                f"trials * key_bits = {total} exceeds the limit of "
                f"{MAX_COMMAND_KEY_BITS} key bits per command"
            )
        adversary = AdversaryModel(
            kind=spec["adversary"],
            fraction=spec["attack_fraction"],
            swap_count=spec["swap_count"],
        )
        check_adversary(config, adversary)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config, adversary


def batch_summary(results: Sequence[ProtocolResult]) -> dict:
    """Agreement/abort/error statistics over a nonempty batch of runs."""
    if not results:
        raise ValueError("batch_summary needs at least one result")
    total = len(results)
    aborted = sum(1 for r in results if r.aborted)
    completed = [r for r in results if not r.aborted]
    agreement = sum(1 for r in completed if r.agreement())
    error_rates = [c.error_rate for r in results for c in r.checks]
    bit_errors = bit_total = 0
    for r in completed:
        derived = np.stack(list(r.derived_keys.values()))
        bit_errors += int(np.count_nonzero(derived != r.ground_truth_key()))
        bit_total += derived.size
    return {
        "trials": total,
        "abort_rate": aborted / total,
        "agreement_rate": agreement / total,
        "mean_error_rate": (
            sum(error_rates) / len(error_rates) if error_rates else 0.0
        ),
        "key_bit_error_rate": (bit_errors / bit_total) if bit_total else None,
    }


def _run_command(args: argparse.Namespace) -> int:
    spec = _load_run_spec(args)
    config, adversary = _validate_run_spec(spec)
    _check_out_path(spec["out"])
    if spec["trials"] == 1:
        results = [run_protocol(config, adversary)]
    else:
        results = run_batch(config, adversary, spec["trials"])

    if spec["trials"] == 1:
        if spec["format"] == "text":
            chunks = [_render_single(results[0])]
        else:
            chunks = _json_chunks(results[0].to_dict())
    else:
        payload = {
            "schema": "qka.batch/1",
            "spec": {k: spec[k] for k in sorted(RUN_OPTIONS) if k != "out"},
            "summary": batch_summary(results),
            "trials": [
                {
                    "run_index": i,
                    "aborted": r.aborted,
                    "agreement": r.agreement(),
                    "shared_key": _shared_key_hex(r),
                }
                for i, r in enumerate(results)
            ],
        }
        chunks = _json_chunks(payload) if spec["format"] == "json" else [_render_batch(payload)]
    _emit(chunks, spec["out"])
    if spec["fail_on_abort"] and any(r.aborted for r in results):
        return 3
    return 0


def _shared_key_hex(result: ProtocolResult) -> str | None:
    """The first party's key in hex; a run that did not abort derived every key."""
    return None if result.aborted else bits_to_hex(result.derived_keys[result.party_names[0]])


def _render_single(result: ProtocolResult) -> str:
    """The text view, read off the result; the transcript is never serialized."""
    lines = [
        f"protocol       {result.protocol}",
        f"key bits       {result.key_bits}",
        f"aborted        {result.aborted}",
    ]
    if result.abort_reason:
        lines.append(f"abort reason   {result.abort_reason}")
    for name in result.party_names:
        key = result.derived_keys[name]
        lines.append(f"key[{name:<7}]  {bits_to_hex(key) if key is not None else '-'}")
    lines.append(f"agreement      {result.agreement()}")
    for check in result.checks:
        lines.append(
            f"check t{check.transmission:<3} {check.sender}->{check.receiver}"
            f" error {check.error_rate:.4f} {'ok' if check.passed else 'FAIL'}"
        )
    rc = result.resource_counts
    if rc:
        eff = qubit_efficiency(rc).to_dict()
        lines.append(f"resources      c={rc.c} q={rc.q} b={rc.b}")
        lines.append(f"efficiency     {eff['eta_fraction']} = {eff['eta_percent']}")
    return "\n".join(lines)


def _render_batch(payload: dict) -> str:
    s = payload["summary"]
    lines = [
        f"trials             {s['trials']}",
        f"abort rate         {s['abort_rate']:.4f}",
        f"agreement rate     {s['agreement_rate']:.4f}",
        f"mean error rate    {s['mean_error_rate']:.4f}",
    ]
    if s["key_bit_error_rate"] is not None:
        lines.append(f"key bit error rate {s['key_bit_error_rate']:.4f}")
    return "\n".join(lines)


def _efficiency_command(args: argparse.Namespace) -> int:
    # --table is the only mode; accept its absence as the same request.
    n = args.key_bits
    if n <= 0:
        raise ConfigError("key-bits must be positive")
    if args.format == "csv":
        output = efficiency_table_csv(n)
    elif args.format == "json":
        output = efficiency_table_json(n)
    else:
        output = efficiency_table_text(n)
    _emit([output], args.out)
    return 0


def _verify_groups_command(args: argparse.Namespace) -> int:
    lines: list[str] = []
    ok = True

    def check(name: str, passed: bool) -> None:
        nonlocal ok
        ok = ok and passed
        lines.append(f"{'ok  ' if passed else 'FAIL'} {name}")

    # The table's entry C for (A, B) equals AB up to a unit phase exactly
    # when the Hilbert-Schmidt overlap |tr(C^T A B)| reaches its maximum, 2
    # (every letter matrix is real).
    overlaps = [
        np.trace(mul(GroupElement.of(a), GroupElement.of(b)).letters[0].matrix.T
                 @ a.matrix @ b.matrix)
        for a in PauliLetter for b in PauliLetter
    ]
    check(
        "letter product table matches the matrix oracle (16 pairs)",
        bool(np.allclose(np.abs(overlaps), 2)),
    )
    g1 = group_g1()
    check(
        "letter group closed and commutative (64 triples)",
        all(
            mul(a, b) in g1
            and mul(a, b) == mul(b, a)
            and mul(mul(a, b), c) == mul(a, mul(b, c))
            for a in g1 for b in g1 for c in g1
        ),
    )
    subs = standard_subgroups_g2()
    check(
        "g1..g6 pairwise disjoint (15 pairs)",
        all(check_disjoint(a, b) for a, b in itertools.combinations(subs, 2)),
    )
    g2 = group_g2()
    for quad in FIVE_PARTY_ROUND_CHOICES:
        chosen = [subs[int(d) - 1] for d in quad]
        check(
            f"product of g{quad[0]},g{quad[1]},g{quad[2]},g{quad[3]} covers all 16 elements",
            product_set(chosen) == g2,
        )

    psi = StateRegister((0, 1), BELL_VECTORS[BellOutcome.PSI_PLUS].copy())
    check(
        "dense coding on |psi+> (letters on qubit 2) is orthogonal",
        dense_coding_orthogonal(psi, (1,), g1),
    )
    for kind in FourQubitState:
        reg = StateRegister((0, 1, 2, 3), four_qubit_vector(kind))
        check(
            f"dense coding on |{kind.value}> (two-letter group on qubits 1,3) is orthogonal",
            dense_coding_orthogonal(reg, (0, 2), g2),
        )

    lines.append("")
    lines.extend(_dense_coding_table_bell(psi))
    for kind in FourQubitState:
        lines.append("")
        lines.extend(_dense_coding_table_four(kind))

    _emit(["\n".join(lines)], args.out)
    return 0 if ok else 1


def _dense_coding_table_bell(psi: StateRegister) -> list[str]:
    lines = ["dense coding table for |psi+>, letters acting on qubit 2:"]
    bell_names = {o: o.label for o in BellOutcome}
    for letter in PauliLetter:
        out = apply_element(psi, GroupElement.of(letter), (1,))
        hits = [
            name
            for o, name in bell_names.items()
            if abs(abs(BELL_VECTORS[o] @ out.amplitudes) - 1) < 1e-10
        ]
        lines.append(f"  {GroupElement.of(letter).label:<3} -> |{hits[0]}>")
    return lines


def _dense_coding_table_four(kind: FourQubitState) -> list[str]:
    reg = StateRegister((0, 1, 2, 3), four_qubit_vector(kind))
    lines = [f"dense coding table for |{kind.value}>, elements acting on qubits 1,3:"]
    for element in canonical_order(group_g2()):
        out = apply_element(reg, element, (0, 2))
        lines.append(f"  {element.label:<5} -> {_render_ket(out.amplitudes)}")
    return lines


def _render_ket(amplitudes: np.ndarray) -> str:
    k = int(np.log2(len(amplitudes)))
    terms = []
    for idx, amp in enumerate(amplitudes):
        if abs(amp) < 1e-12:
            continue
        sign = "+" if amp > 0 else "-"
        terms.append(f"{sign}|{idx:0{k}b}>")
    return "1/2(" + " ".join(terms) + ")" if len(terms) == 4 else " ".join(terms)


def _check_out_path(path: str | None) -> None:
    """Refuse, before any trial runs, an ``--out`` that is empty, a directory or lies in none."""
    if path is None:
        return
    if not path:
        reason = "No such file or directory"  # what opening it would say
    elif os.path.isdir(path):
        reason = "Is a directory"
    elif not os.path.isdir(os.path.dirname(path) or "."):
        reason = "No such directory"
    else:
        return
    raise ConfigError(f"cannot write output to {path!r}: {reason}")


def _emit(chunks: Iterable[str], path: str | None) -> None:
    """Write the chunks and a final newline to ``path``, or to stdout when there is none."""
    if path is None:
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.write("\n")
        return
    try:
        with open(path, "w") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.write("\n")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        reason = exc.strerror if isinstance(exc, OSError) else str(exc)
        raise ConfigError(f"cannot write output to {path!r}: {reason}") from exc


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            status = _run_command(args)
        elif args.command == "efficiency":
            status = _efficiency_command(args)
        else:
            status = _verify_groups_command(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return status
    except ConfigError as exc:
        print(f"qka: configuration error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away (``qka run | head``). Point stdout at devnull
        # so the flush at exit cannot fail again, as the signal docs advise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
