"""Turn-based engines for the two-, three- and five-party key agreements.

All three protocols share one transport idiom: the sender interleaves the
message qubits with decoy Bell pairs, scrambles the whole train under a
secret uniform permutation, and stages its disclosures so that the receiver
can always check the decoys for disturbance before any key-bearing order
becomes public. The three- and five-party agreements are one ring
construction and share one engine.

Keys combine by XOR: every party's private key flips exactly its own bits
of the shared key, and nobody learns anything before committing.

Every run is a *lane*, a ``_RunContext`` that owns its generator, keys,
transcript and checks and, once the run ends, its result; identical
(seed, run_index) pairs reproduce byte-identical transcripts. Both engines
run a ``_Stack`` of lanes through one store in lockstep,
and send every train through its one transmission routine,
``_Stack.transmit``: scramble, send, transit attack, decoy check, and each
lane's disclosures, checks and abort. What sets a transmission apart is its
disclosure staging, when a train's message order goes out: with the decoy
pairs (a train that carries no key yet), right after its check (a
key-bearing ring hop), or withheld (the two-party return train, whose order
waits until the initiating party has committed to her key announcement, so
neither side can steer the final key). A lone run is a stack of one lane;
``run_batch`` stacks a batch's trials up to ``_STACK_KEY_BITS`` key bits at
a time. A stack numbers its qubit ids across its lanes, so only the digests
of the ``quantum-send`` events, the one payload that holds ids, differ from
those of a run on its own.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from . import transcript as tr
from .adversaries import (
    AdversaryKind,
    AdversaryModel,
    attack_transit,
    check_swap_count,
    choose_swap_pairs,
    dishonest_alice_early_measure,
    dishonest_bob_reorder,
    require_ints,
    require_unit_interval,
)
from .efficiency import (
    FIVE_PARTY,
    THREE_PARTY,
    TWO_PARTY,
    ResourceCount,
    count_from_transcript,
    qubit_efficiency,
)
from .pauli import (
    GroupElement,
    PauliLetter,
    canonical_order,
    mul,
    product_set,
    standard_subgroups_g2,
    validate_scheme,
)
from .registers import (
    BELL_LABELS,
    BELL_VECTORS,
    BELL_X_BITS,
    MAX_REGISTER_QUBITS,
    BellOutcome,
    FourQubitState,
    QubitStore,
    StateRegister,
    apply_element,
    constant_basis,
    constant_state,
    four_qubit_vector,
)
from .transcript import Transcript

PARTY_NAMES = ("Alice", "Bob", "Charlie", "Dave", "Erika")

# The three subgroup sets that decode; any order of one of them is a valid
# selection too, which ``ProtocolConfig.validate`` decides.
FIVE_PARTY_ROUND_CHOICES = ("1234", "1256", "3456")

FIVE_PARTY_STATES = tuple(state.value for state in FourQubitState)

# Qubits per resource copy, by party count: Bell pairs, or a 4-qubit state.
_COPY_QUBITS = {2: 2, 3: 2, 5: 4}

# The decoy pairs' state, and the two- and three-party resource state.
_PSI_PLUS = constant_state(BELL_VECTORS[BellOutcome.PSI_PLUS])

# A hop's senders scramble together while their trains hold at most this
# many items in all: a stack's small trains share one scramble, and a long
# train's temporaries stay those of one train.
_SCRAMBLE_ITEMS = 2**12

# The largest key a run accepts; a five-party run at this size peaks near
# 207.7 MB of resident memory, during its last hop's decoy checks.
MAX_KEY_BITS = 65_536


class InvalidSchemeError(ValueError):
    """A five-party round selection fails the encoding-scheme validation."""


def bits_to_hex(bits: Sequence[int] | np.ndarray) -> str:
    """Big-endian hex rendering, left-padded to whole nibbles; ``"0"`` for no bits.

    Raises ValueError for anything but a flat sequence of 0s and 1s (``_checked_bits``).
    """
    bits = _checked_bits(bits)
    n = bits.size
    if not n:
        return "0"
    padded = np.zeros(-(-n // 8) * 8, dtype=np.uint8)  # left-padded to whole bytes
    padded[-n:] = bits
    text = np.packbits(padded).tobytes().hex()
    return text[len(text) - (n + 3) // 4 :]


def _checked_bits(bits, refusal: str = "bits must be a flat sequence of 0s and 1s") -> np.ndarray:
    """``bits`` as a flat array if each equals 0 or 1, else ValueError with ``refusal``.

    The one home of the bit rule.
    """
    if not isinstance(bits, np.ndarray):
        bits = np.asarray(bits, dtype=object)  # object: a ragged sequence reaches the check
    if bits.ndim != 1 or np.any((bits != 0) & (bits != 1)):
        raise ValueError(refusal)
    return bits


def xor_bits(*keys: np.ndarray) -> np.ndarray:
    """The XOR of equal-length uint8 bit arrays, as a new read-only array."""
    combined = np.bitwise_xor.reduce(keys)
    combined.flags.writeable = False
    return combined


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything a run needs; n must be even (decoys ship as n/2 pairs)."""

    key_bits: int
    party_count: int = 2
    error_threshold: float = 0.0
    seed: int = 0
    run_index: int = 0
    five_party_state: str = FourQubitState.OMEGA.value
    five_party_rounds: str = "1234"
    fixed_keys: tuple[tuple[int, ...], ...] | None = None

    def validate(self) -> None:
        require_ints(key_bits=self.key_bits, party_count=self.party_count,
                     seed=self.seed, run_index=self.run_index)
        if self.key_bits <= 0 or self.key_bits % 2:
            raise ValueError("key_bits must be a positive even integer")
        if self.key_bits > MAX_KEY_BITS:
            raise ValueError(f"key_bits {self.key_bits} exceeds the limit of {MAX_KEY_BITS}")
        if self.party_count not in (2, 3, 5):
            raise ValueError("party_count must be 2, 3 or 5")
        require_unit_interval("error_threshold", self.error_threshold)
        if self.seed < 0 or self.run_index < 0:
            raise ValueError("seed and run_index must be nonnegative")
        if self.five_party_state not in FIVE_PARTY_STATES:
            names = " or ".join(map(repr, FIVE_PARTY_STATES))
            raise ValueError(f"five_party_state must be {names}")
        _checked_rounds(self.five_party_rounds)
        if self.fixed_keys is not None:
            if len(self.fixed_keys) != self.party_count:
                raise ValueError("fixed_keys must supply one key per party")
            refusal = "each fixed key must be key_bits bits"
            for key in self.fixed_keys:
                if _checked_bits(key, refusal).size != self.key_bits:
                    raise ValueError(refusal)
        if self.party_count == 5:  # raises InvalidSchemeError for an undecodable selection
            _five_party_ring(self.five_party_state, self.five_party_rounds)

    def make_rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.run_index])


@dataclass(frozen=True, eq=False)
class PermutationRecord:
    """The sender's secret map for one scrambled train, as read-only int64 arrays.

    ``forward[i]`` is the slot of concatenated item i (messages first, then
    decoy qubits pair by pair). ``message_order[i]`` is the slot of message
    qubit i, and ``decoy_pairs`` is an (m, 2) array holding the slot pair of
    each decoy Bell pair; both are views of ``forward``.
    """

    forward: np.ndarray
    message_order: np.ndarray
    decoy_pairs: np.ndarray

    @classmethod
    def of(cls, forward: np.ndarray, message_count: int) -> "PermutationRecord":
        """The record of ``forward`` maps whose first ``message_count`` items are messages.

        ``forward`` may hold one map per row of a stack of trains; every
        field then keeps its leading axes. ``forward`` is made read-only.
        """
        forward.flags.writeable = False
        decoys = forward[..., message_count:]
        decoy_pairs = decoys.reshape(decoys.shape[:-1] + (decoys.shape[-1] // 2, 2))
        return cls(forward, forward[..., :message_count], decoy_pairs)


@dataclass(frozen=True)
class TransmissionCheck:
    transmission: int
    step: str
    sender: str
    receiver: str
    error_rate: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "transmission": self.transmission,
            "step": self.step,
            "sender": self.sender,
            "receiver": self.receiver,
            "error_rate": self.error_rate,
            "passed": self.passed,
        }


def insert_decoys_and_permute(
    message_qubits: Sequence[int] | np.ndarray,
    store: QubitStore,
    rngs: Sequence[np.random.Generator],
    decoy_pair_count: int,
) -> tuple[np.ndarray, PermutationRecord]:
    """Append ``decoy_pair_count`` fresh decoy pairs to each train and scramble it uniformly.

    ``message_qubits`` is a stack of trains whose last axis holds each
    train's message ids (one train is a stack of shape ()), and ``rngs``
    holds one generator per train, in row-major order. One allocation makes
    every train's decoy pairs, train after train, and each generator then
    draws its train's ``permutation``, in train order.

    Returns the trains in transit, an int64 id array by slot, and the
    senders' record; the slots and every record field keep the stack's
    leading axes. For one train, ``slots[record.message_order]`` restores
    the message.
    """
    message = np.asarray(message_qubits, dtype=np.int64)
    m = message.shape[-1]
    rows = len(rngs)
    decoys = store.new_train(_PSI_PLUS, rows * decoy_pair_count).reshape(rows, -1)
    items = np.concatenate([message.reshape(rows, m), decoys], axis=1)
    total = items.shape[1]
    taken = np.array([rng.permutation(total) for rng in rngs])  # the item each slot takes
    taken += np.arange(rows)[:, None] * total  # as flat indices: 1-D gathers are fast
    forward = np.empty_like(taken)
    forward.ravel()[taken] = np.arange(total)  # the inverse permutations
    stacked = message.shape[:-1] + (total,)
    return items.ravel()[taken].reshape(stacked), PermutationRecord.of(forward.reshape(stacked), m)


def _check_passed(error_rate: float, threshold: float) -> bool:
    """The decoy pass rule, in its one home: an error rate at most ``threshold``; a NaN fails."""
    return bool(error_rate <= threshold)  # a plain bool, whatever float type the threshold has


def verify_decoys(
    store: QubitStore,
    slots: np.ndarray,
    disclosed: np.ndarray,
    threshold: float,
    rng: np.random.Generator | np.ndarray,
) -> tuple[int, tuple[float, ...]]:
    """Bell-measure each train's disclosed decoy pairs; any non-psi+ outcome is an error.

    ``slots`` is a (trains, items) id array, one train in transit per row,
    and ``disclosed`` a (trains, pairs, 2) array, each train's decoy pairs
    as slot pairs. Every disclosure is checked whole before anything is
    measured or drawn (``_checked_disclosure``). All pairs are then measured
    in one bulk call, train after train, so each train draws the uniforms a
    call of its own would draw in turn. ``rng`` may instead be those
    uniforms, one per pair.

    Returns ``(passes, error_rates)``: how many trains, from the first,
    pass (``_check_passed``) before one fails, and each train's error rate.
    """
    slots = np.asarray(slots, dtype=np.int64)
    disclosed = np.asarray(disclosed, dtype=np.int64)
    named = slots.ravel()[_checked_disclosure(slots, disclosed)]
    trains, pairs = disclosed.shape[:2]
    outcomes = store.measure_rows_in_basis(named.reshape(-1, 2), BELL_VECTORS, rng)
    passed = np.count_nonzero(outcomes.reshape(trains, pairs) == BellOutcome.PSI_PLUS, axis=1)
    error_rates = ((pairs - passed) / pairs).tolist()
    passes = next(
        (i for i, rate in enumerate(error_rates) if not _check_passed(rate, threshold)), trains
    )
    return passes, tuple(error_rates)


def _checked_disclosure(slots: np.ndarray, disclosed: np.ndarray) -> np.ndarray:
    """The disclosed slots as indices into ``slots.ravel()``; the one home of the disclosure rule.

    ``disclosed[t]`` must be a nonempty (m, 2) array naming m disjoint
    pairs of distinct slots of train ``slots[t]``. Otherwise this raises
    ValueError for the first bad train, with the message a check of that
    train alone would give.
    """
    if not disclosed.size:
        raise ValueError("decoy disclosure is empty")
    if disclosed.ndim != 3 or disclosed.shape[2] != 2:
        raise ValueError(f"decoy disclosure must hold slot pairs, got shape {disclosed.shape[1:]}")
    if slots.ndim != 2 or len(slots) != len(disclosed):
        raise ValueError(f"{len(disclosed)} disclosures for trains of shape {slots.shape}")
    trains, items = slots.shape
    named = disclosed + np.arange(trains)[:, None, None] * items  # as flat indices
    # Every slot must be in range and named once; in range, no two trains share an index.
    if disclosed.min() >= 0 and disclosed.max() < items and np.bincount(named.ravel()).max() < 2:
        return named
    ordered = np.sort(disclosed.reshape(trains, -1), axis=1)
    repeated = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    out_of_range = ((disclosed < 0) | (disclosed >= items)).any(axis=2)
    malformed = out_of_range | (disclosed[..., 0] == disclosed[..., 1])
    first = (malformed.any(axis=1) | repeated).argmax()  # the first bad train
    if malformed[first].any():
        a, b = disclosed[first, malformed[first].argmax()].tolist()
        raise ValueError(f"malformed decoy pair ({a}, {b})")
    raise ValueError("decoy pairs must be disjoint")


def encode_key(
    store: QubitStore,
    qubits: Sequence[int] | np.ndarray,
    key: Sequence[int] | np.ndarray,
    word: GroupElement,
) -> None:
    """Round encoding: ``word`` on each ``word.arity``-sized group whose key bit is 1.

    A key holding anything other than 0s and 1s raises ValueError before any
    Pauli is applied.
    """
    arity = word.arity
    qubits = np.asarray(qubits, dtype=np.int64)
    key_mask = _checked_bits(key).astype(bool, copy=False)
    if qubits.size != arity * key_mask.size:
        raise ValueError("qubit list must hold one word-sized group per key bit")
    store.apply_pauli_groups(word, qubits.reshape(-1, arity)[key_mask])


@dataclass(eq=False)
class ProtocolResult:
    """A run's outcome. Keys are 1-D read-only uint8 bit arrays; results compare by identity."""

    protocol: str
    key_bits: int
    party_names: tuple[str, ...]
    private_keys: dict[str, np.ndarray]
    derived_keys: dict[str, np.ndarray | None]
    aborted: bool
    abort_reason: str | None
    checks: list[TransmissionCheck]
    resource_counts: ResourceCount | None
    transcript: Transcript
    outcome_records: dict[str, tuple[str, ...]] = field(default_factory=dict)
    attack_report: dict | None = None

    def ground_truth_key(self) -> np.ndarray:
        """XOR of all private keys; what every honest run must derive."""
        return xor_bits(*self.private_keys.values())

    def agreement(self) -> bool:
        return self._agrees_with(self.ground_truth_key())

    def _agrees_with(self, truth: np.ndarray) -> bool:
        return not self.aborted and all(
            np.array_equal(key, truth) for key in self.derived_keys.values()
        )

    def to_dict(self) -> dict:
        report = (
            qubit_efficiency(self.resource_counts).to_dict()
            if self.resource_counts
            else None
        )
        truth = self.ground_truth_key()
        return {
            "schema": "qka.run/1",
            "protocol": self.protocol,
            "key_bits": self.key_bits,
            "parties": list(self.party_names),
            "aborted": self.aborted,
            "abort_reason": self.abort_reason,
            "private_keys": {k: bits_to_hex(v) for k, v in self.private_keys.items()},
            "derived_keys": {
                k: (bits_to_hex(v) if v is not None else None)
                for k, v in self.derived_keys.items()
            },
            "ground_truth_key": bits_to_hex(truth),
            "agreement": self._agrees_with(truth),
            "checks": [c.to_dict() for c in self.checks],
            "resource_counts": (
                {"c": self.resource_counts.c, "q": self.resource_counts.q, "b": self.resource_counts.b}
                if self.resource_counts
                else None
            ),
            "efficiency": report,
            "outcomes": {k: list(v) for k, v in self.outcome_records.items()},
            "attack_report": self.attack_report,
            "transcript": self.transcript.to_dict(),
        }

    def to_json(self) -> str:
        """``to_dict()`` as JSON with sorted keys and a two-space indent.

        The text is byte for byte what ``json.dumps`` writes with those
        options; the CLI streams the same chunks instead of joining them.
        """
        return "".join(json_chunks(self.to_dict()))


_INFINITY = float("inf")
_ENCODE_STR = json.encoder.encode_basestring_ascii


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


# json's spelling of each scalar type; a subclass of str, int or float is
# spelled as its base is.
_SCALARS = {
    str: _ENCODE_STR,
    int: int.__repr__,
    float: _json_float,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


@functools.lru_cache(maxsize=256)
def _json_key(key: str) -> str:
    return _ENCODE_STR(key) + ": "


def _json_text(value, indent: str) -> str | None:
    """A scalar, a list of strings or a dict of scalars as one string; None for anything else."""
    spell = _SCALARS.get(type(value))
    if spell is not None:
        return spell(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        try:
            body = (",\n" + inner).join(
                [_json_key(key) + _SCALARS[type(item)](item) for key, item in sorted(value.items())]
            )
        except KeyError:  # an item is no plain scalar
            return None
        return "{\n" + inner + body + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:  # each distinct string is encoded once
            encoded = {item: _ENCODE_STR(item) for item in set(value)}
        except TypeError:  # an item is not a string
            return None
        body = (",\n" + inner).join(map(encoded.__getitem__, value))
        return "[\n" + inner + body + "\n" + indent + "]"
    for base in (str, int, float):
        if isinstance(value, base):
            return _SCALARS[base](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_chunks(value, indent: str = "") -> Iterator[str]:
    """``value`` as JSON with sorted keys and a two-space indent, in chunks.

    The chunks join to exactly the text ``json.dumps`` writes with those
    options (``sort_keys=True`` and an indent of 2).

    Dict keys must be strings. Each list of strings and each dict of
    scalars is one chunk: the outcome labels and the transcript events,
    which make up most of a run's output, are joined, not walked.
    """
    text = _json_text(value, indent)
    if text is not None:
        yield text
        return
    inner = indent + "  "
    if isinstance(value, dict):
        items = [(_json_key(key), item) for key, item in sorted(value.items())]
        head, close = "{\n" + inner, "\n" + indent + "}"
    else:
        items = [("", item) for item in value]
        head, close = "[\n" + inner, "\n" + indent + "]"
    for prefix, item in items:
        text = _json_text(item, inner)
        if text is not None:
            yield head + prefix + text
        else:
            yield head + prefix
            yield from json_chunks(item, inner)
        head = ",\n" + inner
    yield close


class _RunContext:
    """One run, a lane of a stack: its generator, transcript, checks, keys and result."""

    def __init__(self, protocol: str, config: ProtocolConfig, names: tuple[str, ...]):
        self.config = config
        self.names = names
        self.rng = config.make_rng()
        self.transcript = Transcript(protocol, config.key_bits)
        self.checks: list[TransmissionCheck] = []
        self.keys: list[np.ndarray] = []  # the private keys drawn so far, in party order
        self.result: ProtocolResult | None = None  # set by ``finish`` once the run ends

    def draw_key(self, party_index: int) -> None:
        """Add the party's private key, a read-only uint8 array: its fixed key, or n drawn bits."""
        fixed = self.config.fixed_keys
        if fixed is not None:
            key = np.array(fixed[party_index], dtype=np.uint8)
        else:  # an int64 draw, cast: a uint8 draw would take other bits from the stream
            key = self.rng.integers(0, 2, size=self.config.key_bits).astype(np.uint8)
        key.flags.writeable = False
        self.keys.append(key)

    def finish(
        self,
        derived: dict[str, np.ndarray | None],
        outcome_records: dict[str, tuple[str, ...]] | None = None,
        report: dict | None = None,
        reason: str | None = None,
    ) -> None:
        """End the run with its result: completed, or aborted for ``reason``."""
        aborted = reason is not None
        transcript = self.transcript
        self.result = ProtocolResult(
            transcript.protocol, transcript.key_bits, self.names, dict(zip(self.names, self.keys)),
            derived, aborted, reason, self.checks,
            None if aborted else count_from_transcript(transcript), transcript,
            outcome_records or {}, report,
        )

    def log_preparation(self, step: str, actor: str, qubit_count: int, purpose: str) -> None:
        self.transcript.log(
            step,
            actor,
            tr.STATE_PREPARATION,
            {"purpose": purpose, "qubit_count": qubit_count},
            qubit_count=qubit_count,
            purpose=purpose,
        )

    def send(self, step: str, sender: str, receiver: str, slots: np.ndarray, index: int) -> None:
        """Log a scrambled train's send as transmission ``index``, and its ack.

        The log keeps the train as sent: a transit attack (see
        ``_Stack.transmit``) rewrites ``slots`` only afterwards.
        """
        self.transcript.log(
            step,
            sender,
            tr.QUANTUM_SEND,
            {"to": receiver, "slots": slots, "transmission": index},
            qubit_count=len(slots),
        )
        self.transcript.log(step, receiver, tr.ACK, {"transmission": index})

    def disclose_full(
        self, step: str, actor: str, message_order: np.ndarray, decoy_pairs: np.ndarray
    ) -> None:
        self.transcript.log(
            step,
            actor,
            tr.FULL_PERMUTATION_DISCLOSURE,
            {"message_order": message_order, "decoy_pairs": decoy_pairs},
            counted_bits=len(message_order),
        )

    def disclose_decoys(self, step: str, actor: str, decoy_pairs: np.ndarray) -> None:
        self.transcript.log(
            step,
            actor,
            tr.DECOY_POSITIONS_DISCLOSURE,
            {"decoy_pairs": decoy_pairs},
        )

    def disclose_order(self, step: str, actor: str, order: np.ndarray) -> None:
        self.transcript.log(
            step,
            actor,
            tr.MESSAGE_ORDER_DISCLOSURE,
            {"message_order": order},
            counted_bits=len(order),
        )

    def announce_key(self, step: str, actor: str, key: np.ndarray) -> None:
        self.transcript.log(
            step,
            actor,
            tr.KEY_ANNOUNCEMENT,
            {"key": bits_to_hex(key)},
            counted_bits=len(key),
        )

    def record_check(
        self, step: str, sender: str, receiver: str, index: int, error_rate: float
    ) -> bool:
        """Record one transmission's check and whether it passed; a failed check ends the run."""
        threshold = self.config.error_threshold
        passed = _check_passed(error_rate, threshold)
        self.checks.append(
            TransmissionCheck(index, step, sender, receiver, error_rate, passed)
        )
        if not passed:
            self.transcript.log(
                step,
                receiver,
                tr.ABORT,
                {"transmission": index, "error_rate": error_rate},
            )
            self.transcript.aborted = True
            reason = (
                f"decoy check failed on transmission {index} "
                f"(error rate {error_rate:.4f} > threshold {threshold})"
            )
            self.finish(dict.fromkeys(self.names), reason=reason)
        return passed


def check_adversary(config: ProtocolConfig, adversary: AdversaryModel) -> None:
    """Raise ValueError unless the adversary can act on this run.

    Intercept-z runs on every protocol and the insiders on two-party only.
    An external attack must tap a transmission the run makes: two-party
    sends 2 trains, and a ring of p parties p * p. Intercept-bell
    Bell-measures adjacent slots, so on copies of more than two qubits it
    chains copies into ever larger registers. A reordering receiver needs
    room for its disjoint swaps, and pinned swaps must be well formed.
    """
    parties = config.party_count
    if adversary.is_insider and parties != 2:
        raise ValueError(f"{adversary.kind.value} applies to the two-party protocol only")
    transmissions = 2 if parties == 2 else parties * parties
    if adversary.is_external and adversary.transmission_index >= transmissions:
        raise ValueError(
            f"transmission index {adversary.transmission_index} is past the last of "
            f"the {transmissions} transmissions of a {parties}-party run"
        )
    copy_qubits = _COPY_QUBITS[parties]
    if adversary.kind is AdversaryKind.INTERCEPT_RESEND_BELL and copy_qubits > 2:
        raise ValueError(
            f"intercept-bell on {copy_qubits}-qubit copies merges registers past "
            f"the {MAX_REGISTER_QUBITS}-qubit cap"
        )
    if adversary.kind is not AdversaryKind.DISHONEST_BOB_REORDER:
        return
    if adversary.swap_pairs is not None:  # raises for a malformed or overlapping pair
        dishonest_bob_reorder(range(config.key_bits), adversary.swap_pairs)
    else:
        check_swap_count(adversary.swap_count, config.key_bits)


# A transmission's disclosure staging, when each train's message order goes
# out: with its decoy pairs, right after its check, or not at all.
_WITH_DECOYS = "with-decoys"
_AFTER_CHECK = "after-check"
_WITHHELD = "withheld"


class _Stack:
    """A stack of *lanes*, one run per config, in lockstep through one store.

    The configs differ only in ``run_index``. Each lane is a ``_RunContext``
    that holds its keys and, once it ends, its result, and only the draws
    and the log run lane by lane, each lane's in the order a run of its own
    makes them; the store calls serve all lanes, and each bulk measurement
    takes the lanes' uniforms in lane order. ``active`` holds the lanes
    still running, one per row of the engine's arrays; a lane whose check
    fails records its abort and result and leaves. A stack of one lane
    allocates, draws and logs exactly as a run of its own.

    Each copy circulates its qubits at the ``travel`` positions, so a
    train carries those of n copies, then n/2 decoy pairs.
    """

    def __init__(
        self,
        protocol: str,
        parties: int,
        travel: Sequence[int],
        configs: Sequence[ProtocolConfig],
        adversary: AdversaryModel | None,
    ):
        adversary = adversary if adversary is not None else AdversaryModel()
        check_adversary(configs[0], adversary)
        self.names = PARTY_NAMES[:parties]
        self.n = configs[0].key_bits
        self.threshold = configs[0].error_threshold
        self.travel = list(travel)
        self.m = len(travel) * self.n  # message qubits per train
        self.adversary = adversary
        self.attacked = adversary.transmission_index if adversary.is_external else -1
        self.store = QubitStore()
        self.lanes = [_RunContext(protocol, config, self.names) for config in configs]
        self.active = list(self.lanes)
        self.transmissions = 0
        # Where each row of a stack of trains starts in the flat slots.
        self.row_starts = np.arange(len(configs))[:, None] * (self.m + self.n)

    def prepare(self, state: np.ndarray, step: str, parties: Sequence[int]) -> np.ndarray:
        """Each of ``parties``' n copies of ``state`` in every lane, and its key.

        One train holds every copy: ``copies[k, l]`` is the (n, width) ids of
        party ``parties[k]`` in lane l, and with one lane ``copies[k]`` holds
        the ids the k-th of back-to-back trains of n would have had.
        """
        width = _COPY_QUBITS[len(self.names)]
        copies = self.store.new_train(state, len(parties) * len(self.lanes) * self.n)
        for ctx in self.lanes:
            for j in parties:
                ctx.log_preparation(step, self.names[j], width * self.n, "message")
        self.draw_keys(*parties)
        return copies.reshape(len(parties), len(self.lanes), self.n, width)

    def draw_keys(self, *parties: int) -> None:
        """Each active lane's keys for ``parties``, lane by lane."""
        for ctx in self.active:
            for j in parties:
                ctx.draw_key(j)

    def uniforms(self, count: int) -> np.random.Generator | np.ndarray:
        """Each active lane's ``count`` uniforms, in lane order, for one bulk measurement.

        A lone lane passes its generator, which the measurement draws from
        itself: the same values, without the checks given uniforms get.
        """
        rngs = [ctx.rng for ctx in self.active]
        return rngs[0] if len(rngs) == 1 else np.concatenate([rng.random(count) for rng in rngs])

    def gather(self, slots: np.ndarray, orders: np.ndarray) -> np.ndarray:
        """``slots[row][orders[row]]`` for each row of a stack of trains, in one gather."""
        return slots.ravel()[orders + self.row_starts[: len(slots)]]

    def decode(self, copies: np.ndarray, returned: np.ndarray, basis: np.ndarray) -> np.ndarray:
        """Measure every row's (n, width) ``copies``, ``returned`` travel qubits in place.

        One ``measure_rows_in_basis`` call in ``basis``; returns the (rows, n)
        outcome indices.
        """
        groups = copies.copy()
        groups[..., self.travel] = returned.reshape(*copies.shape[:2], len(self.travel))
        outcomes = self.store.measure_rows_in_basis(
            groups.reshape(-1, copies.shape[-1]), basis, self.uniforms(self.n)
        )
        return outcomes.reshape(-1, self.n)

    def transmit(
        self,
        messages: np.ndarray,
        senders: Sequence[int],
        send_step: str,
        check_step: str,
        staging: str,
    ) -> tuple[np.ndarray, PermutationRecord, slice | list[int]]:
        """Send one hop's trains and check them; lanes whose check fails leave.

        ``messages[k]`` holds, row by row, the message ids of the train that
        party ``senders[k]`` sends on to the next party. The senders scramble
        together in runs (``_send_runs``); each lane logs its decoy
        preparation and send, and a transit attack on a transmission then
        rewrites every row's train at once, each with its lane's generator.
        One ``verify_decoys`` call checks every train, lane by lane, and each
        lane records its disclosures and checks in sender order, as
        ``staging`` says. Returns the hop's slots and record, stacked by
        sender with one row per lane that runs on, and those rows (every
        row: a full slice).
        """
        rngs = [ctx.rng for ctx in self.active]
        names, m, pairs = self.names, self.m, self.n // 2
        receivers = names[1:] + names[:1]
        rows, count, first = len(self.active), len(senders), self.transmissions
        sends = [(first + k, names[j], receivers[j]) for k, j in enumerate(senders)]
        total = m + 2 * pairs  # items per train
        most = max(1, _SCRAMBLE_ITEMS // (rows * total))
        slots = np.empty((count, rows, total), dtype=np.int64)  # by sender, then lane
        forward = np.empty_like(slots)
        for run in _send_runs(first, count, self.attacked, most):
            # One scramble for the run's senders, sender by sender; a transit
            # attack ends a run, so every allocation and draw keeps its order.
            at = slice(run.start, run.stop)
            slots[at], record = insert_decoys_and_permute(
                messages[at], self.store, rngs * len(run), pairs
            )
            forward[at] = record.forward
            for k in run:
                index, sender, receiver = sends[k]
                for ctx, row in zip(self.active, slots[k]):
                    ctx.log_preparation(send_step, sender, 2 * pairs, "decoy")
                    ctx.send(send_step, sender, receiver, row, index)
                if index == self.attacked:
                    attack_transit(self.adversary, self.store, slots[k], rngs)
        self.transmissions += count
        record = PermutationRecord.of(forward, m)
        # Keywords: bench/tracer.py reads a third positional argument as a disclosure.
        _, rates = verify_decoys(
            self.store,
            slots.swapaxes(0, 1).reshape(-1, total),  # lane by lane, as the uniforms come
            disclosed=record.decoy_pairs.swapaxes(0, 1).reshape(-1, pairs, 2),
            threshold=self.threshold,
            rng=self.uniforms(count * pairs),
        )
        with_decoys, after_check = staging == _WITH_DECOYS, staging == _AFTER_CHECK
        checks = list(zip(sends, record.message_order, record.decoy_pairs))  # per sender
        kept = []  # the rows whose lanes run on
        for row, ctx in enumerate(self.active):
            for k, ((index, sender, receiver), orders, decoys) in enumerate(checks):
                if with_decoys:
                    ctx.disclose_full(check_step, sender, orders[row], decoys[row])
                else:
                    ctx.disclose_decoys(check_step, sender, decoys[row])
                rate = rates[row * count + k]
                if not ctx.record_check(check_step, sender, receiver, index, rate):
                    break
                if after_check:
                    ctx.disclose_order(check_step, sender, orders[row])
            else:
                kept.append(row)
        if len(kept) == rows:
            return slots, record, slice(None)
        self.active = [self.active[row] for row in kept]
        return slots[:, kept], PermutationRecord.of(forward[:, kept], m), kept


def _send_runs(first: int, count: int, attacked: int, most: int) -> list[range]:
    """A hop's ``count`` senders, transmissions ``first`` on, in runs that scramble together.

    A run holds at most ``most`` senders and ends at the attacked transmission.
    """
    runs, start = [], 0
    for k in range(count):
        if k + 1 - start == most or first + k == attacked or k == count - 1:
            runs.append(range(start, k + 1))
            start = k + 1
    return runs


def run_two_party(
    config: ProtocolConfig, adversary: AdversaryModel | None = None
) -> ProtocolResult:
    """Initiator/responder exchange over n Bell pairs.

    The initiator keeps one half of every pair and circulates the other.
    The responder X-encodes his key on the returned halves; the initiator
    announces her key before the responder reveals the return train's
    message order, then Bell-measures pairwise to decode his.
    """
    return _run_alone(config, adversary, 2)


def _run_two_party(
    configs: Sequence[ProtocolConfig], adversary: AdversaryModel | None
) -> list[_RunContext]:
    """``run_two_party`` for a stack of lanes (see ``_Stack``); returns the ended lanes.

    The lanes share one train of all their Bell pairs, each transmission,
    one ``encode_key`` and one decode measurement; the early-measuring
    initiator's guesses and measurement serve every lane in one call, and
    the reordering receiver's swaps go lane by lane.
    """
    stack = _Stack(TWO_PARTY, 2, [1], configs, adversary)
    n, store, adv = stack.n, stack.store, stack.adversary
    alice, bob = stack.names

    # Step 1: pair preparation and the initiator's key.
    (pairs,) = stack.prepare(_PSI_PLUS, "step1", [0])

    # Steps 2-3: outbound train, full disclosure, responder's decoy check.
    outbound = pairs[None, ..., 1]  # the initiator's one train, as a stack of senders
    (slots,), record, kept = stack.transmit(outbound, [0], "step2", "step3", _WITH_DECOYS)
    if not stack.active:
        return stack.lanes
    pairs = pairs[kept]
    at_bob = stack.gather(slots, record.message_order[0])

    # Step 4: responder's key, X-encoding, return train.
    stack.draw_keys(1)
    key_masks = np.concatenate([ctx.keys[1] for ctx in stack.active])
    encode_key(store, at_bob.ravel(), key_masks, GroupElement.of(PauliLetter.X))
    # Step 5: decoy coordinates only; the message order stays secret.
    (slots,), record, kept = stack.transmit(at_bob[None], [1], "step4", "step5", _WITHHELD)
    if not stack.active:
        return stack.lanes
    pairs = pairs[kept]

    # Insider hook: an impatient initiator measures on guessed pairings now,
    # before committing to her announcement, and takes her key from them.
    guesses = reports = [None] * len(stack.active)
    if adv.kind is AdversaryKind.DISHONEST_ALICE_EARLY_MEASURE:
        guesses, reports = dishonest_alice_early_measure(
            store, pairs[..., 0], slots, PermutationRecord.of(record.forward[0], n),
            [ctx.rng for ctx in stack.active], np.array([ctx.keys[1] for ctx in stack.active]),
        )
    finishing = []  # per row: the initiator's early guess, the attack report, the reorder target
    orders = np.empty((len(stack.active), n), dtype=np.int64)  # each row's step-7 order
    for row, ctx in enumerate(stack.active):
        key_a, key_b = ctx.keys
        guess, report, target = guesses[row], reports[row], None

        # Step 6: the initiator commits; the responder can already finish.
        ctx.announce_key("step6", alice, key_a)

        # Step 7: message order (honest or reordered).
        order = record.message_order[0, row]
        if adv.kind is AdversaryKind.DISHONEST_BOB_REORDER:
            swap_pairs = adv.swap_pairs
            if swap_pairs is None:
                swap_pairs = choose_swap_pairs(n, adv.swap_count, ctx.rng)
            claimed = dishonest_bob_reorder(range(n), swap_pairs)  # the index each slot carries
            order = order[claimed]
            target = xor_bits(key_a, key_b[claimed])
            report = {
                "kind": "reorder",
                "swap_pairs": [list(p) for p in swap_pairs],
                "target_key": bits_to_hex(target),
            }
        ctx.disclose_order("step7", bob, order)
        orders[row] = order
        finishing.append((guess, report, target))

    # Step 8: pairwise decoding; each bit flip is one of the responder's key bits.
    if adv.kind is not AdversaryKind.DISHONEST_ALICE_EARLY_MEASURE:
        decoded = stack.decode(pairs, stack.gather(slots, orders), BELL_VECTORS)
    for row, ctx in enumerate(stack.active):
        key_a, key_b = ctx.keys
        guess, report, target = finishing[row]
        outcome_records: dict[str, tuple[str, ...]] = {}
        if guess is None:
            outcome_records[alice] = tuple(BELL_LABELS[decoded[row]].tolist())
            guess = BELL_X_BITS[decoded[row]]
        derived = {alice: xor_bits(key_a, guess), bob: xor_bits(key_a, key_b)}
        if target is not None:
            report["alice_key_matches_target"] = np.array_equal(derived[alice], target)
        ctx.finish(derived, outcome_records, report)
    return stack.lanes


@dataclass(frozen=True)
class _Ring:
    """What sets one ring protocol apart; ``_run_ring`` does everything else.

    Every party prepares a train of n copies of ``state`` and circulates
    the qubits at the ``travel`` positions of each copy. The stream makes
    one plain hop, then one hop per encoding round, in which its holder
    applies that round's word to every copy whose key bit is 1.
    ``hop_steps`` holds the (send, check) step labels of each hop, so the
    ring has ``len(hop_steps)`` parties. Back home, each party measures its
    copies, returned travel qubits in place, in the orthonormal ``basis``
    the encoding group generates; ``outcomes`` holds, per basis row, the
    outcome label and the XOR of the round bits that row carries.
    """

    protocol: str
    state: np.ndarray
    travel: tuple[int, ...]
    words: tuple[GroupElement, ...]
    prep_step: str
    hop_steps: tuple[tuple[str, str], ...]
    basis: np.ndarray
    outcomes: tuple[tuple[str, int], ...]


def _run_ring(
    ring: _Ring, configs: Sequence[ProtocolConfig], adversary: AdversaryModel | None
) -> list[_RunContext]:
    """Run one trial per config as a stack of lanes (see ``_Stack``); returns the ended lanes.

    The lanes share one train of all their copies, each hop's
    transmissions, one ``encode_key`` per round and one decode measurement
    per party.
    """
    parties = len(ring.hop_steps)
    stack = _Stack(ring.protocol, parties, ring.travel, configs, adversary)
    m, store, names = stack.m, stack.store, stack.names
    copies = stack.prepare(ring.state, ring.prep_step, range(parties))
    key_masks = np.array([ctx.keys for ctx in stack.active]).swapaxes(0, 1)  # by party, lane, bit
    # travels[s] holds stream s's travel qubits
    travels = copies[..., stack.travel].reshape(parties, len(configs), m)

    for hop, (send_step, check_step) in enumerate(ring.hop_steps):
        # Each hop runs in lockstep: all parties encode, then send, then
        # every receiver checks, each check recorded between its disclosures.
        held = [(j - hop) % parties for j in range(parties)]  # stream party j holds
        if hop:
            encode_key(store, travels[held].ravel(), key_masks.ravel(), ring.words[hop - 1])
        staging = _AFTER_CHECK if hop else _WITH_DECOYS
        slots, record, kept = stack.transmit(
            travels[held], range(parties), send_step, check_step, staging
        )
        if not stack.active:
            return stack.lanes
        copies, travels, key_masks = copies[:, kept], travels[:, kept], key_masks[:, kept]
        for j, orders in enumerate(record.message_order):
            travels[held[j]] = stack.gather(slots[j], orders)  # the restored trains
        del slots, record  # free this hop's trains before the next hop's are built

    # Decode each copy with its returned travel qubits in their positions.
    labels = np.array([label for label, _ in ring.outcomes], dtype=object)
    parity = np.array([bit for _, bit in ring.outcomes], dtype=np.uint8)
    outcomes = [stack.decode(copies[j], travels[j], ring.basis) for j in range(parties)]
    for row, ctx in enumerate(stack.active):
        derived: dict[str, np.ndarray | None] = {}
        outcome_records: dict[str, tuple[str, ...]] = {}
        for j, name in enumerate(names):
            outcome_records[name] = tuple(labels[outcomes[j][row]].tolist())
            derived[name] = xor_bits(ctx.keys[j], parity[outcomes[j][row]])
        ctx.finish(derived, outcome_records)
    return stack.lanes


_THREE_PARTY_RING = _Ring(
    protocol=THREE_PARTY,
    state=_PSI_PLUS,
    travel=(1,),
    words=(GroupElement.of(PauliLetter.X), GroupElement.of(PauliLetter.Z)),
    prep_step="step1",
    hop_steps=(("step2", "step3"), ("step4", "step5"), ("step6", "step7")),
    basis=BELL_VECTORS,
    # The outcome's bit flip carries the X round, its phase flip the Z round.
    outcomes=tuple((o.label, o.x_bit ^ o.z_bit) for o in BellOutcome),
)


def run_three_party(
    config: ProtocolConfig, adversary: AdversaryModel | None = None
) -> ProtocolResult:
    """Ring of three: each pair train makes three hops around the ring.

    Hop 1 moves the fresh halves onward; the next two hops carry an X-round
    and then a Z-round of key encoding. After the third hop every party
    Bell-measures its kept halves against its own returned train and reads
    both neighbors' bits off the outcome.
    """
    return _run_alone(config, adversary, 3)


def _checked_rounds(digits: str) -> str:
    """``digits`` if it is a string of four digits from 1..6; the one home of the round rule."""
    if not isinstance(digits, str) or len(digits) != 4 or any(c not in "123456" for c in digits):
        raise ValueError("five_party_rounds must be four digits from 1..6")
    return digits


def five_party_round_subgroups(digits: str):
    """Map a four-digit selection like '1234' onto the standard order-2 subgroups."""
    subs = standard_subgroups_g2()
    return tuple(subs[int(d) - 1] for d in _checked_rounds(digits))


@functools.lru_cache(maxsize=None)
def _five_party_ring(state: str, rounds: str) -> _Ring:
    """The five-party ring for one resource state and round selection.

    Each round's generator is the word its party encodes with; the decode
    basis is the state under each of the 16 products of the round
    subgroups, labelled by that product and the parity of its round bits.
    Built once per (state, rounds); a selection that fails the scheme
    validation raises InvalidSchemeError on every call.
    """
    subgroups = five_party_round_subgroups(rounds)
    vector = four_qubit_vector(FourQubitState(state))
    reference = StateRegister((0, 1, 2, 3), vector)
    if not validate_scheme(subgroups, reference, (0, 2)):
        raise InvalidSchemeError(
            f"round selection {rounds!r} on {state!r} "
            "does not form a decodable encoding scheme"
        )

    generators = tuple(sub.non_identity()[0] for sub in subgroups)
    parity: dict[GroupElement, int] = {}  # each product of generators: its round bits' parity
    for bits in itertools.product((0, 1), repeat=4):
        word = functools.reduce(mul, itertools.compress(generators, bits), GroupElement.identity(2))
        parity[word] = sum(bits) % 2
    elements = canonical_order(product_set(subgroups))
    basis = np.stack(
        [apply_element(reference, u, (0, 2)).amplitudes for u in elements]
    )
    return _Ring(  # read-only constants, shared through the cache
        protocol=FIVE_PARTY,
        state=constant_state(vector),
        travel=(0, 2),
        words=generators,
        prep_step="hop0",
        hop_steps=tuple((f"hop{h}", f"hop{h}") for h in range(1, 6)),
        basis=constant_basis(basis),
        outcomes=tuple((u.label, parity[u]) for u in elements),
    )


def run_five_party(
    config: ProtocolConfig, adversary: AdversaryModel | None = None
) -> ProtocolResult:
    """Ring of five over 4-qubit resource states.

    Each party keeps qubits 2 and 4 of every copy and circulates qubits 1
    and 3. The four downstream parties each encode one key bit per copy
    with their round's subgroup; after five hops the originator measures
    every copy, returned travel qubits included, in the orthogonal basis
    the product group generates and factors the composite operator back
    into the four bits. Intercept-z may attack any transmission; see
    ``check_adversary`` for the adversaries refused.
    """
    return _run_alone(config, adversary, 5)


def run_protocol(
    config: ProtocolConfig, adversary: AdversaryModel | None = None
) -> ProtocolResult:
    """Dispatch on party_count; ``check_adversary`` says which adversary each takes."""
    # The entries are looked up per call, so a patched one is the one that runs.
    run = {2: run_two_party, 3: run_three_party}.get(config.party_count, run_five_party)
    return run(config, adversary)


def _stack_runner(config: ProtocolConfig):
    """Validate ``config`` and return the engine that runs a stack of its trials.

    The engine takes the trials' configs and the adversary, and returns one
    lane per config, each with its ``result``.
    """
    config.validate()
    if config.party_count == 2:
        return _run_two_party
    if config.party_count == 3:
        return functools.partial(_run_ring, _THREE_PARTY_RING)
    ring = _five_party_ring(config.five_party_state, config.five_party_rounds)
    return functools.partial(_run_ring, ring)


def _run_alone(
    config: ProtocolConfig, adversary: AdversaryModel | None, party_count: int
) -> ProtocolResult:
    """``config`` as a stack of one lane, on the engine for ``party_count`` parties."""
    run_stack = _stack_runner(config)
    if config.party_count != party_count:
        protocol = {2: TWO_PARTY, 3: THREE_PARTY}.get(party_count, FIVE_PARTY)
        raise ValueError(f"{protocol} run requires party_count == {party_count}")
    return run_stack([config], adversary)[0].result


# A batch stacks at most this many key bits of trials, and at least one
# trial, per store.
_STACK_KEY_BITS = 1024


def check_trials(trials: int) -> None:
    """The one home of the trials rule: ``trials`` is an int, at least 1; else ValueError."""
    require_ints(trials=trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")


def run_batch(
    config: ProtocolConfig, adversary: AdversaryModel | None = None, trials: int = 1
) -> list[ProtocolResult]:
    """``trials`` runs of ``config``; trial i is ``replace(config, run_index=i)``.

    The trials run in stacks of at most ``_STACK_KEY_BITS`` key bits, as
    lanes of one store (see ``_Stack``); a transit attack acts on a stack
    at once. Each trial's ``to_dict()`` equals that of its own
    ``run_protocol(replace(config, run_index=i), adversary)`` call, except
    the digests of ``quantum-send`` events: those payloads are the only ones
    that hold qubit ids, and a stack numbers its ids across its lanes.
    """
    check_trials(trials)
    run_stack = _stack_runner(config)
    configs = [replace(config, run_index=i) for i in range(trials)]
    per_stack = max(1, _STACK_KEY_BITS // config.key_bits)
    results = []
    for lo in range(0, trials, per_stack):
        results.extend(lane.result for lane in run_stack(configs[lo : lo + per_stack], adversary))
    return results
