"""Turn-based engines for the two-, three- and five-party key agreements.

All three protocols share one transport idiom: the sender interleaves the
message qubits with decoy Bell pairs, scrambles the whole train under a
secret uniform permutation, and stages its disclosures so that the receiver
can always check the decoys for disturbance before any key-bearing order
becomes public. The two-party run additionally withholds the return train's
message order until the initiating party has committed to her key
announcement, so neither side can steer the final key. The three- and
five-party agreements are one ring construction and share one engine.

Keys combine by XOR: every party's private key flips exactly its own bits
of the shared key, and nobody learns anything before committing.

Every run owns its generator, keys, transcript and checks, and identical
(seed, run_index) pairs reproduce byte-identical transcripts. A two-party
run also owns its store. The ring engine runs a stack of *lanes*, one run
each, through one store in lockstep: every store call serves all lanes, and
only the draws and the log run lane by lane, in each run's own order. A
lone run is a stack of one lane; ``run_batch`` stacks a batch's ring trials
up to ``_STACK_KEY_BITS`` key bits at a time. A stack numbers its qubit ids
across its lanes, so only the digests of the ``quantum-send`` events, the
one payload that holds ids, differ from those of a run on its own.
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
    choose_swap_pairs,
    dishonest_alice_early_measure,
    dishonest_bob_reorder,
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
    EncodingScheme,
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
# 220 MB of resident memory, during its last hop's decoy checks.
MAX_KEY_BITS = 65_536


class InvalidSchemeError(ValueError):
    """A five-party round selection fails the encoding-scheme validation."""


def bits_to_hex(bits: Sequence[int] | np.ndarray) -> str:
    """Big-endian hex rendering, left-padded to whole nibbles; ``"0"`` for no bits.

    Raises ValueError on any integer other than 0 or 1.
    """
    if not isinstance(bits, np.ndarray):
        bits = np.frombuffer(bytes(bits), dtype=np.uint8)  # refuses ints outside 0..255
    n = bits.size
    if bits.ndim != 1 or np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must be a flat sequence of 0s and 1s")
    if not n:
        return "0"
    padded = np.zeros(-(-n // 8) * 8, dtype=np.uint8)  # left-padded to whole bytes
    padded[-n:] = bits
    text = np.packbits(padded).tobytes().hex()
    return text[len(text) - (n + 3) // 4 :]


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
        if self.key_bits <= 0 or self.key_bits % 2:
            raise ValueError("key_bits must be a positive even integer")
        if self.key_bits > MAX_KEY_BITS:
            raise ValueError(f"key_bits {self.key_bits} exceeds the limit of {MAX_KEY_BITS}")
        if self.party_count not in (2, 3, 5):
            raise ValueError("party_count must be 2, 3 or 5")
        if not 0.0 <= self.error_threshold <= 1.0:
            raise ValueError("error_threshold must lie in [0, 1]")
        if self.seed < 0 or self.run_index < 0:
            raise ValueError("seed and run_index must be nonnegative")
        if self.five_party_state not in FIVE_PARTY_STATES:
            names = " or ".join(map(repr, FIVE_PARTY_STATES))
            raise ValueError(f"five_party_state must be {names}")
        if len(self.five_party_rounds) != 4 or any(
            c not in "123456" for c in self.five_party_rounds
        ):
            raise ValueError("five_party_rounds must be four digits from 1..6")
        if self.fixed_keys is not None:
            if len(self.fixed_keys) != self.party_count:
                raise ValueError("fixed_keys must supply one key per party")
            for key in self.fixed_keys:
                bits = np.asarray(key, dtype=object)  # object: a ragged key reaches the check
                if bits.shape != (self.key_bits,) or not np.isin(bits, (0, 1)).all():
                    raise ValueError("each fixed key must be key_bits bits")
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
    rng: np.random.Generator,
    decoy_pair_count: int | None = None,
) -> tuple[np.ndarray, PermutationRecord]:
    """Append fresh decoy pairs and scramble everything uniformly.

    Returns the train in transit, an int64 id array by slot, and the
    sender's record; ``slots[record.message_order]`` restores the message.
    """
    message = np.asarray(message_qubits, dtype=np.int64)
    m = message.size
    if decoy_pair_count is None:
        if m % 2:
            raise ValueError("message qubit count must be even")
        decoy_pair_count = m // 2
    slots, (forward,) = _scramble(message.reshape(1, m), store, [rng], decoy_pair_count)
    return slots[0], PermutationRecord(forward, forward[:m], forward[m:].reshape(-1, 2))


def _scramble(
    messages: np.ndarray,
    store: QubitStore,
    rngs: Sequence[np.random.Generator],
    decoy_pair_count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``insert_decoys_and_permute`` for a stack of trains, row by row.

    ``messages`` holds one train's message ids per row. One allocation makes
    every row's decoy pairs, row after row, and ``rngs[i]`` draws row i's
    ``permutation``, in row order. Returns the (rows, items) slots in
    transit and the read-only ``forward`` maps.
    """
    rows = len(messages)
    decoys = store.new_train(_PSI_PLUS, rows * decoy_pair_count).reshape(rows, -1)
    items = np.concatenate([messages, decoys], axis=1)
    total = items.shape[1]
    taken = np.array([rng.permutation(total) for rng in rngs])  # the item each slot takes
    taken += np.arange(rows)[:, None] * total  # as flat indices: 1-D gathers are fast
    forward = np.empty_like(taken)
    forward.ravel()[taken] = np.arange(total)  # the inverse permutations
    forward.flags.writeable = False
    return items.ravel()[taken], forward


def verify_decoys(
    store: QubitStore,
    trains: Sequence[tuple[Sequence[int] | np.ndarray, Sequence[tuple[int, int]] | np.ndarray]],
    threshold: float,
    rng: np.random.Generator | np.ndarray,
) -> tuple[int, tuple[float, ...]]:
    """Bell-measure each train's disclosed decoy pairs; any non-psi+ outcome is an error.

    ``trains`` holds one ``(slots, decoy_pairs)`` per train. Every
    disclosure is checked whole before anything is measured or drawn: it
    must be nonempty, (m, 2)-shaped, and name m disjoint pairs of distinct
    slots in range. All pairs are then measured in one bulk call, train
    after train, so each train draws the uniforms a call of its own would
    draw in turn. ``rng`` may instead be those uniforms, one per pair.

    Returns ``(passes, error_rates)``: how many trains, from the first,
    pass (an error rate at most ``threshold``) before one fails, and each
    train's error rate.
    """
    slots = [np.asarray(train, dtype=np.int64) for train, _ in trains]
    pairs = [np.asarray(disclosed, dtype=np.int64) for _, disclosed in trains]
    named = _named_slots(slots, pairs)
    if named is None:  # refuse the first bad disclosure, as checking each in turn would
        for train, disclosed in zip(slots, pairs):
            _refuse_disclosure(train, disclosed)
    outcomes = store.measure_bell_rows(np.concatenate(slots)[named], rng)
    counts = np.array([len(disclosed) for disclosed in pairs])
    passed = np.add.reduceat(
        outcomes == BellOutcome.PSI_PLUS, np.cumsum(counts) - counts, dtype=np.int64
    )
    error_rates = ((counts - passed) / counts).tolist()
    passes = next((i for i, rate in enumerate(error_rates) if rate > threshold), len(counts))
    return passes, tuple(error_rates)


def _named_slots(slots: list[np.ndarray], pairs: list[np.ndarray]) -> np.ndarray | None:
    """Every disclosed pair as two indices into the trains laid end to end.

    Returns None unless every disclosure passes ``_refuse_disclosure``,
    which this decides for all trains at once.
    """
    if not all(p.size and p.ndim == 2 and p.shape[1] == 2 for p in pairs):
        return None
    sizes = np.array([train.size for train in slots])
    counts = [len(p) for p in pairs]
    named = np.concatenate(pairs)
    if named.min() < 0 or (named >= np.repeat(sizes, counts)[:, None]).any():
        return None
    named += np.repeat(np.cumsum(sizes) - sizes, counts)[:, None]
    return None if np.bincount(named.ravel()).max() > 1 else named


def _refuse_disclosure(slots: np.ndarray, pairs: np.ndarray) -> None:
    """Raise ValueError unless ``pairs`` names disjoint pairs of distinct slots of the train."""
    if not pairs.size:
        raise ValueError("decoy disclosure is empty")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"decoy disclosure must hold slot pairs, got shape {pairs.shape}")
    named = pairs.ravel()  # every slot must be in range and named once
    if named.min() < 0 or named.max() >= slots.size or np.bincount(named).max() > 1:
        bad = (pairs[:, 0] == pairs[:, 1]) | ((pairs < 0) | (pairs >= slots.size)).any(axis=1)
        if bad.any():
            a, b = pairs[bad.argmax()].tolist()
            raise ValueError(f"malformed decoy pair ({a}, {b})")
        raise ValueError("decoy pairs must be disjoint")


def encode_key(
    store: QubitStore,
    qubits: Sequence[int] | np.ndarray,
    key: Sequence[int] | np.ndarray,
    word: GroupElement,
) -> None:
    """Round encoding: ``word`` on each ``word.arity``-sized group whose key bit is 1."""
    arity = word.arity
    qubits = np.asarray(qubits, dtype=np.int64)
    if qubits.size != arity * len(key):
        raise ValueError("qubit list must hold one word-sized group per key bit")
    key_mask = np.asarray(key, dtype=bool)
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
        return "".join(_json_chunks(self.to_dict()))


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


def _json_chunks(value, indent: str = "") -> Iterator[str]:
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
            yield from _json_chunks(item, inner)
        head = ",\n" + inner
    yield close


class _AbortRun(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _RunContext:
    """Shared plumbing for one run: store, rng, transcript, attack wiring.

    A run owns its generator, transcript and checks; the store is its own
    unless a stack of runs shares one.
    """

    def __init__(
        self,
        protocol: str,
        config: ProtocolConfig,
        adversary: AdversaryModel,
        store: QubitStore | None = None,
    ):
        self.config = config
        self.adversary = adversary
        self.store = QubitStore() if store is None else store
        self.rng = config.make_rng()
        self.transcript = Transcript(protocol, config.key_bits)
        self.checks: list[TransmissionCheck] = []
        self._transmissions = 0
        self._attacked = adversary.transmission_index if adversary.is_external else -1

    def draw_key(self, party_index: int) -> np.ndarray:
        """The party's private key as a read-only uint8 array: its fixed key, or n drawn bits."""
        fixed = self.config.fixed_keys
        if fixed is not None:
            key = np.array(fixed[party_index], dtype=np.uint8)
        else:  # an int64 draw, cast: a uint8 draw would take other bits from the stream
            key = self.rng.integers(0, 2, size=self.config.key_bits).astype(np.uint8)
        key.flags.writeable = False
        return key

    def log_preparation(self, step: str, actor: str, qubit_count: int, purpose: str) -> None:
        self.transcript.log(
            step,
            actor,
            tr.STATE_PREPARATION,
            {"purpose": purpose, "qubit_count": qubit_count},
            qubit_count=qubit_count,
            purpose=purpose,
        )

    def send_scrambled(
        self,
        step: str,
        sender: str,
        receiver: str,
        message_qubits: np.ndarray,
        decoy_pair_count: int,
    ) -> tuple[np.ndarray, PermutationRecord, int]:
        """Decoy prep + scramble + send + ack; transit attack happens here."""
        self.log_preparation(step, sender, 2 * decoy_pair_count, "decoy")
        slots, record = insert_decoys_and_permute(
            message_qubits, self.store, self.rng, decoy_pair_count
        )
        return slots, record, self.send(step, sender, receiver, slots)

    def send(self, step: str, sender: str, receiver: str, slots: np.ndarray) -> int:
        """Send a scrambled train and ack it; a transit attack on it rewrites ``slots``.

        Returns the transmission's index.
        """
        index = self._transmissions
        self._transmissions += 1
        self.transcript.log(
            step,
            sender,
            tr.QUANTUM_SEND,
            {"to": receiver, "slots": slots, "transmission": index},
            qubit_count=len(slots),
        )
        if index == self._attacked:
            attack_transit(self.adversary, self.store, slots, self.rng)
        self.transcript.log(step, receiver, tr.ACK, {"transmission": index})
        return index

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

    def measure_decoys(
        self, trains: Sequence[tuple[np.ndarray, PermutationRecord]]
    ) -> list[tuple[float, bool]]:
        """Receiver-side disturbance estimates: (error rate, passed) per (slots, record).

        One ``verify_decoys`` call measures every train; a train after the
        first failing one reads as failed, since the run never gets there.
        """
        # Keywords: bench/tracer.py reads a third positional argument as a disclosure.
        passes, error_rates = verify_decoys(
            self.store,
            [(slots, record.decoy_pairs) for slots, record in trains],
            threshold=self.config.error_threshold,
            rng=self.rng,
        )
        return [(rate, i < passes) for i, rate in enumerate(error_rates)]

    def record_check(
        self,
        step: str,
        sender: str,
        receiver: str,
        index: int,
        error_rate: float,
        passed: bool,
    ) -> None:
        """Record one transmission's check; a failure aborts the run."""
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
            raise _AbortRun(
                f"decoy check failed on transmission {index} "
                f"(error rate {error_rate:.4f} > threshold {self.config.error_threshold})"
            )


def _normalize_adversary(adversary: AdversaryModel | None) -> AdversaryModel:
    return adversary if adversary is not None else AdversaryModel.none()


def check_adversary(config: ProtocolConfig, adversary: AdversaryModel) -> None:
    """Raise ValueError unless the adversary can act on this run.

    Intercept-z runs on every protocol and the insiders on two-party only.
    Intercept-bell Bell-measures adjacent slots, so on copies of more than
    two qubits it chains copies into ever larger registers. A reordering
    receiver with no pinned swaps needs room for its disjoint swaps.
    """
    if adversary.is_insider and config.party_count != 2:
        raise ValueError(f"{adversary.kind.value} applies to the two-party protocol only")
    copy_qubits = _COPY_QUBITS[config.party_count]
    if adversary.kind is AdversaryKind.INTERCEPT_RESEND_BELL and copy_qubits > 2:
        raise ValueError(
            f"intercept-bell on {copy_qubits}-qubit copies merges registers past "
            f"the {MAX_REGISTER_QUBITS}-qubit cap"
        )
    if (
        adversary.kind is AdversaryKind.DISHONEST_BOB_REORDER
        and adversary.swap_pairs is None
        and 2 * adversary.swap_count > config.key_bits
    ):
        raise ValueError("swap count too large for the key length")


def run_two_party(
    config: ProtocolConfig, adversary: AdversaryModel | None = None
) -> ProtocolResult:
    """Initiator/responder exchange over n Bell pairs.

    The initiator keeps one half of every pair and circulates the other.
    The responder X-encodes his key on the returned halves; the initiator
    announces her key before the responder reveals the return train's
    message order, then Bell-measures pairwise to decode his.
    """
    config.validate()
    if config.party_count != 2:
        raise ValueError("two-party run requires party_count == 2")
    adv = _normalize_adversary(adversary)
    check_adversary(config, adv)
    n = config.key_bits
    names = PARTY_NAMES[:2]
    alice, bob = names
    ctx = _RunContext(TWO_PARTY, config, adv)
    store, rng, t = ctx.store, ctx.rng, ctx.transcript

    private: dict[str, np.ndarray] = {}
    derived: dict[str, np.ndarray | None] = {alice: None, bob: None}
    outcome_records: dict[str, tuple[str, ...]] = {}
    attack_report: dict | None = None

    try:
        # Step 1: pair preparation and the initiator's key.
        pairs = store.new_train(_PSI_PLUS, n)
        ctx.log_preparation("step1", alice, 2 * n, "message")
        kept, travel = pairs[:, 0], pairs[:, 1]
        key_a = ctx.draw_key(0)
        private[alice] = key_a

        # Steps 2-3: outbound train, full disclosure, responder's decoy check.
        slots1, rec1, idx1 = ctx.send_scrambled("step2", alice, bob, travel, n // 2)
        ctx.disclose_full("step3", alice, rec1.message_order, rec1.decoy_pairs)
        (check1,) = ctx.measure_decoys([(slots1, rec1)])
        ctx.record_check("step3", alice, bob, idx1, *check1)
        at_bob = slots1[rec1.message_order]

        # Step 4: responder's key, X-encoding, return train.
        key_b = ctx.draw_key(1)
        private[bob] = key_b
        encode_key(store, at_bob, key_b, GroupElement.of(PauliLetter.X))
        slots2, rec2, idx2 = ctx.send_scrambled("step4", bob, alice, at_bob, n // 2)

        # Step 5: decoy coordinates only; the message order stays secret.
        ctx.disclose_decoys("step5", bob, rec2.decoy_pairs)
        (check2,) = ctx.measure_decoys([(slots2, rec2)])
        ctx.record_check("step5", bob, alice, idx2, *check2)

        # Insider hook: an impatient initiator measures on guessed pairings
        # now, before committing to her announcement, and takes her key from them.
        if adv.kind is AdversaryKind.DISHONEST_ALICE_EARLY_MEASURE:
            guess, attack_report = dishonest_alice_early_measure(
                store, kept, slots2, rec2, rng, key_b
            )
            derived[alice] = xor_bits(key_a, guess)

        # Step 6: the initiator commits; the responder can already finish.
        ctx.announce_key("step6", alice, key_a)
        derived[bob] = xor_bits(key_a, key_b)

        # Step 7: message order (honest or reordered), then pairwise decoding.
        order = rec2.message_order
        if adv.kind is AdversaryKind.DISHONEST_BOB_REORDER:
            swap_pairs = adv.swap_pairs
            if swap_pairs is None:
                swap_pairs = choose_swap_pairs(n, adv.swap_count, rng)
            claimed = dishonest_bob_reorder(range(n), swap_pairs)  # the index each slot carries
            order = rec2.message_order[claimed]
            target = xor_bits(key_a, key_b[claimed])
            attack_report = {
                "kind": "reorder",
                "swap_pairs": [list(p) for p in swap_pairs],
                "target_key": bits_to_hex(target),
            }
        ctx.disclose_order("step7", bob, order)

        if derived[alice] is None:  # Step 8: each bit flip is one of the responder's key bits.
            pairs = np.column_stack([kept, slots2[order]])
            rows = store.measure_rows_in_basis(pairs, BELL_VECTORS, rng)
            outcome_records[alice] = tuple(BELL_LABELS[rows].tolist())
            derived[alice] = xor_bits(key_a, BELL_X_BITS[rows])

        if adv.kind is AdversaryKind.DISHONEST_BOB_REORDER:
            attack_report["alice_key_matches_target"] = np.array_equal(derived[alice], target)

        counts = count_from_transcript(t)
        return ProtocolResult(
            TWO_PARTY, n, names, private, derived, False, None, ctx.checks,
            counts, t, outcome_records, attack_report,
        )
    except _AbortRun as abort:
        return ProtocolResult(
            TWO_PARTY, n, names, private,
            {name: None for name in names}, True, abort.reason, ctx.checks,
            None, t, outcome_records, attack_report,
        )


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
) -> list[ProtocolResult]:
    """Run one trial per config in lockstep through one store; one result each.

    The configs differ only in ``run_index``, and each is a *lane* with its
    own generator, keys, transcript and checks. The lanes share every store
    call: one train of all their copies, one decoy allocation and scramble
    per run of a hop's senders (``_send_runs``), one ``encode_key`` per
    round, one ``verify_decoys`` per hop and one decode measurement per
    party. Only the draws and the log run lane by lane, each lane's in the
    order a run of its own makes them, and each bulk measurement takes the
    lanes' uniforms in lane order. A lane whose check fails records it,
    aborts and leaves the stack. A transit attack acts on its lane's train
    with that lane's generator. A stack of one lane allocates, draws and
    logs exactly as a run of its own.
    """
    adv = _normalize_adversary(adversary)
    check_adversary(configs[0], adv)
    parties = len(ring.hop_steps)
    n = configs[0].key_bits
    threshold = configs[0].error_threshold
    names = PARTY_NAMES[:parties]
    receivers = names[1:] + names[:1]
    width = _COPY_QUBITS[parties]
    travel = list(ring.travel)
    m = n * len(travel)  # message qubits per train
    pairs = n // 2  # decoy pairs per train
    attacked = adv.transmission_index if adv.is_external else -1
    store = QubitStore()
    lanes = [_RunContext(ring.protocol, config, adv, store) for config in configs]
    results: list[ProtocolResult] = [None] * len(lanes)

    # One train holds every lane's copies: copies[j, l] is party j's (n, width)
    # ids in lane l. With one lane, copies[j] holds the ids the j-th of
    # back-to-back trains of n would have had.
    copies = store.new_train(ring.state, parties * len(lanes) * n)
    copies = copies.reshape(parties, len(lanes), n, width)
    keys = []
    for ctx in lanes:
        for name in names:
            ctx.log_preparation(ring.prep_step, name, width * n, "message")
        keys.append([ctx.draw_key(j) for j in range(parties)])
    key_masks = np.array(keys).transpose(1, 0, 2)  # by party, lane and bit
    travels = copies[..., travel].reshape(parties, len(lanes), m)  # stream s's travel qubits
    active = list(range(len(lanes)))  # the lane on each row of copies, travels and key_masks

    for hop, (send_step, check_step) in enumerate(ring.hop_steps):
        # Each hop runs in lockstep: all parties encode, then send, then
        # every receiver checks, each check recorded between its disclosures.
        held = [(j - hop) % parties for j in range(parties)]  # stream party j holds
        if hop:
            encode_key(store, travels[held].ravel(), key_masks.ravel(), ring.words[hop - 1])
        rngs = [lanes[lane].rng for lane in active]
        sent = []  # per party: each lane's slots, message orders and decoy pairs
        most = max(1, _SCRAMBLE_ITEMS // (len(active) * (m + 2 * pairs)))
        for senders in _send_runs(hop, parties, attacked, most):
            # One scramble for the run's parties, party by party; a transit
            # attack ends a run, so every allocation and draw keeps its order.
            messages = travels[[held[j] for j in senders]].reshape(-1, m)
            slots, forward = _scramble(messages, store, rngs * len(senders), pairs)
            slots = slots.reshape(len(senders), len(active), -1)
            forward = forward.reshape(len(senders), len(active), -1)
            for k, j in enumerate(senders):
                for row, lane in enumerate(active):
                    ctx = lanes[lane]
                    ctx.log_preparation(send_step, names[j], 2 * pairs, "decoy")
                    ctx.send(send_step, names[j], receivers[j], slots[k, row])
                decoys = forward[k, :, m:].reshape(len(active), pairs, 2)
                sent.append((slots[k], forward[k, :, :m], decoys))
        # Keywords: bench/tracer.py reads a third positional argument as a disclosure.
        _, rates = verify_decoys(
            store,
            [(slots[row], decoys[row])
             for row in range(len(active)) for slots, _, decoys in sent],
            threshold=threshold,
            rng=np.concatenate([rng.random(parties * pairs) for rng in rngs]),
        )
        kept = []  # the rows whose lanes run on
        for row, lane in enumerate(active):
            ctx = lanes[lane]
            try:
                for j, (_, orders, decoys) in enumerate(sent):
                    rate = rates[row * parties + j]
                    # The plain hop carries no key yet, so its order may go out
                    # with the decoys; a key-bearing order waits for the check.
                    if hop:
                        ctx.disclose_decoys(check_step, names[j], decoys[row])
                    else:
                        ctx.disclose_full(check_step, names[j], orders[row], decoys[row])
                    ctx.record_check(
                        check_step, names[j], receivers[j], hop * parties + j, rate,
                        rate <= threshold,
                    )
                    if hop:
                        ctx.disclose_order(check_step, names[j], orders[row])
            except _AbortRun as abort:
                results[lane] = ProtocolResult(
                    ring.protocol, n, names, dict(zip(names, keys[lane])),
                    {name: None for name in names}, True, abort.reason, ctx.checks,
                    None, ctx.transcript, {}, None,
                )
                continue
            kept.append(row)
        row_starts = np.arange(len(active))[:, None] * (m + 2 * pairs)
        for j, (slots, orders, _) in enumerate(sent):
            travels[held[j]] = slots.ravel()[orders + row_starts]  # the restored trains
        del sent  # free this hop's trains before the next hop's are built
        if not kept:
            return results
        if len(kept) < len(active):  # aborted lanes leave the stack
            copies, travels, key_masks = copies[:, kept], travels[:, kept], key_masks[:, kept]
            active = [active[row] for row in kept]

    # Decode each copy with its returned travel qubits in their positions.
    labels = np.array([label for label, _ in ring.outcomes], dtype=object)
    parity = np.array([bit for _, bit in ring.outcomes], dtype=np.uint8)
    outcomes = []
    for j in range(parties):
        groups = copies[j].copy()
        groups[..., travel] = travels[j].reshape(len(active), n, len(travel))
        uniforms = np.concatenate([lanes[lane].rng.random(n) for lane in active])
        rows = store.measure_rows_in_basis(groups.reshape(-1, width), ring.basis, uniforms)
        outcomes.append(rows.reshape(len(active), n))
    for row, lane in enumerate(active):
        ctx = lanes[lane]
        derived: dict[str, np.ndarray | None] = {}
        outcome_records: dict[str, tuple[str, ...]] = {}
        for j, name in enumerate(names):
            outcome_records[name] = tuple(labels[outcomes[j][row]].tolist())
            derived[name] = xor_bits(keys[lane][j], parity[outcomes[j][row]])
        results[lane] = ProtocolResult(
            ring.protocol, n, names, dict(zip(names, keys[lane])), derived, False, None,
            ctx.checks, count_from_transcript(ctx.transcript), ctx.transcript,
            outcome_records, None,
        )
    return results


def _send_runs(hop: int, parties: int, attacked: int, most: int) -> list[range]:
    """The senders of a hop in runs that scramble together.

    A run holds at most ``most`` senders and ends at the attacked transmission.
    """
    runs, start = [], 0
    for j in range(parties):
        if j + 1 - start == most or hop * parties + j == attacked or j == parties - 1:
            runs.append(range(start, j + 1))
            start = j + 1
    return runs


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
    config.validate()
    if config.party_count != 3:
        raise ValueError("three-party run requires party_count == 3")
    return _run_ring(_THREE_PARTY_RING, [config], adversary)[0]


def five_party_round_subgroups(digits: str):
    """Map a four-digit selection like '1234' onto the standard order-2 subgroups."""
    subs = standard_subgroups_g2()
    return tuple(subs[int(d) - 1] for d in digits)


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
    scheme = EncodingScheme(
        total_qubits=4, travel_qubits=2, bits_per_round=1, rounds=4,
        round_subgroups=subgroups,
    )
    vector = four_qubit_vector(FourQubitState(state))
    reference = StateRegister((0, 1, 2, 3), vector)
    if not validate_scheme(scheme, reference, (0, 2)):
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
    config.validate()
    if config.party_count != 5:
        raise ValueError("five-party run requires party_count == 5")
    ring = _five_party_ring(config.five_party_state, config.five_party_rounds)
    return _run_ring(ring, [config], adversary)[0]


def run_protocol(
    config: ProtocolConfig, adversary: AdversaryModel | None = None
) -> ProtocolResult:
    """Dispatch on party_count; ``check_adversary`` says which adversary each takes."""
    if config.party_count == 2:
        return run_two_party(config, adversary)
    if config.party_count == 3:
        return run_three_party(config, adversary)
    return run_five_party(config, adversary)


# A batch stacks at most this many key bits of ring trials, and at least
# one trial, per store.
_STACK_KEY_BITS = 1024


def run_batch(
    config: ProtocolConfig, adversary: AdversaryModel | None = None, trials: int = 1
) -> list[ProtocolResult]:
    """``trials`` runs of ``config``; trial i is ``replace(config, run_index=i)``.

    Two-party trials run one by one. Three- and five-party trials run in
    stacks of at most ``_STACK_KEY_BITS`` key bits, as lanes of one store
    (see ``_run_ring``). Each trial's ``to_dict()`` equals that of its own
    ``run_protocol(replace(config, run_index=i), adversary)`` call, except
    the digests of ``quantum-send`` events: those payloads are the only ones
    that hold qubit ids, and a stack numbers its ids across its lanes.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    config.validate()
    configs = [replace(config, run_index=i) for i in range(trials)]
    if config.party_count == 2:
        return [run_two_party(c, adversary) for c in configs]
    if config.party_count == 3:
        ring = _THREE_PARTY_RING
    else:
        ring = _five_party_ring(config.five_party_state, config.five_party_rounds)
    per_stack = max(1, _STACK_KEY_BITS // config.key_bits)
    results = []
    for lo in range(0, trials, per_stack):
        results.extend(_run_ring(ring, configs[lo : lo + per_stack], adversary))
    return results
