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

Engines are strictly sequential; parallelize at the run level only. Every
run owns its store, generator and transcript, and identical (seed,
run_index) pairs reproduce byte-identical transcripts.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
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
    decoy qubits pair by pair); ``inverse`` undoes it. ``message_order[i]``
    is the slot of message qubit i, and ``decoy_pairs`` is an (m, 2) array
    holding the slot pair of each decoy Bell pair.
    """

    forward: np.ndarray
    inverse: np.ndarray
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
    decoys = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], decoy_pair_count)
    items = np.concatenate([message, decoys.reshape(-1)])
    total = items.size
    inverse = rng.permutation(total)
    forward = np.empty_like(inverse)
    forward[inverse] = np.arange(total)  # the inverse permutation
    inverse.flags.writeable = forward.flags.writeable = False
    record = PermutationRecord(
        forward=forward,
        inverse=inverse,
        message_order=forward[:m],
        decoy_pairs=forward[m:].reshape(-1, 2),
    )
    return items[inverse], record


def verify_decoys(
    store: QubitStore,
    trains: Sequence[tuple[Sequence[int] | np.ndarray, Sequence[tuple[int, int]] | np.ndarray]],
    threshold: float,
    rng: np.random.Generator,
) -> tuple[int, tuple[float, ...]]:
    """Bell-measure each train's disclosed decoy pairs; any non-psi+ outcome is an error.

    ``trains`` holds one ``(slots, decoy_pairs)`` per train. Every
    disclosure is checked whole before anything is measured or drawn: it
    must be nonempty, (m, 2)-shaped, and name m disjoint pairs of distinct
    slots in range. All pairs are then measured in one bulk call, train
    after train, so each train draws the uniforms a call of its own would
    draw in turn.

    Returns ``(passes, error_rates)``: how many trains, from the first,
    pass (an error rate at most ``threshold``) before one fails, and each
    train's error rate.
    """
    groups = []
    for slots, decoy_pairs in trains:
        slots = np.asarray(slots, dtype=np.int64)
        pairs = np.asarray(decoy_pairs, dtype=np.int64)
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
        groups.append(slots[pairs])
    counts = [len(g) for g in groups]
    groups = np.concatenate(groups)  # one array; the per-train ones go before measuring
    outcomes = store.measure_bell_rows(groups, rng)
    error_rates = []
    end = 0
    for count in counts:
        start, end = end, end + count
        passed = int(np.count_nonzero(outcomes[start:end] == BellOutcome.PSI_PLUS))
        error_rates.append((count - passed) / count)
    passes = next((i for i, rate in enumerate(error_rates) if rate > threshold), len(counts))
    return passes, tuple(error_rates)


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
    """Shared plumbing for one run: store, rng, transcript, attack wiring."""

    def __init__(
        self,
        protocol: str,
        config: ProtocolConfig,
        adversary: AdversaryModel,
    ):
        self.config = config
        self.adversary = adversary
        self.store = QubitStore()
        self.rng = config.make_rng()
        self.transcript = Transcript(protocol, config.key_bits)
        self.checks: list[TransmissionCheck] = []
        self._transmissions = 0

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
        index = self._transmissions
        self._transmissions += 1
        self.transcript.log(
            step,
            sender,
            tr.QUANTUM_SEND,
            {"to": receiver, "slots": slots, "transmission": index},
            qubit_count=len(slots),
        )
        if self.adversary.is_external and self.adversary.transmission_index == index:
            attack_transit(self.adversary, self.store, slots, self.rng)
        self.transcript.log(step, receiver, tr.ACK, {"transmission": index})
        return slots, record, index

    def disclose_full(self, step: str, actor: str, record: PermutationRecord) -> None:
        self.transcript.log(
            step,
            actor,
            tr.FULL_PERMUTATION_DISCLOSURE,
            {"message_order": record.message_order, "decoy_pairs": record.decoy_pairs},
            counted_bits=len(record.message_order),
        )

    def disclose_decoys(self, step: str, actor: str, record: PermutationRecord) -> None:
        self.transcript.log(
            step,
            actor,
            tr.DECOY_POSITIONS_DISCLOSURE,
            {"decoy_pairs": record.decoy_pairs},
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
        pairs = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], n)
        ctx.log_preparation("step1", alice, 2 * n, "message")
        kept, travel = pairs[:, 0], pairs[:, 1]
        key_a = ctx.draw_key(0)
        private[alice] = key_a

        # Steps 2-3: outbound train, full disclosure, responder's decoy check.
        slots1, rec1, idx1 = ctx.send_scrambled("step2", alice, bob, travel, n // 2)
        ctx.disclose_full("step3", alice, rec1)
        (check1,) = ctx.measure_decoys([(slots1, rec1)])
        ctx.record_check("step3", alice, bob, idx1, *check1)
        at_bob = slots1[rec1.message_order]

        # Step 4: responder's key, X-encoding, return train.
        key_b = ctx.draw_key(1)
        private[bob] = key_b
        encode_key(store, at_bob, key_b, GroupElement.of(PauliLetter.X))
        slots2, rec2, idx2 = ctx.send_scrambled("step4", bob, alice, at_bob, n // 2)

        # Step 5: decoy coordinates only; the message order stays secret.
        ctx.disclose_decoys("step5", bob, rec2)
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
    ring: _Ring, config: ProtocolConfig, adversary: AdversaryModel | None
) -> ProtocolResult:
    adv = _normalize_adversary(adversary)
    parties = len(ring.hop_steps)
    check_adversary(config, adv)
    n = config.key_bits
    names = PARTY_NAMES[:parties]
    ctx = _RunContext(ring.protocol, config, adv)
    store, rng, t = ctx.store, ctx.rng, ctx.transcript
    width = _COPY_QUBITS[parties]

    travel = list(ring.travel)
    # One train holds every party's copies: copies[j] is party j's (n, width)
    # ids, the ids the j-th of back-to-back trains of n would have had.
    copies = store.new_train(ring.state, parties * n).reshape(parties, n, width)
    for j in range(parties):
        ctx.log_preparation(ring.prep_step, names[j], width * n, "message")
    travels = list(copies[:, :, travel].reshape(parties, -1))  # stream s's travel qubits
    keys = [ctx.draw_key(j) for j in range(parties)]
    private = dict(zip(names, keys))
    key_mask = np.concatenate(keys)  # party by party

    try:
        # Each hop runs in lockstep: all parties encode, then send, then
        # every receiver checks, each check recorded between its disclosures.
        for hop, (send_step, check_step) in enumerate(ring.hop_steps):
            held = [(j - hop) % parties for j in range(parties)]  # stream party j holds
            if hop:
                held_travel = np.concatenate([travels[s] for s in held])
                encode_key(store, held_travel, key_mask, ring.words[hop - 1])
            sent = [
                ctx.send_scrambled(
                    send_step, names[j], names[(j + 1) % parties], travels[held[j]], n // 2
                )
                for j in range(parties)
            ]
            checks = ctx.measure_decoys([(slots, rec) for slots, rec, _ in sent])
            for j, ((slots, rec, idx), check) in enumerate(zip(sent, checks)):
                # The plain hop carries no key yet, so its order may go out
                # with the decoys; a key-bearing order waits for the check.
                if hop:
                    ctx.disclose_decoys(check_step, names[j], rec)
                else:
                    ctx.disclose_full(check_step, names[j], rec)
                ctx.record_check(check_step, names[j], names[(j + 1) % parties], idx, *check)
                if hop:
                    ctx.disclose_order(check_step, names[j], rec.message_order)
                travels[held[j]] = slots[rec.message_order]
            del sent  # free this hop's trains before the next hop's are built

        # Decode each copy with its returned travel qubits in their positions.
        derived: dict[str, np.ndarray | None] = {}
        outcome_records: dict[str, tuple[str, ...]] = {}
        labels = np.array([label for label, _ in ring.outcomes], dtype=object)
        parity = np.array([bit for _, bit in ring.outcomes], dtype=np.uint8)
        for j in range(parties):
            groups = copies[j].copy()
            groups[:, travel] = travels[j].reshape(n, len(travel))
            rows = store.measure_rows_in_basis(groups, ring.basis, rng)
            outcome_records[names[j]] = tuple(labels[rows].tolist())
            derived[names[j]] = xor_bits(keys[j], parity[rows])

        counts = count_from_transcript(t)
        return ProtocolResult(
            ring.protocol, n, names, private, derived, False, None, ctx.checks,
            counts, t, outcome_records, None,
        )
    except _AbortRun as abort:
        return ProtocolResult(
            ring.protocol, n, names, private,
            {name: None for name in names}, True, abort.reason, ctx.checks,
            None, t, {}, None,
        )


_THREE_PARTY_RING = _Ring(
    protocol=THREE_PARTY,
    state=BELL_VECTORS[BellOutcome.PSI_PLUS],
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
    return _run_ring(_THREE_PARTY_RING, config, adversary)


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
    vector.flags.writeable = basis.flags.writeable = False  # shared through the cache
    return _Ring(
        protocol=FIVE_PARTY,
        state=vector,
        travel=(0, 2),
        words=generators,
        prep_step="hop0",
        hop_steps=tuple((f"hop{h}", f"hop{h}") for h in range(1, 6)),
        basis=basis,
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
    return _run_ring(ring, config, adversary)


def run_protocol(
    config: ProtocolConfig, adversary: AdversaryModel | None = None
) -> ProtocolResult:
    """Dispatch on party_count; ``check_adversary`` says which adversary each takes."""
    if config.party_count == 2:
        return run_two_party(config, adversary)
    if config.party_count == 3:
        return run_three_party(config, adversary)
    return run_five_party(config, adversary)
