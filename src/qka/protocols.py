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
from typing import Callable, Sequence

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
    product_set,
    standard_subgroups_g2,
    validate_scheme,
)
from .registers import (
    BELL_VECTORS,
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

# Qubits per resource copy, by party count: Bell pairs, or a 4-qubit state.
_COPY_QUBITS = {2: 2, 3: 2, 5: 4}

# The largest key a run accepts; a five-party run at this size peaks near
# 230 MB of resident memory.
MAX_KEY_BITS = 65_536


class InvalidSchemeError(ValueError):
    """A five-party round selection fails the encoding-scheme validation."""


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def bits_to_hex(bits: Sequence[int]) -> str:
    """Big-endian hex rendering, left-padded to whole nibbles."""
    value = int(bytes(map(int, bits)).translate(_BIT_DIGITS), 2) if len(bits) else 0
    width = (len(bits) + 3) // 4
    return f"{value:0{width}x}"


def xor_bits(*keys: Sequence[int]) -> tuple[int, ...]:
    return tuple(np.bitwise_xor.reduce(np.array(keys, dtype=np.int64), axis=0).tolist())


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything a run needs; n must be even (decoys ship as n/2 pairs)."""

    key_bits: int
    party_count: int = 2
    error_threshold: float = 0.0
    seed: int = 0
    run_index: int = 0
    five_party_state: str = "omega"
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
        if self.five_party_state not in ("omega", "cluster"):
            raise ValueError("five_party_state must be 'omega' or 'cluster'")
        if len(self.five_party_rounds) != 4 or any(
            c not in "123456" for c in self.five_party_rounds
        ):
            raise ValueError("five_party_rounds must be four digits from 1..6")
        if self.fixed_keys is not None:
            if len(self.fixed_keys) != self.party_count:
                raise ValueError("fixed_keys must supply one key per party")
            for key in self.fixed_keys:
                if len(key) != self.key_bits or any(b not in (0, 1) for b in key):
                    raise ValueError("each fixed key must be key_bits bits")
        if self.party_count == 5:  # raises InvalidSchemeError for an undecodable selection
            _five_party_decoder(self.five_party_state, self.five_party_rounds)

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
    slots: Sequence[int] | np.ndarray,
    decoy_pairs: Sequence[tuple[int, int]] | np.ndarray,
    threshold: float,
    rng: np.random.Generator,
) -> tuple[float, bool]:
    """Bell-measure the disclosed decoy pairs; any non-psi+ outcome is an error.

    The disclosure is checked whole before anything is measured or drawn:
    it must be nonempty, (m, 2)-shaped, and name m disjoint pairs of
    distinct slots in range.
    """
    slots = np.asarray(slots, dtype=np.int64)
    pairs = np.asarray(decoy_pairs, dtype=np.int64)
    if not pairs.size:
        raise ValueError("decoy disclosure is empty")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"decoy disclosure must hold slot pairs, got shape {pairs.shape}")
    bad = (pairs[:, 0] == pairs[:, 1]) | ((pairs < 0) | (pairs >= slots.size)).any(axis=1)
    if bad.any():
        a, b = pairs[bad.argmax()].tolist()
        raise ValueError(f"malformed decoy pair ({a}, {b})")
    if np.bincount(pairs.ravel()).max() > 1:
        raise ValueError("decoy pairs must be disjoint")
    outcomes = store.measure_bell_rows(slots[pairs], rng)
    error_rate = (len(outcomes) - outcomes.count(BellOutcome.PSI_PLUS)) / len(pairs)
    return error_rate, error_rate <= threshold


def encode_key(
    store: QubitStore,
    qubits: Sequence[int] | np.ndarray,
    key: Sequence[int],
    word: GroupElement,
) -> None:
    """Round encoding: ``word`` on each ``word.arity``-sized group whose key bit is 1."""
    arity = word.arity
    qubits = np.asarray(qubits, dtype=np.int64)
    if qubits.size != arity * len(key):
        raise ValueError("qubit list must hold one word-sized group per key bit")
    key_mask = np.asarray(key, dtype=bool)
    store.apply_pauli_groups(word, qubits.reshape(-1, arity)[key_mask])


def decode_bell_bits(outcome: BellOutcome) -> tuple[int, int]:
    """Map a Bell outcome on an initial psi+ pair to (x-round bit, z-round bit)."""
    return outcome.x_bit, outcome.z_bit


@dataclass
class ProtocolResult:
    protocol: str
    key_bits: int
    party_names: tuple[str, ...]
    private_keys: dict[str, tuple[int, ...]]
    derived_keys: dict[str, tuple[int, ...] | None]
    aborted: bool
    abort_reason: str | None
    checks: list[TransmissionCheck]
    resource_counts: ResourceCount | None
    transcript: Transcript
    outcome_records: dict[str, tuple[str, ...]] = field(default_factory=dict)
    attack_report: dict | None = None

    def ground_truth_key(self) -> tuple[int, ...]:
        """XOR of all private keys; what every honest run must derive."""
        return xor_bits(*self.private_keys.values())

    def agreement(self) -> bool:
        return self._agrees_with(self.ground_truth_key())

    def _agrees_with(self, truth: tuple[int, ...]) -> bool:
        return not self.aborted and all(key == truth for key in self.derived_keys.values())

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
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


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

    def draw_key(self, party_index: int) -> tuple[int, ...]:
        fixed = self.config.fixed_keys
        if fixed is not None:
            return tuple(int(b) for b in fixed[party_index])
        return tuple(self.rng.integers(0, 2, size=self.config.key_bits).tolist())

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

    def announce_key(self, step: str, actor: str, key: Sequence[int]) -> None:
        self.transcript.log(
            step,
            actor,
            tr.KEY_ANNOUNCEMENT,
            {"key": bits_to_hex(key)},
            counted_bits=len(key),
        )

    def check_decoys(
        self,
        step: str,
        sender: str,
        receiver: str,
        slots: np.ndarray,
        record: PermutationRecord,
        index: int,
    ) -> None:
        """Receiver-side disturbance estimate; a failure aborts the run."""
        error_rate, passed = verify_decoys(
            self.store, slots, record.decoy_pairs, self.config.error_threshold, self.rng
        )
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


def check_adversary(party_count: int, adversary: AdversaryModel) -> None:
    """Raise ValueError unless the adversary can act on this protocol.

    Intercept-z runs on every protocol and the insiders on two-party only.
    Intercept-bell Bell-measures adjacent slots, so on copies of more than
    two qubits it chains copies into ever larger registers.
    """
    if adversary.is_insider and party_count != 2:
        raise ValueError(f"{adversary.kind.value} applies to the two-party protocol only")
    copy_qubits = _COPY_QUBITS[party_count]
    if adversary.kind is AdversaryKind.INTERCEPT_RESEND_BELL and copy_qubits > 2:
        raise ValueError(
            f"intercept-bell on {copy_qubits}-qubit copies merges registers past "
            f"the {MAX_REGISTER_QUBITS}-qubit cap"
        )


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
    check_adversary(2, adv)
    n = config.key_bits
    names = PARTY_NAMES[:2]
    alice, bob = names
    ctx = _RunContext(TWO_PARTY, config, adv)
    store, rng, t = ctx.store, ctx.rng, ctx.transcript

    private: dict[str, tuple[int, ...]] = {}
    derived: dict[str, tuple[int, ...] | None] = {alice: None, bob: None}
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
        ctx.check_decoys("step3", alice, bob, slots1, rec1, idx1)
        at_bob = slots1[rec1.message_order]

        # Step 4: responder's key, X-encoding, return train.
        key_b = ctx.draw_key(1)
        private[bob] = key_b
        encode_key(store, at_bob, key_b, GroupElement.of(PauliLetter.X))
        slots2, rec2, idx2 = ctx.send_scrambled("step4", bob, alice, at_bob, n // 2)

        # Step 5: decoy coordinates only; the message order stays secret.
        ctx.disclose_decoys("step5", bob, rec2)
        ctx.check_decoys("step5", bob, alice, slots2, rec2, idx2)

        # Insider hook: an impatient initiator measures on guessed pairings
        # now, before committing to her announcement.
        early_guess: tuple[int, ...] | None = None
        if adv.kind is AdversaryKind.DISHONEST_ALICE_EARLY_MEASURE:
            early_guess, attack_report = dishonest_alice_early_measure(
                store, kept.tolist(), slots2, rec2, rng, key_b
            )

        # Step 6: the initiator commits; the responder can already finish.
        ctx.announce_key("step6", alice, key_a)
        derived[bob] = xor_bits(key_a, key_b)

        # Step 7: message order (honest or reordered), then pairwise decoding.
        order = rec2.message_order
        if adv.kind is AdversaryKind.DISHONEST_BOB_REORDER:
            swap_pairs = adv.swap_pairs or choose_swap_pairs(n, adv.swap_count, rng)
            claimed = dishonest_bob_reorder(range(n), swap_pairs)  # the index each slot carries
            order = rec2.message_order[claimed]
            claimed_bits = tuple(key_b[i] for i in claimed)
            attack_report = {
                "kind": "reorder",
                "swap_pairs": [list(p) for p in swap_pairs],
                "target_key": bits_to_hex(xor_bits(key_a, claimed_bits)),
            }
        ctx.disclose_order("step7", bob, order)

        if early_guess is not None:
            derived[alice] = xor_bits(key_a, early_guess)
        else:
            claimed = slots2[order]
            outcomes = store.measure_bell_rows(np.column_stack([kept, claimed]), rng)
            outcome_records[alice] = tuple(o.label for o in outcomes)
            decoded = tuple(decode_bell_bits(o)[0] for o in outcomes)
            derived[alice] = xor_bits(key_a, decoded)  # Step 8

        if attack_report is not None and attack_report.get("kind") == "reorder":
            attack_report["alice_key_matches_target"] = (
                bits_to_hex(derived[alice]) == attack_report["target_key"]
            )

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
    ring has ``len(hop_steps)`` parties. Back home, ``decode`` measures a
    party's copies, given as an (n, k) id array with one copy's qubits per
    row, and returns per copy the outcome label and the XOR of the round
    bits it carries.
    """

    protocol: str
    state: np.ndarray
    travel: tuple[int, ...]
    words: tuple[GroupElement, ...]
    prep_step: str
    hop_steps: tuple[tuple[str, str], ...]
    decode: Callable[[QubitStore, np.ndarray, np.random.Generator], list[tuple[str, int]]]


def _run_ring(
    ring: _Ring, config: ProtocolConfig, adversary: AdversaryModel | None
) -> ProtocolResult:
    adv = _normalize_adversary(adversary)
    parties = len(ring.hop_steps)
    check_adversary(parties, adv)
    n = config.key_bits
    names = PARTY_NAMES[:parties]
    ctx = _RunContext(ring.protocol, config, adv)
    store, rng, t = ctx.store, ctx.rng, ctx.transcript
    width = _COPY_QUBITS[parties]

    travel = list(ring.travel)
    copies: list[np.ndarray] = []  # copies[s]: party s's (n, width) train ids
    travels: list[np.ndarray] = []  # travels[s]: stream s's travel qubits, copy by copy
    for j in range(parties):
        copies.append(store.new_train(ring.state, n))
        ctx.log_preparation(ring.prep_step, names[j], width * n, "message")
        travels.append(copies[j][:, travel].reshape(-1))
    keys = [ctx.draw_key(j) for j in range(parties)]
    private = dict(zip(names, keys))

    try:
        for hop, (send_step, check_step) in enumerate(ring.hop_steps):
            held = [(j - hop) % parties for j in range(parties)]  # stream party j holds
            if hop:
                for j in range(parties):
                    encode_key(store, travels[held[j]], keys[j], ring.words[hop - 1])
            sent = [
                ctx.send_scrambled(
                    send_step, names[j], names[(j + 1) % parties], travels[held[j]], n // 2
                )
                for j in range(parties)
            ]
            for j, (slots, rec, idx) in enumerate(sent):
                # The plain hop carries no key yet, so its order may go out
                # with the decoys; a key-bearing order waits for the check.
                if hop:
                    ctx.disclose_decoys(check_step, names[j], rec)
                else:
                    ctx.disclose_full(check_step, names[j], rec)
                ctx.check_decoys(check_step, names[j], names[(j + 1) % parties], slots, rec, idx)
                if hop:
                    ctx.disclose_order(check_step, names[j], rec.message_order)
                travels[held[j]] = slots[rec.message_order]
            del sent  # free this hop's trains before the next hop's are built

        # Decode each copy with its returned travel qubits in their positions.
        derived: dict[str, tuple[int, ...] | None] = {}
        outcome_records: dict[str, tuple[str, ...]] = {}
        for j in range(parties):
            groups = copies[j].copy()
            groups[:, travel] = travels[j].reshape(n, len(travel))
            decoded = ring.decode(store, groups, rng)
            outcome_records[names[j]] = tuple(label for label, _ in decoded)
            derived[names[j]] = tuple(kb ^ bit for kb, (_, bit) in zip(keys[j], decoded))

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


def _decode_bell(
    store: QubitStore, pairs: np.ndarray, rng: np.random.Generator
) -> list[tuple[str, int]]:
    """The outcome's bit flip carries the X round, its phase flip the Z round."""
    return [(o.label, o.x_bit ^ o.z_bit) for o in store.measure_bell_rows(pairs, rng)]


_THREE_PARTY_RING = _Ring(
    protocol=THREE_PARTY,
    state=BELL_VECTORS[BellOutcome.PSI_PLUS],
    travel=(1,),
    words=(GroupElement.of(PauliLetter.X), GroupElement.of(PauliLetter.Z)),
    prep_step="step1",
    hop_steps=(("step2", "step3"), ("step4", "step5"), ("step6", "step7")),
    decode=_decode_bell,
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
def _five_party_decoder(
    state: str, rounds: str
) -> tuple[tuple[GroupElement, ...], tuple[tuple[str, int], ...], np.ndarray]:
    """Round generators, per-outcome (label, parity) and decode basis.

    Built once per (state, rounds); a selection that fails the scheme
    validation raises InvalidSchemeError on every call.
    """
    subgroups = five_party_round_subgroups(rounds)
    scheme = EncodingScheme(
        total_qubits=4, travel_qubits=2, bits_per_round=1, rounds=4,
        round_subgroups=subgroups,
    )
    reference = StateRegister((0, 1, 2, 3), four_qubit_vector(FourQubitState(state)))
    if not validate_scheme(scheme, reference, (0, 2)):
        raise InvalidSchemeError(
            f"round selection {rounds!r} on {state!r} "
            "does not form a decodable encoding scheme"
        )

    generators = tuple(sub.non_identity()[0] for sub in subgroups)
    parity: dict[GroupElement, int] = {}
    for bits in itertools.product((0, 1), repeat=4):
        word = GroupElement.identity(2)
        for bit, gen in zip(bits, generators):
            if bit:
                word = word * gen
        parity[word] = sum(bits) % 2
    elements = canonical_order(product_set(subgroups))
    outcomes = tuple((u.label, parity[u]) for u in elements)
    basis = np.stack(
        [apply_element(reference, u, (0, 2)).amplitudes for u in elements]
    )
    basis.flags.writeable = False
    return generators, outcomes, basis


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
    generators, outcomes, basis = _five_party_decoder(
        config.five_party_state, config.five_party_rounds
    )

    def decode(store, groups, rng):
        return [outcomes[i] for i in store.measure_rows_in_basis(groups, basis, rng)]

    ring = _Ring(
        protocol=FIVE_PARTY,
        state=four_qubit_vector(FourQubitState(config.five_party_state)),
        travel=(0, 2),
        words=generators,
        prep_step="hop0",
        hop_steps=tuple((f"hop{h}", f"hop{h}") for h in range(1, 6)),
        decode=decode,
    )
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
