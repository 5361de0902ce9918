"""Turn-based engines for the two-, three- and five-party key agreements.

All three protocols share one transport idiom: the sender interleaves the
message qubits with decoy Bell pairs, scrambles the whole train under a
secret uniform permutation, and stages its disclosures so that the receiver
can always check the decoys for disturbance before any key-bearing order
becomes public. The three- and five-party agreements are one ring
construction and share one engine.

Keys combine by XOR: every party's private key flips exactly its own bits
of the shared key, and nobody learns anything before committing.

Every run is a *lane*, a row of a ``_Stack``: the stack holds each lane's
generator, keys, checks and result, and logs each event once, in one event
table, of which each lane's transcript is a view; identical (seed,
run_index) pairs reproduce byte-identical transcripts. Both engines run a
stack's lanes through one store in lockstep, and send every train through
its one transmission routine, ``_Stack.transmit``: scramble, send, transit
attack, decoy check, the disclosures, each lane's check, and the abort of
each lane whose check fails. What sets a transmission apart is its
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
import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from . import transcript as tr
from .adversaries import (
    AdversaryKind,
    AdversaryModel,
    attack_transit,
    check_generators,
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
from .transcript import EventTable, Transcript

PARTY_NAMES = ("Alice", "Bob", "Charlie", "Dave", "Erika")

# The three subgroup sets that decode; any order of one of them is a valid
# selection too, which ``ProtocolConfig.validate`` decides.
FIVE_PARTY_ROUND_CHOICES = ("1234", "1256", "3456")

FIVE_PARTY_STATES = tuple(state.value for state in FourQubitState)

# Qubits per resource copy, by party count: Bell pairs, or a 4-qubit state.
_COPY_QUBITS = {2: 2, 3: 2, 5: 4}

# The decoy pairs' state, and the two- and three-party resource state.
_PSI_PLUS = constant_state(BELL_VECTORS[BellOutcome.PSI_PLUS])

# The ring's parties decode together while their copies hold at most this
# many qubits: a stack's small decodes share one measurement, and a long
# key's temporaries stay those of one party.
_DECODE_QUBITS = 2**12

# The largest key a run accepts; a five-party run at this size peaks near
# 208.4 MB of resident memory, during its last hop's decoy checks and the
# decode after them.
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
    holds one generator per train, in row-major order (``check_generators``).
    A ``decoy_pair_count`` that is not an int (``require_ints``) or the
    wrong number of generators raises ValueError before any decoy is made.
    One allocation makes every train's decoy pairs, train after train, and
    each generator then shuffles its train's slots, in train order: the
    draws and the order of ``rng.permutation(items)``.

    Returns the trains in transit, an int64 id array by slot, and the
    senders' record; the slots and every record field keep the stack's
    leading axes. For one train, ``slots[record.message_order]`` restores
    the message.
    """
    require_ints(decoy_pair_count=decoy_pair_count)
    message = np.asarray(message_qubits, dtype=np.int64)
    *stack, m = message.shape
    rows = math.prod(stack)
    check_generators(rngs, rows)
    total = m + 2 * decoy_pair_count
    decoys = store.new_train(_PSI_PLUS, rows * decoy_pair_count)
    decoys = decoys.reshape(rows, 2 * decoy_pair_count)
    # The item each slot takes: ``rng.permutation(total)`` is an arange shuffled in place.
    taken = np.empty((rows, total), dtype=np.int64)
    taken[:] = np.arange(total)
    for rng, row in zip(rngs, taken):
        rng.shuffle(row)
    starts = np.arange(rows)[:, None] * total
    taken += starts  # as flat indices: 1-D scatters are fast
    forward = np.empty_like(taken)
    forward.ravel()[taken] = np.arange(total)  # the inverse permutations
    # Each item's id goes to its slot, in the buffer ``taken`` is done with:
    # no (rows, total) array of items is ever made.
    slots = taken.ravel()
    forward += starts
    slots[forward[:, :m]] = message.reshape(rows, m)
    slots[forward[:, m:]] = decoys
    forward -= starts
    stacked = (*stack, total)
    return slots.reshape(stacked), PermutationRecord.of(forward.reshape(stacked), m)


def _check_passed(error_rates: np.ndarray, threshold: float) -> np.ndarray:
    """The decoy pass rule, in its one home, for each rate: at most ``threshold``; a NaN fails."""
    return np.less_equal(error_rates, threshold)


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
    as slot pairs. The threshold (``require_unit_interval``, the rule a
    run's config follows) and every disclosure (``_checked_disclosure``)
    are checked whole before anything is measured or drawn. All pairs are
    then measured in one bulk call, train after train, so each train draws
    the uniforms a call of its own would draw in turn. ``rng`` may instead
    be those uniforms, one per pair.

    Returns ``(passes, error_rates)``: how many trains, from the first,
    pass (``_check_passed``) before one fails, and each train's error rate.
    """
    require_unit_interval("error_threshold", threshold)
    slots, disclosed = np.asarray(slots), np.asarray(disclosed)
    named = slots.ravel()[_checked_disclosure(slots, disclosed)]
    trains, pairs = disclosed.shape[:2]
    outcomes = store.measure_rows_in_basis(named.reshape(-1, 2), BELL_VECTORS, rng)
    passed = np.count_nonzero(outcomes.reshape(trains, pairs) == BellOutcome.PSI_PLUS, axis=1)
    error_rates = (pairs - passed) / pairs
    ok = _check_passed(error_rates, threshold)
    passes = trains if ok.all() else int(ok.argmin())
    return passes, tuple(error_rates.tolist())


def _checked_disclosure(slots: np.ndarray, disclosed: np.ndarray) -> np.ndarray:
    """The disclosed slots as indices into ``slots.ravel()``; the one home of the disclosure rule.

    ``slots`` and ``disclosed`` must be integer arrays, and ``disclosed[t]``
    a nonempty (m, 2) array naming m disjoint pairs of distinct slots of
    train ``slots[t]``. Otherwise this raises ValueError for the first bad
    train, with the message a check of that train alone would give.
    """
    if not disclosed.size:
        raise ValueError("decoy disclosure is empty")
    if disclosed.ndim != 3 or disclosed.shape[2] != 2:
        raise ValueError(f"decoy disclosure must hold slot pairs, got shape {disclosed.shape[1:]}")
    if slots.ndim != 2 or len(slots) != len(disclosed):
        raise ValueError(f"{len(disclosed)} disclosures for trains of shape {slots.shape}")
    if slots.dtype.kind not in "iu" or disclosed.dtype.kind not in "iu":
        raise ValueError("decoy slots and disclosures must be integers")
    disclosed = disclosed.astype(np.int64, copy=False)
    trains, items = slots.shape
    named = disclosed + np.arange(trains)[:, None, None] * items  # as flat indices
    # Every slot must be in range and named once; in range, no two trains share an index.
    if disclosed.min() >= 0 and disclosed.max() < items:
        marked = np.zeros(slots.size, dtype=bool)
        marked[named] = True
        if np.count_nonzero(marked) == named.size:
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

    The configs differ only in ``run_index``. A lane is a row of the stack,
    which holds every lane's state: ``active_ids`` holds the numbers of the
    lanes still running, one per row of the engine's arrays, and ``rngs``
    their generators, row by row; ``checks`` and ``results`` are indexed by
    lane. Only the draws run lane by lane, each lane's in the order a run
    of its own makes them; the store calls serve all lanes, and each bulk
    measurement takes the lanes' uniforms in lane order. The stack logs
    each event once, in ``table``, for the lanes it reaches. Every lane's
    private keys are its row of ``keys``, a read-only view of the (lanes,
    parties, n) uint8 array that ``draw_keys`` fills, of which the first
    ``drawn`` parties' are drawn. Lanes leave only when their check fails,
    each logging its abort as a one-lane row, so every lane sees the events
    a run of its own logs, in the same order. ``_end`` builds every result
    and its transcript, a view of the table: an aborted lane's as it leaves,
    and the completed lanes' together in ``finish``, from stacked derived
    keys and one shared tally. A stack of one lane allocates, draws and
    logs exactly as a run of its own.

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
        self.protocol = protocol
        self.names = PARTY_NAMES[:parties]
        self.n = configs[0].key_bits
        self.threshold = configs[0].error_threshold
        self.fixed_keys = configs[0].fixed_keys
        self.travel = list(travel)
        self.m = len(travel) * self.n  # message qubits per train
        self.adversary = adversary
        self.attacked = adversary.transmission_index if adversary.is_external else -1
        self.store = QubitStore()
        self.table = EventTable()
        self.active_ids = tuple(range(len(configs)))
        self.rngs = [config.make_rng() for config in configs]
        self.checks: list[list[TransmissionCheck]] = [[] for _ in configs]
        self.results: list[ProtocolResult | None] = [None] * len(configs)  # set by ``_end``
        self._keys = np.zeros((len(configs), parties, self.n), dtype=np.uint8)
        self.keys = self._keys.view()  # what the engines and results read: read-only
        self.keys.flags.writeable = False
        self.drawn = 0
        self.transmissions = 0
        # Where each row of a stack of trains starts in the flat slots.
        self.row_starts = np.arange(len(configs))[:, None] * (self.m + self.n)

    def prepare(self, state: np.ndarray, step: str, parties: int) -> np.ndarray:
        """Each of the first ``parties`` parties' n copies of ``state`` in every lane, and its key.

        One train holds every copy: ``copies[k, l]`` is the (n, width) ids of
        party k in lane l, and with one lane ``copies[k]`` holds the ids the
        k-th of back-to-back trains of n would have had.
        """
        width = _COPY_QUBITS[len(self.names)]
        copies = self.store.new_train(state, parties * len(self.keys) * self.n)
        for name in self.names[:parties]:
            self.log_preparation(step, name, width * self.n, "message")
        self.draw_keys(parties)
        return copies.reshape(parties, len(self.keys), self.n, width)

    def log(self, *event, **counts) -> None:
        """Log one event for every active lane: ``EventTable.log`` without its lanes."""
        self.table.log(self.active_ids, *event, **counts)

    def log_preparation(self, step: str, actor: str, qubit_count: int, purpose: str) -> None:
        payload = {"purpose": purpose, "qubit_count": qubit_count}
        self.table.log(self.active_ids, step, actor, tr.STATE_PREPARATION, payload,
                       qubit_count=qubit_count, purpose=purpose)

    def draw_keys(self, count: int) -> None:
        """The next ``count`` parties' keys of every running lane, into ``keys``.

        Fixed keys go to every lane at once. Otherwise each lane, in lane
        order, draws each party's n bits in party order, as int64 draws
        cast to uint8: a uint8 draw would take other bits from the stream.
        """
        parties = range(self.drawn, self.drawn + count)
        keys, fixed = self._keys, self.fixed_keys
        if fixed is not None:
            keys[:, parties.start : parties.stop] = [fixed[j] for j in parties]
        else:
            for lane, rng in zip(self.active_ids, self.rngs):
                for j in parties:
                    keys[lane, j] = rng.integers(0, 2, size=self.n)
        self.drawn = parties.stop

    def running_keys(self) -> np.ndarray:
        """The running lanes' rows of ``keys``, one per row of the engine's arrays."""
        if len(self.active_ids) == len(self.keys):
            return self.keys
        return self.keys[list(self.active_ids)]

    def uniforms(self, count: int) -> np.random.Generator | np.ndarray:
        """Each active lane's ``count`` uniforms, in lane order, for one bulk measurement.

        A lone lane passes its generator, which the measurement draws from
        itself: the same values, without the checks given uniforms get.
        """
        rngs = self.rngs
        return rngs[0] if len(rngs) == 1 else np.concatenate([rng.random(count) for rng in rngs])

    def gather(self, slots: np.ndarray, orders: np.ndarray) -> np.ndarray:
        """``slots[row][orders[row]]`` for each row of a stack of trains, in one gather."""
        return slots.ravel()[orders + self.row_starts[: len(slots)]]

    def decode(self, copies: np.ndarray, returned: np.ndarray, basis: np.ndarray) -> np.ndarray:
        """Measure each party's copies in ``basis``, returned travel qubits in place.

        ``copies[k]`` holds party k's (rows, n, width) ids and ``returned[k]``
        the travel qubits back with it. Parties measure together, in one
        ``measure_rows_in_basis`` call ordered (party, lane, copy), while the
        call holds at most ``_DECODE_QUBITS`` qubits. Each lane draws a
        call's uniforms at once, the values it would draw party by party.
        Returns the (parties, rows, n) outcome indices.
        """
        parties, rows, n, width = copies.shape
        most = max(1, _DECODE_QUBITS // copies[0].size)
        outcomes = []
        for lo in range(0, parties, most):
            groups = copies[lo : lo + most].copy()
            k = len(groups)
            groups[..., self.travel] = returned[lo : lo + k].reshape(k, rows, n, -1)
            uniforms = self.uniforms(k * n)
            if k > 1 and rows > 1:  # lane by lane, as drawn, to party by party
                uniforms = uniforms.reshape(rows, k, n).swapaxes(0, 1).ravel()
            outcomes.append(
                self.store.measure_rows_in_basis(groups.reshape(-1, width), basis, uniforms)
            )
        return (outcomes[0] if len(outcomes) == 1 else np.concatenate(outcomes)).reshape(
            parties, rows, n
        )

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
        together, in one ``insert_decoys_and_permute`` call for every lane,
        or two when an attacked transmission splits the hop
        (``_send_runs``): an unattacked hop's decoys are one allocation, and
        its check one lattice. Each send and its decoy preparation are
        logged once for every lane, and a transit attack on a transmission
        then rewrites every row's train at once, each with its lane's
        generator. One ``verify_decoys`` call checks every train, lane by
        lane. Then, sender by sender, the running lanes' disclosures are
        logged as ``staging`` says, each lane's check is recorded, and a
        lane whose check fails logs its abort and leaves. Returns the hop's
        slots and record, stacked by sender with one row per lane that runs
        on, and those rows (every row: a full slice).
        """
        rngs, names, m, pairs = self.rngs, self.names, self.m, self.n // 2
        receivers = names[1:] + names[:1]
        rows, count, first = len(rngs), len(senders), self.transmissions
        sends = [(first + k, names[j], receivers[j]) for k, j in enumerate(senders)]
        total = m + 2 * pairs  # items per train
        scrambled = []  # each run's slots (by sender, then lane) and record
        for run in _send_runs(first, count, self.attacked):
            # One scramble for the run's senders, sender by sender; a transit
            # attack ends a run, so every allocation and draw keeps its order.
            trains, record = insert_decoys_and_permute(
                messages[run.start : run.stop], self.store, rngs * len(run), pairs
            )
            scrambled.append((trains, record))
            for k, train in zip(run, trains):
                index, sender, receiver = sends[k]
                self.log_preparation(send_step, sender, 2 * pairs, "decoy")
                sent = train.copy()  # the rows as sent: an attack rewrites them only later
                sent.flags.writeable = False
                payload = {"to": receiver, "slots": sent, "transmission": index}
                self.log(send_step, sender, tr.QUANTUM_SEND, payload, ("slots",), qubit_count=total)
                self.log(send_step, receiver, tr.ACK, {"transmission": index})
                if index == self.attacked:
                    attack_transit(self.adversary, self.store, train, rngs)
        self.transmissions += count
        if len(scrambled) == 1:
            ((slots, record),) = scrambled
        else:
            slots = np.concatenate([trains for trains, _ in scrambled])
            record = PermutationRecord.of(np.concatenate([r.forward for _, r in scrambled]), m)
        # Keywords: bench/tracer.py reads a third positional argument as a disclosure.
        _, rates = verify_decoys(
            self.store,
            slots.swapaxes(0, 1).reshape(-1, total),  # lane by lane, as the uniforms come
            disclosed=record.decoy_pairs.swapaxes(0, 1).reshape(-1, pairs, 2),
            threshold=self.threshold,
            rng=self.uniforms(count * pairs),
        )
        passed = _check_passed(np.reshape(rates, (rows, count)), self.threshold).tolist()
        # ``kept`` holds the rows of the lanes still running, ``lanes`` their
        # lane numbers and ``shown`` their record.
        kept, lanes, shown = list(range(rows)), self.active_ids, record
        for k, (index, sender, receiver) in enumerate(sends):
            orders, decoys = shown.message_order[k], shown.decoy_pairs[k]
            if staging == _WITH_DECOYS:
                payload = {"message_order": orders, "decoy_pairs": decoys}
                self.table.log(lanes, check_step, sender, tr.FULL_PERMUTATION_DISCLOSURE,
                               payload, ("message_order", "decoy_pairs"), counted_bits=m)
            else:
                self.table.log(lanes, check_step, sender, tr.DECOY_POSITIONS_DISCLOSURE,
                               {"decoy_pairs": decoys}, ("decoy_pairs",))
            running, made = [], {}  # lanes with one error rate share its (immutable) check
            for row in kept:
                rate, ok = rates[row * count + k], passed[row][k]
                check = made.get(rate)
                if check is None:
                    check = TransmissionCheck(index, check_step, sender, receiver, rate, ok)
                    made[rate] = check
                self.checks[self.active_ids[row]].append(check)
                if ok:
                    running.append(row)
                else:
                    self._abort(row, check_step, receiver, index, rate)
            if len(running) < len(kept):
                kept, lanes = running, tuple(self.active_ids[row] for row in running)
                shown = PermutationRecord.of(record.forward[:, kept], m)  # one read-only gather
                if not kept:
                    break
            if staging == _AFTER_CHECK:
                self.table.log(lanes, check_step, sender, tr.MESSAGE_ORDER_DISCLOSURE,
                               {"message_order": shown.message_order[k]}, ("message_order",),
                               counted_bits=m)
        if len(kept) == rows:
            return slots, record, slice(None)
        self.active_ids, self.rngs = lanes, [rngs[row] for row in kept]
        return slots[:, kept], shown, kept

    def _abort(self, row: int, step: str, receiver: str, index: int, rate: float) -> None:
        """End the lane of active ``row`` at its failed check: its abort is a one-lane row."""
        lane = self.active_ids[row]
        payload = {"transmission": index, "error_rate": rate}
        self.table.log((lane,), step, receiver, tr.ABORT, payload)
        reason = (
            f"decoy check failed on transmission {index} "
            f"(error rate {rate:.4f} > threshold {self.threshold})"
        )
        self._end((lane,), [dict.fromkeys(self.names)], [{}], [None], reason)

    def finish(
        self,
        derived: np.ndarray,
        outcome_records: Sequence[dict[str, tuple[str, ...]]],
        reports: Sequence[dict | None] | None = None,
    ) -> None:
        """End every running lane, row by row, with its (parties, n) row of ``derived``.

        ``derived`` is made read-only.
        """
        derived.flags.writeable = False
        rows = [dict(zip(self.names, keys)) for keys in derived]
        self._end(self.active_ids, rows, outcome_records, reports or [None] * len(rows))

    def _end(
        self,
        lanes: Sequence[int],
        derived: Sequence[dict[str, np.ndarray | None]],
        outcome_records: Sequence[dict[str, tuple[str, ...]]],
        reports: Sequence[dict | None],
        reason: str | None = None,
    ) -> None:
        """Build the result of each of ``lanes``: completed, or aborted for ``reason``.

        Each lane's transcript is a view of ``table``, and its private keys
        are read-only views of its drawn rows of ``keys``. Abort rows carry
        no counts, so every completed lane tallies the same (c, q, b), and
        one ``count_from_transcript`` call serves them all.
        """
        aborted = reason is not None
        transcripts = [Transcript(self.protocol, self.n, self.table, lane) for lane in lanes]
        counts = None if aborted else count_from_transcript(transcripts[0])
        for lane, transcript, keys, records, report in zip(
            lanes, transcripts, derived, outcome_records, reports
        ):
            transcript.aborted = aborted
            private = dict(zip(self.names, self.keys[lane, : self.drawn]))
            self.results[lane] = ProtocolResult(
                self.protocol, self.n, self.names, private, keys, aborted, reason,
                self.checks[lane], counts, transcript, records, report,
            )


def _send_runs(first: int, count: int, attacked: int) -> list[range]:
    """A hop's ``count`` senders, transmissions ``first`` on, in runs that scramble together.

    A run ends at the attacked transmission, so its attack comes before the
    next run allocates or draws anything; a hop without it is one run.
    """
    end = attacked - first + 1
    return [range(end), range(end, count)] if 0 < end < count else [range(count)]


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
) -> list[ProtocolResult]:
    """``run_two_party`` for a stack of lanes (see ``_Stack``); returns their results.

    The lanes share one train of all their Bell pairs, each transmission,
    one ``encode_key`` and one decode measurement; the early-measuring
    initiator's guesses and measurement serve every lane in one call, and
    the reordering receiver's swaps go lane by lane.
    """
    stack = _Stack(TWO_PARTY, 2, [1], configs, adversary)
    n, store, adv = stack.n, stack.store, stack.adversary
    alice, bob = stack.names

    # Step 1: pair preparation and the initiator's key.
    (pairs,) = stack.prepare(_PSI_PLUS, "step1", 1)

    # Steps 2-3: outbound train, full disclosure, responder's decoy check.
    outbound = pairs[None, ..., 1]  # the initiator's one train, as a stack of senders
    (slots,), record, kept = stack.transmit(outbound, [0], "step2", "step3", _WITH_DECOYS)
    if not stack.active_ids:
        return stack.results
    pairs = pairs[kept]
    at_bob = stack.gather(slots, record.message_order[0])

    # Step 4: responder's key, X-encoding, return train.
    stack.draw_keys(1)
    keys = stack.running_keys()
    encode_key(store, at_bob.ravel(), keys[:, 1].ravel(), GroupElement.of(PauliLetter.X))
    # Step 5: decoy coordinates only; the message order stays secret.
    (slots,), record, kept = stack.transmit(at_bob[None], [1], "step4", "step5", _WITHHELD)
    if not stack.active_ids:
        return stack.results
    pairs, keys = pairs[kept], stack.running_keys()

    # Insider hook: an impatient initiator measures on guessed pairings now,
    # before committing to her announcement, and takes her key from them.
    rows = len(stack.active_ids)
    guesses, reports = None, [None] * rows
    if adv.kind is AdversaryKind.DISHONEST_ALICE_EARLY_MEASURE:
        guesses, reports = dishonest_alice_early_measure(
            store, pairs[..., 0], slots, PermutationRecord.of(record.forward[0], n),
            stack.rngs, keys[:, 1],
        )

    # Step 6: the initiator commits; the responder can already finish.
    announced = [bits_to_hex(key) for key in keys[:, 0]]
    stack.log("step6", alice, tr.KEY_ANNOUNCEMENT, {"key": announced}, ("key",), counted_bits=n)

    # Step 7: message order (honest or reordered).
    orders = record.message_order[0]  # each row's step-7 order
    targets = [None] * rows  # each row's reorder target
    if adv.kind is AdversaryKind.DISHONEST_BOB_REORDER:
        orders = orders.copy()
        for row, rng in enumerate(stack.rngs):
            key_a, key_b = keys[row]
            swap_pairs = adv.swap_pairs
            if swap_pairs is None:
                swap_pairs = choose_swap_pairs(n, adv.swap_count, rng)
            claimed = dishonest_bob_reorder(range(n), swap_pairs)  # the index each slot carries
            orders[row] = orders[row][claimed]
            targets[row] = xor_bits(key_a, key_b[claimed])
            reports[row] = {
                "kind": "reorder",
                "swap_pairs": [list(p) for p in swap_pairs],
                "target_key": bits_to_hex(targets[row]),
            }
        orders.flags.writeable = False
    stack.log("step7", bob, tr.MESSAGE_ORDER_DISCLOSURE, {"message_order": orders},
              ("message_order",), counted_bits=n)

    # Step 8: pairwise decoding; each bit flip is one of the responder's key bits.
    records = [{} for _ in range(rows)]
    if guesses is None:
        (decoded,) = stack.decode(pairs[None], stack.gather(slots, orders)[None], BELL_VECTORS)
        guesses = BELL_X_BITS[decoded]
        records = [{alice: tuple(labels)} for labels in BELL_LABELS[decoded].tolist()]
    derived = np.empty_like(keys)
    derived[:, 0] = keys[:, 0] ^ guesses  # the initiator: her key XOR her decoded bits
    derived[:, 1] = keys[:, 0] ^ keys[:, 1]  # the responder: his key XOR her announced one
    for row, target in enumerate(targets):
        if target is not None:
            reports[row]["alice_key_matches_target"] = np.array_equal(derived[row, 0], target)
    stack.finish(derived, records, reports)
    return stack.results


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
    """Run one trial per config as a stack of lanes (see ``_Stack``); returns their results.

    The lanes share one train of all their copies, each hop's
    transmissions, one ``encode_key`` per round and one decode measurement
    per party.
    """
    parties = len(ring.hop_steps)
    stack = _Stack(ring.protocol, parties, ring.travel, configs, adversary)
    m, store, names = stack.m, stack.store, stack.names
    copies = stack.prepare(ring.state, ring.prep_step, parties)
    key_masks = stack.keys.swapaxes(0, 1)  # by party, lane, bit
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
        if not stack.active_ids:
            return stack.results
        copies, travels, key_masks = copies[:, kept], travels[:, kept], key_masks[:, kept]
        for j, orders in enumerate(record.message_order):
            travels[held[j]] = stack.gather(slots[j], orders)  # the restored trains
        del slots, record  # free this hop's trains before the next hop's are built

    # Decode each copy with its returned travel qubits in their positions;
    # each party's key XOR the parity of its outcomes is its derived key.
    labels = np.array([label for label, _ in ring.outcomes], dtype=object)
    parity = np.array([bit for _, bit in ring.outcomes], dtype=np.uint8)
    outcomes = stack.decode(copies, travels, ring.basis).swapaxes(0, 1)  # by lane, party, copy
    records = [dict(zip(names, map(tuple, lane))) for lane in labels[outcomes].tolist()]
    stack.finish(stack.running_keys() ^ parity[outcomes], records)
    return stack.results


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
    result per config.
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
    return run_stack([config], adversary)[0]


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
        results.extend(run_stack(configs[lo : lo + per_stack], adversary))
    return results
