"""Attack models run against the key-agreement protocols.

Two external attacks act on qubits in transit: a computational-basis
intercept-resend, and a Bell-basis intercept-resend that pairs *adjacent*
travel slots because the secret permutation denies the attacker the true
pairing. Two insider attacks override a party's behavior: a sender trying
to decode the peer's key before announcing her own (forced to guess the
withheld message order), and a receiver announcing a reordered message map
after learning the peer's key (which triggers entanglement swapping at the
mismatched measurement pairs).

Resent qubits are fresh ids; the measured originals retire from the store.
Both transit attacks take a stack of trains, one row per run, each row with
its run's generator, and resend every hit of every row from one allocation.
Intercept-z measures every hit in one bulk call. Intercept-bell measures
one slot pair at a time through the scalar ``measure_bell``, because
``bench/tracer.py`` counts merges there; its resend takes the ids one
``new_bell`` per hit would have. The early-measuring sender also takes a
stack: each lane draws its guess and uniforms, and one bulk call measures
every lane's guessed pairs.

The scalar input rules have their one home here, shared with the
protocols: ``require_ints``, ``require_unit_interval``, ``check_swap_count``
and ``check_generators``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .registers import BELL_VECTORS, BELL_X_BITS, Z_BASIS, QubitStore


class AdversaryKind(str, Enum):
    NONE = "none"
    INTERCEPT_RESEND_Z = "intercept-z"
    INTERCEPT_RESEND_BELL = "intercept-bell"
    DISHONEST_ALICE_EARLY_MEASURE = "dishonest-alice"
    DISHONEST_BOB_REORDER = "dishonest-bob"


EXTERNAL_KINDS = frozenset(
    {AdversaryKind.INTERCEPT_RESEND_Z, AdversaryKind.INTERCEPT_RESEND_BELL}
)
INSIDER_KINDS = frozenset(
    {AdversaryKind.DISHONEST_ALICE_EARLY_MEASURE, AdversaryKind.DISHONEST_BOB_REORDER}
)


@dataclass(frozen=True)
class AdversaryModel:
    """Attack selector plus its parameters.

    ``fraction`` is the per-slot (or per-slot-pair) attack probability for
    external kinds. ``swap_count`` is the number of disjoint transpositions
    a reordering receiver applies (2*swap_count message positions touched);
    ``swap_pairs`` pins them explicitly instead. ``transmission_index``
    selects which quantum transmission an external attacker taps, counting
    sends in transcript order from 0.
    """

    kind: AdversaryKind = AdversaryKind.NONE
    fraction: float = 1.0
    swap_count: int = 1
    swap_pairs: tuple[tuple[int, int], ...] | None = None
    transmission_index: int = 0

    def __post_init__(self):
        # A kind given by its name becomes the member, which the dispatch compares by identity.
        object.__setattr__(self, "kind", AdversaryKind(self.kind))
        require_unit_interval("attack fraction", self.fraction)
        check_swap_count(self.swap_count)
        require_ints(transmission_index=self.transmission_index)
        if self.transmission_index < 0:
            raise ValueError("transmission index must be nonnegative")
        if self.swap_pairs is not None:  # frozen once: the pair rule sees each item as given
            pairs = (tuple(p) if isinstance(p, (tuple, list)) else p for p in self.swap_pairs)
            object.__setattr__(self, "swap_pairs", tuple(pairs))

    @property
    def is_external(self) -> bool:
        return self.kind in EXTERNAL_KINDS

    @property
    def is_insider(self) -> bool:
        return self.kind in INSIDER_KINDS


def attack_transit(
    model: AdversaryModel,
    store: QubitStore,
    slots: np.ndarray,
    rngs: Sequence[np.random.Generator],
) -> None:
    """Apply an external attack to a stack of trains in transit, rewriting their slots.

    ``slots`` is a (rows, items) int64 array holding one train per row, and
    ``rngs`` one generator per row; both are a stack's, and the slots are
    rewritten in place. A NONE model is a no-op (and draws no randomness);
    insider kinds raise, and so do a ``slots`` that is not a 2-D integer
    array and a ``rngs`` of another length, before any draw.

    Intercept-z walks each row's slots in order with that row's generator:
    ``rng.random() < fraction`` picks a hit, and a hit then draws the
    uniform its measurement uses. No draw depends on an outcome, so every
    hit of every row is then Z-measured, as a one-qubit group, in one
    ``measure_rows_in_basis`` call and resent from one allocation of ``|b>``
    rows, in row and hit order: a row's ids are those one allocation per hit
    would have given, had the rows before it been attacked first.
    Intercept-bell walks each row's adjacent slot pairs in order with that
    row's generator: ``rng.random() < fraction`` picks a hit, which is
    Bell-measured at once by ``measure_bell`` (its uniform is the next
    draw). Every hit is then resent from one allocation of Bell rows, in row
    and hit order; no measurement allocates ids and no hit names a resent
    qubit, so these are the ids one ``new_bell`` per hit would have given.
    """
    if model.kind is AdversaryKind.NONE:
        return
    if not model.is_external:
        raise ValueError(f"{model.kind.value} is not an external transit attack")
    if not (isinstance(slots, np.ndarray) and slots.ndim == 2 and slots.dtype.kind in "iu"):
        raise ValueError("slots must be a 2-D integer array, one train per row")
    check_generators(rngs, len(slots))
    if model.kind is AdversaryKind.INTERCEPT_RESEND_Z:
        rows, hits, uniforms = [], [], []
        for row, rng in enumerate(rngs):
            row_hits, row_uniforms = _intercept_draws(rng, slots.shape[1], model.fraction)
            rows += [row] * len(row_hits)
            hits += row_hits
            uniforms += row_uniforms
        if hits:
            bits = store.measure_rows_in_basis(slots[rows, hits][:, None], Z_BASIS, uniforms)
            slots[rows, hits] = store.new_states(Z_BASIS[bits]).ravel()
        return
    # Bell-basis attack on adjacent slots; a trailing odd slot is left alone.
    rows, hits, outcomes = [], [], []
    for row, (ids, rng) in enumerate(zip(slots.tolist(), rngs)):
        for k in range(0, len(ids) - 1, 2):
            if rng.random() < model.fraction:
                outcomes.append(store.measure_bell(ids[k], ids[k + 1], rng))
                rows.append(row)
                hits.append(k)
    if hits:
        resent = store.new_states(BELL_VECTORS[np.fromiter(outcomes, np.int64, len(outcomes))])
        slots[rows, hits], slots[rows, np.add(hits, 1)] = resent.T


def _intercept_draws(
    rng: np.random.Generator, slots: int, fraction: float
) -> tuple[list[int], list[float]]:
    """The hit slots of an intercept, and each hit's measurement uniform.

    These are the draws of ``slots`` rounds of ``rng.random() < fraction``,
    each hit followed by one more ``rng.random()``. They come in blocks of
    ``rng.random(m)``, which yields the values of m scalar draws, and a
    block never holds more than the draws still certain to come: one per
    slot left, plus a uniform a hit is still owed.
    """
    hits, uniforms = [], []
    slot, owed = 0, 0
    while slot < slots or owed:
        for value in rng.random(slots - slot + owed).tolist():
            if owed:
                uniforms.append(value)
                owed = 0
                continue
            if value < fraction:
                hits.append(slot)
                owed = 1
            slot += 1
    return hits, uniforms


def require_ints(**values) -> None:
    """The one home of the integer rule: each named value is an ``int``, not a ``bool``.

    A float or numpy integer would pass the range checks and then fail, or
    do something else, deep inside a run; it raises ValueError here.
    """
    for name, value in values.items():
        if type(value) is bool or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, not {value!r}")


def check_generators(rngs: Sequence[np.random.Generator], trains: int) -> None:
    """The one home of the generator rule: a stack of trains takes one generator per train."""
    if len(rngs) != trains:
        raise ValueError(f"{len(rngs)} generators given for {trains} trains")


def require_unit_interval(name: str, value) -> None:
    """The one home of the unit-interval rule: ``value`` is an int or float in [0, 1].

    A ``bool``, a string and a NaN are refused with ValueError.
    """
    if type(value) is bool or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, not {value!r}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1]")


def check_swap_count(count: int, key_bits: int | None = None) -> None:
    """The one home of the swap-count rule; ValueError unless ``count`` swaps can be drawn.

    The count must be an int, at least 0, and, if ``key_bits`` is given, at
    most ``key_bits // 2``: the swaps are disjoint.
    """
    require_ints(swap_count=count)
    if count < 0:
        raise ValueError("swap count must be nonnegative")
    if key_bits is not None and 2 * count > key_bits:
        raise ValueError("swap count too large for the key length")


def choose_swap_pairs(
    n: int, count: int, rng: np.random.Generator
) -> tuple[tuple[int, int], ...]:
    """Draw ``count`` disjoint transpositions over message indices 0..n-1 (``check_swap_count``)."""
    check_swap_count(count, n)
    picks = rng.choice(n, size=2 * count, replace=False)
    return tuple(
        (int(picks[2 * i]), int(picks[2 * i + 1])) for i in range(count)
    )


def dishonest_bob_reorder(
    order: Sequence[int], swap_pairs: Sequence[tuple[int, int]]
) -> list[int]:
    """Announce a message order with the given index pairs transposed.

    The swaps touch message positions only. A pair that is not two ints
    (``require_ints``), overlapping pairs and out-of-range pairs are
    malformed and raise ValueError.
    """
    out = list(order)
    touched: set[int] = set()
    for pair in swap_pairs:
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise ValueError(f"swap pair {pair!r} is not two positions")
        i, j = pair
        require_ints(swap_position=i, partner_position=j)
        if i == j or not (0 <= i < len(out)) or not (0 <= j < len(out)):
            raise ValueError(f"malformed swap pair ({i}, {j})")
        if i in touched or j in touched:
            raise ValueError("swap pairs must be disjoint")
        touched.update((i, j))
        out[i], out[j] = out[j], out[i]
    return out


def dishonest_alice_early_measure(
    store: QubitStore,
    kept: np.ndarray,
    slots: np.ndarray,
    record,
    rngs: Sequence[np.random.Generator],
    true_partner_keys: np.ndarray,
) -> tuple[np.ndarray, list[dict]]:
    """Decode the peer's key before the message order is public, in every lane of a stack.

    The attacker knows which slots hold message qubits (the decoy
    coordinates were disclosed for the error check) but not their order,
    so she pairs her kept qubits against a uniformly random guess.
    Correctly guessed pairings decode exactly; wrong ones hit entanglement
    swapping and come out uncorrelated with the true bits.

    Row l of ``kept`` (lanes, n), ``slots`` (lanes, items), the stacked
    ``record`` and ``true_partner_keys`` (lanes, n) is lane l, whose
    generator is ``rngs[l]``. Each lane draws its guess permutation and then
    its n measurement uniforms, in lane order; one ``measure_rows_in_basis``
    call then measures every lane's guessed pairs, as one call per lane
    would have. Returns the guessed key bits, as a read-only (lanes, n)
    uint8 array, and per lane a report with the per-bit accuracy against
    the true key (known to the harness, not the attacker).
    """
    lanes, n = kept.shape
    is_message = np.ones(slots.shape, dtype=bool)
    for row, decoys in zip(is_message, record.decoy_pairs):
        row[decoys] = False
    message_slots = np.nonzero(is_message)[1]
    if message_slots.size != lanes * n:
        raise ValueError("message slot count does not match kept qubits")
    message_slots = message_slots.reshape(lanes, n)
    guessed, uniforms = np.empty_like(message_slots), np.empty((lanes, n))
    for row, rng in enumerate(rngs):
        guessed[row] = message_slots[row, rng.permutation(n)]
        uniforms[row] = rng.random(n)
    pairs = np.empty((lanes, n, 2), dtype=np.int64)
    pairs[..., 0], pairs[..., 1] = kept, slots[np.arange(lanes)[:, None], guessed]
    outcomes = store.measure_rows_in_basis(pairs.reshape(-1, 2), BELL_VECTORS, uniforms.ravel())
    guessed_bits = BELL_X_BITS[outcomes].reshape(lanes, n)
    guessed_bits.flags.writeable = False
    reports = []
    for wrong, hits in zip(guessed != record.message_order, guessed_bits == true_partner_keys):
        wrong_count = int(np.count_nonzero(wrong))
        reports.append({
            "kind": "early-measure",
            "correct_pairings": n - wrong_count,
            "per_bit_accuracy": int(np.count_nonzero(hits)) / n,
            "wrong_pair_accuracy": (
                int(np.count_nonzero(hits & wrong)) / wrong_count if wrong_count else None
            ),
        })
    return guessed_bits, reports
