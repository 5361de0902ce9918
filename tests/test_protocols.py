"""Protocol engines: transport machinery, choreography and agreement."""

import ast
import hashlib
import inspect
import itertools
import json
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qka import protocols, registers, transcript
from qka.adversaries import AdversaryKind, AdversaryModel, attack_transit
from qka.efficiency import (
    FIVE_PARTY,
    TWO_PARTY,
    ResourceCount,
    count_from_transcript,
    preset_counts,
)
from qka.pauli import GroupElement, PauliLetter, canonical_order, product_set
from qka.protocols import (
    InvalidSchemeError,
    PermutationRecord,
    ProtocolConfig,
    bits_to_hex,
    check_adversary,
    encode_key,
    five_party_round_subgroups,
    insert_decoys_and_permute,
    run_five_party,
    run_protocol,
    run_three_party,
    run_two_party,
    verify_decoys,
    xor_bits,
)
from qka.registers import (
    BELL_VECTORS,
    BellOutcome,
    FourQubitState,
    QubitStore,
    StateRegister,
    apply_element,
    four_qubit_vector,
)
from qka.transcript import (
    DECOY_POSITIONS_DISCLOSURE,
    FULL_PERMUTATION_DISCLOSURE,
    KEY_ANNOUNCEMENT,
    MESSAGE_ORDER_DISCLOSURE,
    QUANTUM_SEND,
    STATE_PREPARATION,
    Transcript,
    payload_digest,
)

X_WORD = GroupElement.of(PauliLetter.X)
Z_WORD = GroupElement.of(PauliLetter.Z)


def config(n=8, parties=2, seed=0, run=0, **kw):
    return ProtocolConfig(key_bits=n, party_count=parties, seed=seed, run_index=run, **kw)


def reference_scramble(message_qubits, store, rng, decoy_pair_count):
    """The tuple-based scramble the array version replaced, kept as its oracle.

    Returns (slots, forward, inverse, message_order, decoy_pairs).
    """
    m = len(message_qubits)
    decoys = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], decoy_pair_count)
    items = [*message_qubits, *decoys.ravel().tolist()]
    permutation = rng.permutation(len(items))
    inverse = tuple(permutation.tolist())
    forward = tuple(np.argsort(permutation).tolist())
    slots = [items[item] for item in inverse]
    return slots, forward, inverse, forward[:m], tuple(zip(forward[m::2], forward[m + 1 :: 2]))


def reference_refuse_disclosure(slots, pairs):
    """The per-train disclosure check the stacked rule replaced, kept as its oracle.

    Raises ValueError unless ``pairs`` names disjoint pairs of distinct slots of the train.
    """
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


def reference_restore_order(slots, order):
    return [slots[s] for s in order]


def event_kinds(log):
    return [event.kind for event in log.events]


def first_index(log, kind):
    """Index of the first event of the given kind; -1 when absent."""
    return next((event.index for event in log.events if event.kind == kind), -1)


def reference_tally(log):
    """The per-event tally the column one replaced, kept as its oracle."""
    q_message = q_decoy = b = 0
    for event in log.events:
        if event.kind == STATE_PREPARATION:
            if event.purpose == "decoy":
                q_decoy += event.qubit_count
            else:
                q_message += event.qubit_count
        b += event.counted_bits
    q = q_message if log.protocol == FIVE_PARTY else q_message + q_decoy
    return ResourceCount(log.key_bits, q, b)


def reference_payload_digest(payload):
    """The one-line digest the streamed, gathered one replaced, kept as its oracle."""
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


class TestScrambling:
    def test_sequence_and_record_shapes(self):
        store = QubitStore()
        message = [store.new_computational(0) for _ in range(2)]
        slots, rec = insert_decoys_and_permute(message, store, [np.random.default_rng(0)], 1)
        assert len(slots) == 4
        assert len(rec.decoy_pairs) == 1
        message_positions = set(rec.message_order.tolist())
        decoy_positions = set(rec.decoy_pairs.ravel().tolist())
        assert len(decoy_positions) == 2
        assert message_positions | decoy_positions == set(range(4))
        assert message_positions & decoy_positions == set()

    def test_a_stack_scrambles_train_by_train(self):
        # a (2, 3) stack of 2-qubit trains, one generator per train in row-major order
        store = QubitStore()
        messages = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 12)[:, 1].reshape(2, 3, 2)
        first_decoy = 24  # the next id: the stack's decoys come from one allocation
        slots, rec = insert_decoys_and_permute(
            messages, store, [np.random.default_rng(seed) for seed in range(6)], 2
        )
        assert slots.shape == rec.forward.shape == (2, 3, 6)
        assert rec.message_order.shape == (2, 3, 2) and rec.decoy_pairs.shape == (2, 3, 2, 2)
        for train, (i, j) in enumerate(np.ndindex(2, 3)):
            alone = QubitStore()
            _, ref = insert_decoys_and_permute(
                messages[i, j], alone, [np.random.default_rng(train)], 2
            )
            assert np.array_equal(rec.forward[i, j], ref.forward)
            assert np.array_equal(slots[i, j][rec.message_order[i, j]], messages[i, j])
            decoys = sorted(slots[i, j][rec.decoy_pairs[i, j]].ravel().tolist())
            assert decoys == list(range(first_decoy + 4 * train, first_decoy + 4 * train + 4))

    @pytest.mark.parametrize("lanes", [1, 3])
    @pytest.mark.parametrize("message, pairs", [(0, 1), (16, 16), (2048, 512)])
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_each_train_takes_what_permutation_draws(self, seed, message, pairs, lanes):
        """A train's slots follow ``rng.permutation(items)``, and each generator
        ends where that draw leaves it: the shuffle into a preset row keeps the stream."""
        store = QubitStore()
        messages = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], lanes * message)
        messages = messages[:, 1].reshape(lanes, message)
        decoys = np.arange(store._next_id, store._next_id + lanes * 2 * pairs).reshape(lanes, -1)
        rngs = [np.random.default_rng([seed, lane]) for lane in range(lanes)]
        twins = [np.random.default_rng([seed, lane]) for lane in range(lanes)]
        slots, _ = insert_decoys_and_permute(messages, store, rngs, pairs)
        for lane, twin in enumerate(twins):
            items = np.concatenate([messages[lane], decoys[lane]])
            assert np.array_equal(slots[lane], items[twin.permutation(items.size)])
            assert rngs[lane].bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("shape, generators, pairs, message", [
        ((2, 4), 1, 2, "1 generators given for 2 trains"),
        ((2, 3, 2), 4, 1, "4 generators given for 6 trains"),
        ((4,), 1, 2.0, "decoy_pair_count must be an integer, not 2.0"),
        ((4,), 1, True, "decoy_pair_count must be an integer, not True"),
    ], ids=["too-few-generators", "too-many-generators", "float-count", "bool-count"])
    def test_bad_input_refused_before_any_decoy(self, shape, generators, pairs, message):
        """The generator rule and the integer rule refuse before an id is
        allocated or a generator drawn from."""
        store = QubitStore()
        messages = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], math.prod(shape))
        messages = messages[:, 1].reshape(shape)
        rngs = [np.random.default_rng(seed) for seed in range(generators)]
        states = [rng.bit_generator.state for rng in rngs]
        next_id, live = store._next_id, store.live_qubits()
        with pytest.raises(ValueError) as refused:
            insert_decoys_and_permute(messages, store, rngs, pairs)
        assert str(refused.value) == message
        assert store._next_id == next_id and store.live_qubits() == live
        assert [rng.bit_generator.state for rng in rngs] == states

    def test_an_empty_stack_scrambles_nothing(self):
        store = QubitStore()
        slots, rec = insert_decoys_and_permute(np.empty((0, 4), dtype=np.int64), store, [], 2)
        assert slots.shape == rec.forward.shape == (0, 8)
        assert rec.decoy_pairs.shape == (0, 2, 2) and store._next_id == 0

    def test_forward_inverse_roundtrip(self):
        store = QubitStore()
        message = [store.new_computational(0) for _ in range(6)]
        slots, rec = insert_decoys_and_permute(message, store, [np.random.default_rng(3)], 3)
        inverse = np.argsort(rec.forward)
        for item in range(12):
            assert inverse[rec.forward[item]] == item
        for i, qubit in enumerate(message):
            assert slots[rec.message_order[i]] == qubit

    def test_permutation_is_uniform(self):
        # 4 slots -> 24 orderings; chi-square-style band of 1/24 +- 0.01.
        store = QubitStore()
        rng = np.random.default_rng(2024)
        counts = Counter()
        draws = 10_000
        for _ in range(draws):
            _, rec = insert_decoys_and_permute([0, 1], store, [rng], decoy_pair_count=1)
            counts[tuple(rec.forward.tolist())] += 1
        assert len(counts) == 24
        for freq in counts.values():
            assert abs(freq / draws - 1 / 24) < 0.01

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), half_n=st.integers(1, 8))
    def test_roundtrip_property(self, seed, half_n):
        store = QubitStore()
        message = [store.new_computational(0) for _ in range(2 * half_n)]
        rngs = [np.random.default_rng(seed)]
        slots, rec = insert_decoys_and_permute(message, store, rngs, half_n)
        restored = [slots[rec.forward[i]] for i in range(len(message))]
        assert restored == message

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        pairs=st.integers(0, 24),
        decoys=st.integers(0, 30),
    )
    def test_matches_tuple_reference(self, seed, pairs, decoys):
        # twin stores: message qubits are the travel halves of a Bell train
        stores = [QubitStore(), QubitStore()]
        message = [
            s.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], pairs)[:, 1].tolist() for s in stores
        ][0]
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        sent, rec = insert_decoys_and_permute(np.array(message), stores[0], [rng], decoys)
        slots, forward, inverse, order, decoy_pairs = reference_scramble(
            message, stores[1], ref_rng, decoys
        )
        m, k = len(message), len(decoy_pairs)
        assert sent.dtype == np.int64 and sent.tolist() == slots
        assert rec.forward.tolist() == list(forward)
        assert np.argsort(rec.forward).tolist() == list(inverse)
        assert rec.message_order.tolist() == list(order)
        assert rec.decoy_pairs.shape == (k, 2)
        assert rec.decoy_pairs.tolist() == [list(p) for p in decoy_pairs]
        assert k == decoys
        assert sent[rec.message_order].tolist() == reference_restore_order(slots, order)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert stores[0].live_qubits() == stores[1].live_qubits()
        for field in (rec.forward, rec.message_order, rec.decoy_pairs):
            assert field.dtype == np.int64 and not field.flags.writeable


class TestVerifyDecoys:
    def test_undisturbed_channel_passes(self):
        store = QubitStore()
        message = [store.new_computational(0) for _ in range(4)]
        slots, rec = insert_decoys_and_permute(message, store, [np.random.default_rng(1)], 2)
        passes, (rate,) = verify_decoys(
            store, slots[None], rec.decoy_pairs[None], 0.0, np.random.default_rng(2)
        )
        assert rate == 0.0 and passes == 1

    def test_vacuous_threshold_always_passes(self):
        store = QubitStore()
        a = store.new_computational(0)
        b = store.new_computational(0)
        slots, rec = insert_decoys_and_permute([a, b], store, [np.random.default_rng(1)], 1)
        # wreck the decoy pair by measuring one half in Z
        decoy_slot = next(iter(set(rec.decoy_pairs.ravel().tolist())))
        store.measure_z(slots[decoy_slot], np.random.default_rng(0))
        slots[decoy_slot] = store.new_computational(0)
        passes, _ = verify_decoys(
            store, slots[None], rec.decoy_pairs[None], 1.0, np.random.default_rng(3)
        )
        assert passes == 1

    @pytest.mark.parametrize("threshold", ["0.1", True, math.nan, 1.5])
    def test_bad_threshold_refused_before_anything_changes(self, threshold):
        """A threshold a run's config refuses is refused here too, before any
        qubit is measured or any uniform drawn."""
        store = QubitStore()
        message = [store.new_computational(0) for _ in range(4)]
        slots, rec = insert_decoys_and_permute(message, store, [np.random.default_rng(1)], 2)
        live, rng = store.live_qubits(), np.random.default_rng(2)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="error_threshold"):
            verify_decoys(store, slots[None], rec.decoy_pairs[None], threshold, rng)
        assert store.live_qubits() == live and rng.bit_generator.state == state

    def test_malformed_disclosure(self):
        store = QubitStore()
        message = [store.new_computational(0) for _ in range(2)]
        slots, _ = insert_decoys_and_permute(message, store, [np.random.default_rng(1)], 1)
        with pytest.raises(ValueError):
            verify_decoys(store, slots[None], [[(0, 0)]], 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            verify_decoys(store, slots[None], [[(0, 1), (1, 2)]], 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="2 disclosures for trains of shape"):
            verify_decoys(store, slots[None], [[(0, 1)], [(0, 1)]], 0.0, np.random.default_rng(0))
        # out of range, overlapping or empty: rejected before any random draw
        for disclosure, reason in (
            ([(-1, 0)], "malformed"),
            ([(0, len(slots))], "malformed"),
            ([(0, 1), (2, 1)], "disjoint"),
            ([], "empty"),
            (np.empty((0, 2), np.int64), "empty"),
        ):
            rng = np.random.default_rng(0)
            before = rng.bit_generator.state
            with pytest.raises(ValueError, match=reason):
                verify_decoys(store, slots[None], [disclosure], 0.0, rng)
            assert rng.bit_generator.state == before

    @pytest.mark.parametrize(
        "shift, disclosure",
        [(0.9, [[(0, 1)]]), (0, [[(0.7, 1.2)]]), (0, [[(0.0, 1.0)]]), (0, [[(True, False)]])],
    )
    def test_non_integer_slots_and_disclosures_refused_before_any_draw(self, shift, disclosure):
        store = QubitStore()
        ids = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 2).reshape(1, -1)
        rng = np.random.default_rng(0)
        before = (store.live_qubits(), rng.bit_generator.state)
        with pytest.raises(ValueError, match="decoy slots and disclosures must be integers"):
            verify_decoys(store, ids + shift, disclosure, 0.0, rng)
        assert (store.live_qubits(), rng.bit_generator.state) == before

    @staticmethod
    def _wrecked_trains(seed):
        """A store, three scrambled trains and their disclosures; some decoys wrecked in two."""
        store = QubitStore()
        rng = np.random.default_rng(seed)
        trains, disclosures = [], []
        for wrecked in (0, 2, 4):
            message = [store.new_computational(0) for _ in range(8)]
            slots, rec = insert_decoys_and_permute(message, store, [rng], 4)
            for a, b in rec.decoy_pairs[:wrecked].tolist():
                bits = [store.measure_z(slots[q], rng) for q in (a, b)]
                slots[a], slots[b] = (store.new_computational(bit) for bit in bits)
            trains.append(slots)
            disclosures.append(rec.decoy_pairs)
        return store, np.array(trains), np.array(disclosures)

    @pytest.mark.parametrize("seed", range(6))
    def test_several_trains_read_as_each_alone(self, seed):
        together, trains, disclosures = self._wrecked_trains(seed)
        alone, alone_trains, alone_disclosures = self._wrecked_trains(seed)
        g1, g2 = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
        passes, rates = verify_decoys(together, trains, disclosures, 0.2, g1)
        one_by_one = [
            verify_decoys(alone, train[None], disclosed[None], 0.2, g2)
            for train, disclosed in zip(alone_trains, alone_disclosures)
        ]
        assert rates == tuple(rate for _, (rate,) in one_by_one)
        assert passes == next(
            (i for i, (ok, _) in enumerate(one_by_one) if not ok), len(trains)
        )
        assert g1.bit_generator.state == g2.bit_generator.state
        assert together.live_qubits() == alone.live_qubits()

    def test_malformed_second_train_raises_before_any_draw(self):
        store, trains, disclosures = self._wrecked_trains(0)
        disclosures[1, :2] = [(0, 1), (2, 1)]
        live = store.live_qubits()
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="disjoint"):
            verify_decoys(store, trains, disclosures, 0.0, rng)
        assert rng.bit_generator.state == before
        assert store.live_qubits() == live

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_stacked_rule_refuses_as_each_train_alone(self, data):
        # valid disclosures (a permutation's leading slots), then a few entries replaced
        trains, items = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 8))
        width = data.draw(st.sampled_from([2, 2, 1, 3]))
        pairs = data.draw(st.integers(0, items // width))
        disclosed = np.array(
            [data.draw(st.permutations(range(items)))[: pairs * width] for _ in range(trains)],
            dtype=np.int64,
        ).reshape(trains, pairs, width)
        for _ in range(data.draw(st.integers(0, 2)) if disclosed.size else 0):
            at = tuple(data.draw(st.integers(0, side - 1)) for side in disclosed.shape)
            disclosed[at] = data.draw(st.integers(-2, items + 1))
        store = QubitStore()
        psi_plus = BELL_VECTORS[BellOutcome.PSI_PLUS]
        slots = store.new_train(psi_plus, trains * items)[:, 0].reshape(trains, items)
        try:
            for train, disclosure in zip(slots, disclosed):
                reference_refuse_disclosure(train, disclosure)
            refusal = None
        except ValueError as exc:
            refusal = str(exc)
        live, rng = store.live_qubits(), np.random.default_rng(0)
        before = rng.bit_generator.state
        if refusal is None:
            verify_decoys(store, slots, disclosed, 0.0, rng)
            return
        with pytest.raises(ValueError) as refused:
            verify_decoys(store, slots, disclosed, 0.0, rng)
        assert str(refused.value) == refusal
        assert rng.bit_generator.state == before
        assert store.live_qubits() == live

    def test_intercepted_pair_fails_half_the_time(self):
        # post intercept-resend a decoy pair reads |bb>: psi+ or psi- evenly
        fails = 0
        trials = 2000
        for seed in range(trials):
            store = QubitStore()
            rng = np.random.default_rng(seed)
            a, b = store.new_bell(BellOutcome.PSI_PLUS)
            bit_a = store.measure_z(a, rng)
            bit_b = store.measure_z(b, rng)
            assert bit_a == bit_b
            resent = [store.new_computational(bit_a), store.new_computational(bit_b)]
            passes, _ = verify_decoys(store, [resent], [[(0, 1)]], 0.0, rng)
            fails += passes == 0
        assert abs(fails / trials - 0.5) < 0.05


class TestTranscriptSnapshots:
    def _send(self, adversary):
        # threshold 1: the attacked train passes its check, so its row runs on
        stack = protocols._Stack(
            TWO_PARTY, 2, [1], [config(n=8, seed=12, error_threshold=1.0)], adversary
        )
        travel = stack.store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 8)[:, 1]
        (slots,), record, _ = stack.transmit(
            travel[None, None], [0], "step2", "step3", protocols._WITH_DECOYS
        )
        rec = PermutationRecord.of(record.forward[0, 0], 8)
        lane = Transcript(TWO_PARTY, 8, stack.table)
        (send,) = [e for e in lane.events if e.kind == QUANTUM_SEND]
        return travel, slots[0], rec, send.payload

    def test_transit_attack_leaves_logged_send_unchanged(self):
        attack = AdversaryModel(kind=AdversaryKind.INTERCEPT_RESEND_Z, fraction=1.0)
        travel, slots, rec, logged = self._send(attack)
        _, _, _, honest = self._send(AdversaryModel())
        # every slot was replaced in transit, yet the log names the sent train
        assert not np.isin(slots, logged["slots"]).any()
        assert np.array_equal(logged["slots"][rec.message_order], travel)
        assert np.array_equal(logged["slots"], honest["slots"])
        assert payload_digest(logged) == payload_digest(honest)
        assert not logged["slots"].flags.writeable

    @pytest.mark.parametrize(
        "parties, kind",
        [pytest.param(2, AdversaryKind.NONE, id="2"), pytest.param(3, AdversaryKind.NONE, id="3"),
         pytest.param(5, AdversaryKind.NONE, id="5"),
         pytest.param(2, AdversaryKind.DISHONEST_BOB_REORDER, id="2-dishonest-bob"),
         pytest.param(3, AdversaryKind.INTERCEPT_RESEND_Z, id="3-intercept-z")],
    )
    def test_payload_arrays_are_read_only(self, parties, kind):
        # lone runs and the lanes of a batch, a reordered step-7 order included
        base = config(n=8, parties=parties, seed=4, error_threshold=1.0)
        adversary = AdversaryModel(kind=kind, fraction=0.5)
        for r in [run_protocol(base, adversary), *protocols.run_batch(base, adversary, 3)]:
            arrays = [
                v for e in r.transcript.events for v in e.payload.values()
                if isinstance(v, np.ndarray)
            ]
            assert arrays
            for values in arrays:
                assert values.dtype == np.int64 and not values.flags.writeable
                with pytest.raises(ValueError):
                    values[...] = 0

    def test_log_copies_a_writeable_array(self):
        t = Transcript("two-party", 2)
        order = np.array([1, 0])
        event = t.log("step7", "Bob", MESSAGE_ORDER_DISCLOSURE, {"message_order": order})
        digest = event.to_dict()["digest"]
        order[0] = 5
        assert event.payload["message_order"].tolist() == [1, 0]
        assert event.to_dict()["digest"] == digest == payload_digest({"message_order": [1, 0]})


class TestEncodeDecode:
    def test_zero_key_is_identity(self):
        store = QubitStore()
        a, b = store.new_bell(BellOutcome.PSI_PLUS)
        before = store.register_of(a).amplitudes.copy()
        encode_key(store, [b], [0], X_WORD)
        np.testing.assert_array_equal(store.register_of(a).amplitudes, before)

    def test_x_round_bit_flips_to_phi_plus(self):
        store = QubitStore()
        a, b = store.new_bell(BellOutcome.PSI_PLUS)
        encode_key(store, [b], [1], X_WORD)
        assert store.measure_bell(a, b, np.random.default_rng(0)) is BellOutcome.PHI_PLUS

    def test_x_then_z_gives_phi_minus(self):
        store = QubitStore()
        a, b = store.new_bell(BellOutcome.PSI_PLUS)
        encode_key(store, [b], [1], X_WORD)
        encode_key(store, [b], [1], Z_WORD)
        assert store.measure_bell(a, b, np.random.default_rng(0)) is BellOutcome.PHI_MINUS

    def test_length_mismatch(self):
        store = QubitStore()
        _, b = store.new_bell(BellOutcome.PSI_PLUS)
        with pytest.raises(ValueError):
            encode_key(store, [b], [0, 1], X_WORD)

    @pytest.mark.parametrize(
        "key", [[2, 0], [0.5, -1], np.array([1, 255], dtype=np.uint8)]
    )
    def test_key_of_other_than_bits_refused_before_encoding(self, key):
        store = QubitStore()
        pairs = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 2)
        before = [store.register_of(int(a)).amplitudes.copy() for a in pairs[:, 0]]
        with pytest.raises(ValueError, match="bits must be a flat sequence of 0s and 1s"):
            encode_key(store, pairs[:, 1], key, X_WORD)
        for a, amplitudes in zip(pairs[:, 0], before):
            np.testing.assert_array_equal(store.register_of(int(a)).amplitudes, amplitudes)

    @pytest.mark.parametrize(
        "outcome,bits",
        [
            (BellOutcome.PSI_PLUS, (0, 0)),
            (BellOutcome.PSI_MINUS, (0, 1)),
            (BellOutcome.PHI_PLUS, (1, 0)),
            (BellOutcome.PHI_MINUS, (1, 1)),
        ],
    )
    def test_decode_outcome_map(self, outcome, bits):
        assert (outcome.x_bit, outcome.z_bit) == bits


class TestTwoParty:
    def test_agreement_and_ground_truth(self):
        for run in range(20):
            r = run_two_party(config(n=16, seed=100, run=run))
            assert not r.aborted
            assert np.array_equal(r.derived_keys["Alice"], r.derived_keys["Bob"])
            assert np.array_equal(
                r.derived_keys["Alice"], xor_bits(r.private_keys["Alice"], r.private_keys["Bob"])
            )

    def test_large_n_agreement(self):
        r = run_two_party(config(n=128, seed=5))
        assert r.agreement()

    def test_announcement_precedes_order_disclosure(self):
        for run in range(10):
            t = run_two_party(config(n=8, seed=7, run=run)).transcript
            key_idx = first_index(t, KEY_ANNOUNCEMENT)
            order_idx = first_index(t, MESSAGE_ORDER_DISCLOSURE)
            assert 0 <= key_idx < order_idx

    def test_return_leg_withholds_message_order(self):
        t = run_two_party(config(n=8, seed=7)).transcript
        kinds = event_kinds(t)
        # outbound leg: one full disclosure; return leg: decoys only, then
        # the order comes after the key announcement
        assert kinds.count(FULL_PERMUTATION_DISCLOSURE) == 1
        assert kinds.count(DECOY_POSITIONS_DISCLOSURE) == 1
        assert kinds.count(MESSAGE_ORDER_DISCLOSURE) == 1
        assert kinds.count(KEY_ANNOUNCEMENT) == 1

    def test_resource_counts_match_preset(self):
        for n in (2, 16, 64):
            r = run_two_party(config(n=n, seed=3))
            assert r.resource_counts == preset_counts("two-party", n)

    def test_decoy_soundness_no_spurious_aborts(self):
        for run in range(10_000):
            r = run_two_party(config(n=2, seed=12, run=run))
            assert not r.aborted
            assert all(c.error_rate == 0.0 for c in r.checks)

    def test_deterministic_json(self):
        a = run_two_party(config(n=16, seed=9)).to_json()
        b = run_two_party(config(n=16, seed=9)).to_json()
        assert a == b

    def test_contributiveness_single_bit_flip(self):
        n = 8
        base_keys = ((0,) * n, (1, 0) * (n // 2))
        base = run_two_party(config(n=n, seed=4, fixed_keys=base_keys))
        for party in range(2):
            for position in (0, 5):
                keys = [list(k) for k in base_keys]
                keys[party][position] ^= 1
                flipped = run_two_party(
                    config(n=n, seed=4, fixed_keys=tuple(tuple(k) for k in keys))
                )
                diff = [
                    i
                    for i in range(n)
                    if base.derived_keys["Alice"][i] != flipped.derived_keys["Alice"][i]
                ]
                assert diff == [position]

    def test_wrong_party_count_rejected(self):
        with pytest.raises(ValueError):
            run_two_party(config(n=8, parties=3))

    def test_odd_key_bits_rejected(self):
        with pytest.raises(ValueError):
            run_two_party(ProtocolConfig(key_bits=7))


class TestThreeParty:
    def test_agreement_small_batch(self):
        for run in range(30):
            r = run_three_party(config(n=8, parties=3, seed=50, run=run))
            assert not r.aborted
            truth = xor_bits(*r.private_keys.values())
            assert all(np.array_equal(k, truth) for k in r.derived_keys.values())

    def test_all_zero_keys_measure_psi_plus(self):
        zero = (0,) * 4
        r = run_three_party(
            config(n=4, parties=3, seed=1, fixed_keys=(zero, zero, zero))
        )
        for labels in r.outcome_records.values():
            assert set(labels) == {"psi+"}
        assert np.array_equal(r.derived_keys["Alice"], zero)

    def test_single_bit_row_phi_plus(self):
        # one pair through the ring by hand: X by the first neighbor, I by
        # the second -> phi+ at the originator, decoding to bits (1, 0)
        store = QubitStore()
        kept, travel = store.new_bell(BellOutcome.PSI_PLUS)
        encode_key(store, [travel], [1], X_WORD)  # K_B = 1
        encode_key(store, [travel], [0], Z_WORD)  # K_C = 0
        outcome = store.measure_bell(kept, travel, np.random.default_rng(0))
        assert outcome is BellOutcome.PHI_PLUS
        assert (outcome.x_bit, outcome.z_bit) == (1, 0)
        assert 0 ^ 1 ^ 0 == 1  # K = K_A xor K_B xor K_C

    def test_ground_truth_oracle_random_keys(self):
        rng = np.random.default_rng(77)
        for run in range(25):
            keys = tuple(
                tuple(int(b) for b in rng.integers(0, 2, size=8)) for _ in range(3)
            )
            r = run_three_party(config(n=8, parties=3, seed=60, run=run, fixed_keys=keys))
            truth = xor_bits(*keys)
            assert all(np.array_equal(k, truth) for k in r.derived_keys.values())

    def test_order_disclosure_follows_decoy_check(self):
        t = run_three_party(config(n=8, parties=3, seed=2)).transcript
        decoy_seen = set()
        for event in t.events:
            tag = (event.step, event.actor)
            if event.kind == DECOY_POSITIONS_DISCLOSURE:
                decoy_seen.add(tag)
            elif event.kind == MESSAGE_ORDER_DISCLOSURE:
                assert tag in decoy_seen

    def test_resource_counts_match_preset(self):
        r = run_three_party(config(n=4, parties=3, seed=8))
        assert r.resource_counts == preset_counts("three-party", 4)

    def test_contributiveness(self):
        n = 6
        base_keys = tuple(tuple(int(b) for b in np.random.default_rng(s).integers(0, 2, n))
                          for s in (1, 2, 3))
        base = run_three_party(config(n=n, parties=3, seed=11, fixed_keys=base_keys))
        keys = [list(k) for k in base_keys]
        keys[2][4] ^= 1
        flipped = run_three_party(
            config(n=n, parties=3, seed=11, fixed_keys=tuple(tuple(k) for k in keys))
        )
        diff = [
            i
            for i in range(n)
            if base.derived_keys["Bob"][i] != flipped.derived_keys["Bob"][i]
        ]
        assert diff == [4]


class TestLockstepHops:
    @pytest.mark.parametrize("parties, checks, encodes", [(3, 3, 2), (5, 5, 4)])
    def test_each_hop_is_one_check_and_one_encode(self, parties, checks, encodes, monkeypatch):
        calls = Counter()
        for name in ("verify_decoys", "encode_key"):
            original = getattr(protocols, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(protocols, name, counting)
        r = run_protocol(config(n=16, parties=parties, seed=4))
        assert r.agreement()
        assert calls == {"verify_decoys": checks, "encode_key": encodes}


class TestOneTransmissionPath:
    def test_each_transport_step_has_one_call_site(self):
        # both engines scramble, attack and check through _Stack.transmit only
        tree = ast.parse(inspect.getsource(protocols))
        calls = Counter(
            node.func.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        )
        for name in ("insert_decoys_and_permute", "verify_decoys", "attack_transit"):
            assert calls[name] == 1, name


def _classes_beside_the_stack():
    """Every class ``protocols`` defines, ``_Stack`` aside, as AST nodes."""
    tree = ast.parse(inspect.getsource(protocols))
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    assert "_Stack" in {node.name for node in classes}
    return [node for node in classes if node.name != "_Stack"]


def _names_used(node):
    """The attribute and method names ``node`` defines or reads."""
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)} | {
        n.name for n in ast.walk(node) if isinstance(n, ast.FunctionDef)
    }


class TestOneLoggingPath:
    def test_the_stack_table_is_the_only_log(self):
        # the engines log each event once, through the stack's event table;
        # no per-lane logging path through a lane's transcript may come back
        tree = ast.parse(inspect.getsource(protocols))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "log":
                    owner = node.func.value
                    assert not (isinstance(owner, ast.Name) and owner.id == "Transcript")
                    assert not (isinstance(owner, ast.Attribute) and owner.attr == "transcript")
        helpers = {"log", "log_preparation", "send", "disclose_full", "disclose_decoys",
                   "disclose_order", "announce_key", "record_check"}
        for cls in _classes_beside_the_stack():
            assert not helpers & _names_used(cls), cls.name

    def test_no_per_lane_class(self):
        # a lane is a row of its stack: no class beside _Stack keeps state of
        # its own (the others are records), so no per-lane record may come back
        for cls in _classes_beside_the_stack():
            assigned = [
                target
                for node in ast.walk(cls)
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                if isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ]
            assert assigned == [], cls.name


class TestOneKeyArray:
    def test_lanes_hold_no_keys_of_their_own(self):
        # every lane's keys are its row of the stack's one key array, and its
        # generator its row of the stack's ``rngs``; no other class may hold
        # a generator, a key list or a key draw
        stack = _names_used(ast.parse(inspect.getsource(protocols._Stack)))
        assert {"rngs", "keys", "draw_keys"} <= stack
        held = {"rng", "rngs", "keys", "_keys", "draw_key", "draw_keys"}
        for cls in _classes_beside_the_stack():
            assert not held & _names_used(cls), cls.name


class TestOneHomePerRule:
    """Each input rule's refusal is spelled once in the package: the rule has one home."""

    RULES = {
        "group": (
            "every group must hold the same number of qubits",
            "a group must name at least one qubit",
            "groups must name distinct qubits",
        ),
        "state": ("are not rows of 2^k amplitudes", "every state's norm^2 must be 1"),
        "basis size": ("basis row length must be 2^(number of measured qubits)",),
        "arity": ("element arity {element.arity} does not match {targets} targets",),
        "subgroup arity": ("subgroups must share one arity",),
        "bit": ("bits must be a flat sequence of 0s and 1s",),
        "swap count": ("swap count must be nonnegative", "swap count too large for the key length"),
        "integer": ("must be an integer, not",),
        "generators": ("generators given for {trains} trains",),
        "disclosure": (
            "decoy disclosure is empty",
            "decoy slots and disclosures must be integers",
            "malformed decoy pair",
            "decoy pairs must be disjoint",
        ),
        "round": ("five_party_rounds must be four digits from 1..6",),
        "unit interval": ("must lie in [0, 1]", "must be a number, not"),
        "trials": ("trials must be >= 1",),
    }

    @pytest.mark.parametrize("rule", list(RULES))
    def test_each_refusal_is_spelled_once(self, rule):
        package = Path(protocols.__file__).parent
        source = "".join(path.read_text() for path in sorted(package.glob("*.py")))
        for message in self.RULES[rule]:
            assert source.count(message) == 1, message


def _private_imports(source):
    """Underscore names, dunders aside, that ``source`` imports from qka or a sibling module."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "qka")
        for alias in node.names
        if alias.name.startswith("_")
        and not (alias.name.startswith("__") and alias.name.endswith("__"))
    ]


class TestNoPrivateImports:
    def test_no_module_imports_a_private_name_of_a_sibling(self):
        package = Path(protocols.__file__).parent
        for path in sorted(package.glob("*.py")):
            assert _private_imports(path.read_text()) == [], path.name

    def test_the_guard_sees_a_private_import(self):
        source = "from . import __version__\nfrom .protocols import _json_text, json_chunks\n"
        assert _private_imports(source) == ["_json_text"]
        assert _private_imports("from qka.registers import _checked_states") == ["_checked_states"]


class TestUnitIntervalRule:
    """The decoy tolerance and the attack fraction are ints or floats in [0, 1]."""

    @pytest.mark.parametrize("value", ["0.1", True, math.nan])
    def test_threshold_refused_before_any_allocation_or_draw(self, value, monkeypatch):
        bad = replace(config(n=16, parties=3), error_threshold=value)
        with pytest.raises(ValueError, match="error_threshold must"):
            bad.validate()
        monkeypatch.setattr(ProtocolConfig, "make_rng", mock.Mock(side_effect=AssertionError))
        monkeypatch.setattr(QubitStore, "new_train", mock.Mock(side_effect=AssertionError))
        with pytest.raises(ValueError, match="error_threshold must"):
            run_protocol(bad)
        with pytest.raises(ValueError, match="error_threshold must"):
            protocols.run_batch(bad, trials=3)

    @pytest.mark.parametrize("value", ["0.5", True, math.nan])
    def test_fraction_refused_before_any_allocation_or_draw(self, value):
        store = QubitStore()
        slots = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 2).reshape(1, -1)
        rng = np.random.default_rng(0)
        before = (store._next_id, store.live_qubits(), rng.bit_generator.state)
        with pytest.raises(ValueError, match="attack fraction must"):
            model = AdversaryModel(kind=AdversaryKind.INTERCEPT_RESEND_Z, fraction=value)
            attack_transit(model, store, slots, [rng])
        assert (store._next_id, store.live_qubits(), rng.bit_generator.state) == before

    @pytest.mark.parametrize("value", [np.float64(0.5), 1])
    def test_int_and_float_subclass_accepted(self, value):
        base = config(n=16, parties=3, seed=4)

        def run(value):
            attack = AdversaryModel(kind=AdversaryKind.INTERCEPT_RESEND_Z, fraction=value)
            return run_protocol(replace(base, error_threshold=value), attack).to_json()

        assert run(value) == run(float(value))


class TestOneResultBuilder:
    def test_every_result_is_built_at_one_call_site(self):
        # completed and aborted lanes alike end in _Stack._end
        tree = ast.parse(inspect.getsource(protocols))
        builds = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "ProtocolResult"
        ]
        assert len(builds) == 1


class TestStackedBatches:
    """A batch runs its trials as lanes of one store; each is still its own run."""

    @staticmethod
    def _comparable(result):
        """``to_dict()`` without the quantum-send digests, the only payloads holding qubit ids."""
        d = result.to_dict()
        for event in d["transcript"]["events"]:
            if event["kind"] == QUANTUM_SEND:
                del event["digest"]
        return d

    def _assert_each_trial_is_its_own_run(self, base, adversary, trials):
        batch = protocols.run_batch(base, adversary, trials)
        assert len(batch) == trials
        for i, result in enumerate(batch):
            alone = run_protocol(replace(base, run_index=i), adversary)
            assert self._comparable(result) == self._comparable(alone), i
        return batch

    @pytest.mark.parametrize(
        "parties, kind, fraction, index, threshold, mixed",
        [
            # intercept-z on a plain hop, key-bearing hops and the last hop;
            # in a mixed batch some lanes abort at the attacked check and the
            # rest run on without them
            (5, AdversaryKind.INTERCEPT_RESEND_Z, 0.3, 0, 0.0, True),
            (5, AdversaryKind.INTERCEPT_RESEND_Z, 0.3, 7, 0.0, True),
            (5, AdversaryKind.INTERCEPT_RESEND_Z, 1.0, 13, 0.0, False),
            (5, AdversaryKind.INTERCEPT_RESEND_Z, 1.0, 24, 0.0, False),
            (3, AdversaryKind.INTERCEPT_RESEND_Z, 0.3, 4, 0.0, True),
            (3, AdversaryKind.INTERCEPT_RESEND_BELL, 0.25, 0, 0.0, False),
            (3, AdversaryKind.INTERCEPT_RESEND_BELL, 1.0, 5, 0.0, False),
            # a threshold above 0: attacked lanes that pass decode attacked copies
            (5, AdversaryKind.INTERCEPT_RESEND_Z, 0.3, 2, 0.25, True),
            (3, AdversaryKind.INTERCEPT_RESEND_BELL, 0.25, 3, 0.25, True),
            (5, AdversaryKind.NONE, 1.0, 0, 0.0, False),
            (3, AdversaryKind.NONE, 1.0, 0, 0.0, False),
            # two-party: every adversary kind, intercepts on either train,
            # and at threshold 1 attacked lanes that decode attacked copies
            (2, AdversaryKind.NONE, 1.0, 0, 0.0, False),
            (2, AdversaryKind.INTERCEPT_RESEND_Z, 0.1, 0, 0.0, True),
            (2, AdversaryKind.INTERCEPT_RESEND_Z, 0.1, 1, 0.0, True),
            (2, AdversaryKind.INTERCEPT_RESEND_Z, 1.0, 1, 1.0, False),
            (2, AdversaryKind.INTERCEPT_RESEND_BELL, 0.1, 0, 0.0, True),
            (2, AdversaryKind.INTERCEPT_RESEND_BELL, 0.25, 1, 0.0, True),
            (2, AdversaryKind.INTERCEPT_RESEND_BELL, 1.0, 1, 1.0, False),
            (2, AdversaryKind.DISHONEST_ALICE_EARLY_MEASURE, 1.0, 0, 0.0, False),
            (2, AdversaryKind.DISHONEST_BOB_REORDER, 1.0, 0, 0.0, False),
            (2, AdversaryKind.INTERCEPT_RESEND_Z, 0.3, 0, 0.25, True),
            (2, AdversaryKind.INTERCEPT_RESEND_Z, 0.3, 1, 0.25, True),
            # every lane aborts at the attacked check and the stack ends there
            (2, AdversaryKind.INTERCEPT_RESEND_Z, 1.0, 0, 0.0, False),
            (2, AdversaryKind.INTERCEPT_RESEND_Z, 1.0, 1, 0.0, False),
        ],
    )
    def test_each_trial_is_its_own_run(self, parties, kind, fraction, index, threshold, mixed):
        base = config(n=16, parties=parties, seed=21, error_threshold=threshold)
        adversary = AdversaryModel(kind=kind, fraction=fraction, transmission_index=index)
        batch = self._assert_each_trial_is_its_own_run(base, adversary, 12)
        assert len({r.aborted for r in batch}) == 1 + mixed

    @pytest.mark.parametrize(
        "parties, index, threshold",
        [
            # three-party: the first, middle and last sender of the plain hop
            # and of the first key-bearing hop
            (3, 0, 0.25), (3, 1, 0.25), (3, 2, 0.25), (3, 3, 0.25), (3, 4, 0.0), (3, 5, 0.25),
            # five-party: the same on the plain hop and on the second key-bearing hop
            (5, 0, 0.25), (5, 2, 0.0), (5, 4, 0.25), (5, 10, 0.25), (5, 12, 0.25),
            (5, 14, 0.0),
        ],
    )
    def test_lanes_that_leave_mid_hop(self, parties, index, threshold):
        # the attacked train fails for some lanes only: they abort at that
        # sender, and the rest disclose and check the hop's later senders
        base = config(n=16, parties=parties, seed=31, error_threshold=threshold)
        adversary = AdversaryModel(
            kind=AdversaryKind.INTERCEPT_RESEND_Z, fraction=0.3, transmission_index=index
        )
        batch = self._assert_each_trial_is_its_own_run(base, adversary, 12)
        assert len({r.aborted for r in batch}) == 2
        for result in batch:
            log = result.transcript
            events = log.events
            assert log.events is events
            assert [e.index for e in events] == list(range(len(events)))
            arrays = [v for e in events for v in e.payload.values() if isinstance(v, np.ndarray)]
            assert arrays and not any(values.flags.writeable for values in arrays)
            assert log.tally_columns() == tuple(
                tuple(getattr(e, column) for e in events)
                for column in ("kind", "purpose", "qubit_count", "counted_bits")
            )
            if not result.aborted:
                assert count_from_transcript(log) == reference_tally(log)

    @pytest.mark.parametrize(
        "parties, kind, index, threshold",
        [
            # lanes that leave mid-hop, on the plain and on a key-bearing hop
            (3, AdversaryKind.INTERCEPT_RESEND_Z, 1, 0.25),
            (3, AdversaryKind.INTERCEPT_RESEND_Z, 4, 0.0),
            (5, AdversaryKind.INTERCEPT_RESEND_Z, 2, 0.0),
            (5, AdversaryKind.INTERCEPT_RESEND_Z, 12, 0.25),
            (2, AdversaryKind.INTERCEPT_RESEND_Z, 1, 0.0),
            (2, AdversaryKind.DISHONEST_BOB_REORDER, 0, 0.0),
        ],
    )
    def test_completed_lanes_share_one_tally(self, parties, kind, index, threshold, monkeypatch):
        # abort rows carry no counts, so each stack tallies once for its completed lanes
        monkeypatch.setattr(protocols, "_STACK_KEY_BITS", 96)  # stacks of 6 lanes at n=16
        tallied = []

        def counting(log):
            tallied.append(log)
            return count_from_transcript(log)

        monkeypatch.setattr(protocols, "count_from_transcript", counting)
        base = config(n=16, parties=parties, seed=31, error_threshold=threshold)
        adversary = AdversaryModel(kind=kind, fraction=0.3, transmission_index=index)
        batch = protocols.run_batch(base, adversary, 12)
        stacks = [batch[:6], batch[6:]]
        completed = [[r for r in stack if not r.aborted] for stack in stacks]
        assert len(tallied) == sum(1 for lanes in completed if lanes)
        for lanes in completed:
            for r in lanes:
                assert r.resource_counts == count_from_transcript(r.transcript)
                assert r.resource_counts == reference_tally(r.transcript)
                assert r.resource_counts is lanes[0].resource_counts
        if kind is AdversaryKind.INTERCEPT_RESEND_Z:
            assert any(lanes and len(lanes) < 6 for lanes in completed)  # a mixed stack

    @pytest.mark.parametrize(
        "kind, keyed",
        [(AdversaryKind.DISHONEST_BOB_REORDER, False), (AdversaryKind.NONE, True),
         (AdversaryKind.DISHONEST_BOB_REORDER, True),
         (AdversaryKind.DISHONEST_ALICE_EARLY_MEASURE, True)],
    )
    def test_two_party_pinned_swaps_and_fixed_keys(self, kind, keyed):
        keys = ((1, 0) * 8, (0, 0, 1, 1) * 4) if keyed else None
        base = config(n=16, seed=23, fixed_keys=keys)
        adversary = AdversaryModel(kind=kind, swap_pairs=((3, 11), (0, 15), (6, 7)))
        batch = self._assert_each_trial_is_its_own_run(base, adversary, 12)
        assert not any(r.aborted for r in batch)
        if kind is AdversaryKind.DISHONEST_BOB_REORDER:
            assert {tuple(map(tuple, r.attack_report["swap_pairs"])) for r in batch} == {
                adversary.swap_pairs
            }

    @pytest.mark.parametrize("parties", [2, 3, 5])
    def test_a_batch_of_several_stacks(self, parties, monkeypatch):
        # 3 lanes per stack at n=16: stacks of 3, 3 and 1
        monkeypatch.setattr(protocols, "_STACK_KEY_BITS", 48)
        base = config(n=16, parties=parties, seed=2, error_threshold=0.25)
        adversary = AdversaryModel(  # on the first key-bearing train
            kind=AdversaryKind.INTERCEPT_RESEND_Z, fraction=0.5,
            transmission_index=1 if parties == 2 else parties,
        )
        self._assert_each_trial_is_its_own_run(base, adversary, 7)

    def test_the_stack_size_is_a_key_bit_budget(self):
        n = 16
        trials = protocols._STACK_KEY_BITS // n + 3
        self._assert_each_trial_is_its_own_run(config(n=n, parties=3, seed=6), None, trials)

    # sha256 of ``to_json()`` of n=16 two-party runs at seed 3, threshold 1 (so
    # attacked runs finish) and fraction 0.5, from the engine that ran
    # two-party trials one by one, each through a store of its own.
    ONE_LANE_DIGESTS = {
        AdversaryKind.NONE: "fa6530b7e42d0a9ef76b1a13ce55478f0bb84bafa3d429278d81879ab90508ba",
        AdversaryKind.INTERCEPT_RESEND_Z:
            "6eafe021bd1fc5e10520178d95de148d746525ded8fda1b9f867c15a7ff2204a",
        AdversaryKind.INTERCEPT_RESEND_BELL:
            "71fc4c38ca45785e56b982de8a59aa81545621bcefca0b32bceacbcda5335901",
        AdversaryKind.DISHONEST_ALICE_EARLY_MEASURE:
            "fb29720148366f929bee91670d0307e82e8662c65ecf668dc8d222e9366aafd9",
        AdversaryKind.DISHONEST_BOB_REORDER:
            "0251ebd58f0292def38101195b48b44f46b589a07f692934b6750735ea8440a5",
    }

    @pytest.mark.parametrize("kind", list(AdversaryKind))
    def test_a_one_lane_stack_is_a_two_party_run(self, kind):
        base = config(n=16, seed=3, error_threshold=1.0)
        adversary = AdversaryModel(kind=kind, fraction=0.5)
        alone = run_two_party(base, adversary).to_json()
        assert hashlib.sha256(alone.encode()).hexdigest() == self.ONE_LANE_DIGESTS[kind]
        assert protocols.run_batch(base, adversary, 1)[0].to_json() == alone

    def test_records_stay_read_only_when_lanes_leave(self, monkeypatch):
        returned = []
        transmit = protocols._Stack.transmit

        def recording(self, *args):
            returned.append(transmit(self, *args))
            return returned[-1]

        monkeypatch.setattr(protocols._Stack, "transmit", recording)
        adversary = AdversaryModel(kind=AdversaryKind.INTERCEPT_RESEND_Z, fraction=0.1)
        protocols.run_batch(config(n=16, seed=21), adversary, 12)
        assert any(kept != slice(None) for _, _, kept in returned)  # some lanes left
        assert not any(record.forward.flags.writeable for _, record, _ in returned)

    @pytest.mark.parametrize("trials", [0, 2.0, True])
    def test_no_trials_refused(self, trials):
        with pytest.raises(ValueError, match="trials"):
            protocols.run_batch(config(n=8), None, trials)

    @pytest.mark.parametrize("parties", [2, 3, 5])
    def test_a_stack_shares_each_store_call(self, parties, monkeypatch):
        calls = Counter()
        for name in ("new_train", "measure_rows_in_basis", "apply_pauli_groups"):
            original = getattr(QubitStore, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(QubitStore, name, counting)
        single = Counter()
        run_protocol(config(n=16, parties=parties, seed=4))
        single, calls = calls, Counter()
        batch = protocols.run_batch(config(n=16, parties=parties, seed=4), None, 4)
        assert all(r.agreement() for r in batch)
        assert calls == single
        # the pairs or copies, then one decoy allocation per two-party send or ring hop
        assert calls["new_train"] == 1 + parties
        # one decode (a ring's parties decode together at n=16), then one
        # decoy check per two-party send or ring hop
        assert calls["measure_rows_in_basis"] == 1 + parties

    @pytest.mark.parametrize("parties", [3, 5])
    def test_honest_runs_recheck_no_constant(self, parties, monkeypatch):
        checks = Counter()
        real = registers._real

        def counting(values):
            checks["real"] += 1
            return real(values)

        monkeypatch.setattr(registers, "_real", counting)
        assert run_protocol(config(n=16, parties=parties, seed=4)).agreement()
        assert checks == {}
        assert not BELL_VECTORS.flags.writeable


class TestFiveParty:
    def test_agreement_both_states_all_quadruples(self):
        for state, rounds in itertools.product(("omega", "cluster"), ("1234", "1256", "3456")):
            r = run_five_party(
                config(n=4, parties=5, seed=21, five_party_state=state,
                       five_party_rounds=rounds)
            )
            assert not r.aborted
            truth = xor_bits(*r.private_keys.values())
            assert all(np.array_equal(k, truth) for k in r.derived_keys.values())

    def test_all_zero_keys_leave_state_unchanged(self):
        zero = (0,) * 2
        r = run_five_party(
            config(n=2, parties=5, seed=3, fixed_keys=(zero,) * 5)
        )
        for labels in r.outcome_records.values():
            assert set(labels) == {"II"}

    def test_all_ones_composite_operator(self):
        # generators of g1..g4 composed letter-wise: (IX)(XI)(IZ)(ZI) = Y*Y*
        gens = [sub.non_identity()[0] for sub in five_party_round_subgroups("1234")]
        word = GroupElement.identity(2)
        for gen in gens:
            word = word * gen
        assert word.label == "Y*Y*"

        ones = (1,) * 2
        r = run_five_party(config(n=2, parties=5, seed=3, fixed_keys=(ones,) * 5))
        for labels in r.outcome_records.values():
            assert set(labels) == {"Y*Y*"}
        assert r.derived_keys["Alice"].tolist() == [1, 1]  # five ones xor to one

    def test_single_copy_direct_decode(self):
        # drive one copy outside the protocol: apply all four generators and
        # read the composite back off the projective measurement
        store = QubitStore()
        ids = store.new_four_qubit(FourQubitState.OMEGA)
        subs = five_party_round_subgroups("1234")
        for sub in subs:
            store.apply_pauli(sub.non_identity()[0], (ids[0], ids[2]))
        reference = StateRegister((0, 1, 2, 3), four_qubit_vector(FourQubitState.OMEGA))
        elements = canonical_order(product_set(subs))
        basis = np.stack([apply_element(reference, u, (0, 2)).amplitudes for u in elements])
        idx = store.measure_in_basis(ids, basis, np.random.default_rng(0))
        assert elements[idx].label == "Y*Y*"

    def test_invalid_quadruple_rejected_before_quantum_work(self):
        with pytest.raises(InvalidSchemeError):
            run_five_party(config(n=4, parties=5, five_party_rounds="1134"))
        with pytest.raises(InvalidSchemeError):
            run_five_party(config(n=4, parties=5, five_party_rounds="1235"))

    @pytest.mark.parametrize("digits", ["0000", "7", "12", "12345", "123a", "", 1234])
    def test_malformed_round_selection_refused(self, digits):
        # the rule ProtocolConfig.validate applies, with the same message
        message = "five_party_rounds must be four digits from 1..6"
        with pytest.raises(ValueError, match=message):
            five_party_round_subgroups(digits)
        with pytest.raises(ValueError, match=message):
            config(n=4, parties=2, five_party_rounds=digits).validate()

    def test_decode_table_is_built_once_and_bad_rounds_always_raise(self):
        from qka.protocols import _five_party_ring

        assert _five_party_ring("cluster", "1256") is _five_party_ring("cluster", "1256")
        for _ in range(2):
            with pytest.raises(InvalidSchemeError):
                run_five_party(config(n=4, parties=5, five_party_rounds="1245"))

    def test_resource_counts_match_preset(self):
        r = run_five_party(config(n=4, parties=5, seed=2))
        assert r.resource_counts == preset_counts("five-party", 4)

    def test_contributiveness(self):
        n = 4
        base_keys = tuple(tuple(int(b) for b in np.random.default_rng(s).integers(0, 2, n))
                          for s in range(5))
        base = run_five_party(config(n=n, parties=5, seed=31, fixed_keys=base_keys))
        keys = [list(k) for k in base_keys]
        keys[3][1] ^= 1
        flipped = run_five_party(
            config(n=n, parties=5, seed=31, fixed_keys=tuple(tuple(k) for k in keys))
        )
        diff = [
            i
            for i in range(n)
            if base.derived_keys["Erika"][i] != flipped.derived_keys["Erika"][i]
        ]
        assert diff == [1]

    def test_dispatcher_refuses_adversary(self):
        # insiders act on two-party only; intercept-bell would chain the
        # 4-qubit copies past the register cap
        from qka.adversaries import AdversaryKind, AdversaryModel, attack_transit

        for kind in (
            AdversaryKind.INTERCEPT_RESEND_BELL,
            AdversaryKind.DISHONEST_ALICE_EARLY_MEASURE,
            AdversaryKind.DISHONEST_BOB_REORDER,
        ):
            with pytest.raises(ValueError):
                run_protocol(config(n=4, parties=5), AdversaryModel(kind=kind))
            with pytest.raises(ValueError):
                run_five_party(config(n=4, parties=5), AdversaryModel(kind=kind))

    def test_order_disclosure_follows_decoy_check(self):
        t = run_five_party(config(n=4, parties=5, seed=6)).transcript
        decoy_seen = set()
        for event in t.events:
            tag = (event.step, event.actor)
            if event.kind == DECOY_POSITIONS_DISCLOSURE:
                decoy_seen.add(tag)
            elif event.kind == MESSAGE_ORDER_DISCLOSURE:
                assert tag in decoy_seen


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def reference_bits_to_hex(bits):
    """The one-liner the packbits version replaced, kept as its oracle."""
    value = int(bytes(map(int, bits)).translate(_BIT_DIGITS), 2) if len(bits) else 0
    width = (len(bits) + 3) // 4
    return f"{value:0{width}x}"


def _as_form(bits, form):
    return tuple(bits) if form == "tuple" else np.array(bits, dtype=form)


_BIT_LISTS = st.one_of(
    st.lists(st.integers(0, 1), max_size=70),
    st.integers(0, 2**32 - 1).map(lambda seed: np.random.default_rng(seed).integers(0, 2, 1024).tolist()),
)


class TestResultRendering:
    def test_hex_rendering(self):
        assert bits_to_hex((1, 0, 1, 1)) == "b"
        assert bits_to_hex((0, 0, 1, 0, 1, 1)) == "0b"
        assert bits_to_hex((1,) * 8) == "ff"
        assert bits_to_hex(()) == "0"

    def test_list_goes_through_the_bit_rule(self):
        assert bits_to_hex([1.0, 0.0]) == bits_to_hex([1, 0]) == "2"
        for bad in ([0.5, 1], [1, (0,)], [1, 2]):
            with pytest.raises(ValueError, match="bits must be a flat sequence of 0s and 1s"):
                bits_to_hex(bad)

    @settings(max_examples=300, deadline=None)
    @given(bits=_BIT_LISTS, form=st.sampled_from(["tuple", "int64", "uint8", "bool"]))
    def test_hex_matches_the_reference(self, bits, form):
        value = _as_form(bits, form)
        assert bits_to_hex(value) == reference_bits_to_hex(value)

    @settings(max_examples=100, deadline=None)
    @given(
        bits=_BIT_LISTS,
        bad=st.sampled_from([2, -1]),
        where=st.integers(0, 1024),
        form=st.sampled_from(["tuple", "int64"]),
    )
    def test_hex_refuses_what_is_not_a_bit(self, bits, bad, where, form):
        bits.insert(where % (len(bits) + 1), bad)
        value = _as_form(bits, form)
        with pytest.raises(ValueError):
            reference_bits_to_hex(value)
        with pytest.raises(ValueError):
            bits_to_hex(value)

    def test_json_roundtrips_and_has_schema(self):
        r = run_two_party(config(n=8, seed=44))
        payload = json.loads(r.to_json())
        assert payload["schema"] == "qka.run/1"
        assert payload["transcript"]["schema"] == "qka.transcript/1"
        assert payload["agreement"] is True
        assert payload["efficiency"]["eta_fraction"] == "1/7"

    def test_transcript_digests_differ_between_seeds(self):
        t1 = run_two_party(config(n=8, seed=1)).transcript.to_dict()
        t2 = run_two_party(config(n=8, seed=2)).transcript.to_dict()
        d1 = [e["digest"] for e in t1["events"]]
        d2 = [e["digest"] for e in t2["events"]]
        assert d1 != d2


_INT_DTYPES = [np.dtype(f"{kind}{size}") for kind in "iu" for size in (1, 2, 4, 8)]
# 0, both sides of every power of ten, the table's edge and the dtype limits
_EDGES = sorted(
    {0, 1, transcript._TABLE_BOUND - 1, transcript._TABLE_BOUND, np.iinfo(np.int64).max}
    | {10**k + d for k in range(20) for d in (-1, 0, 1)}
    | {-1, -10, np.iinfo(np.int64).min}
)


@st.composite
def _int_arrays(draw):
    dtype = draw(st.sampled_from(_INT_DTYPES))
    info = np.iinfo(dtype)
    # mostly values the table covers; sometimes any value of the dtype
    top = draw(st.sampled_from([10, 1000, 50_000, transcript._TABLE_BOUND - 1, info.max]))
    low = draw(st.sampled_from([0, 0, 0, info.min]))
    top = min(top, info.max)
    edges = [v for v in _EDGES if low <= v <= top]
    elements = st.one_of(st.integers(low, top), st.sampled_from(edges))
    shape = draw(st.one_of(
        st.just(()),
        st.tuples(st.integers(0, 120)),
        st.tuples(st.integers(0, 60), st.integers(0, 5)),
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    ))
    values = draw(hnp.arrays(dtype, shape, elements=elements))
    view = draw(st.sampled_from(["as-is", "step", "reverse", "transpose", "pairs", "read-only"]))
    if view == "step" and values.ndim:
        values = values[:: draw(st.integers(2, 3))]
    elif view == "reverse" and values.ndim:
        values = values[::-1]
    elif view == "transpose":
        values = values.T
    elif view == "pairs":
        # the decoy_pairs view of a record: the tail of forward, two to a row
        flat = values.ravel()
        m = draw(st.integers(0, flat.size))
        values = flat[m : m + (flat.size - m) // 2 * 2].reshape(-1, 2)
    elif view == "read-only":
        values.flags.writeable = False
    return values


_OTHER_ARRAYS = st.one_of(
    hnp.arrays(np.bool_, hnp.array_shapes(min_dims=0, max_dims=2, max_side=40)),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=40)),
)
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)
_PAYLOADS = st.one_of(
    st.dictionaries(
        st.text(max_size=8),
        st.one_of(_int_arrays(), st.one_of(_OTHER_ARRAYS, _JSON_VALUES)),
        max_size=4,
    ),
    _JSON_VALUES,
    _int_arrays(),
)


def _json_bytes(values) -> bytes:
    return json.dumps(values.tolist(), separators=(",", ":")).encode()


class TestPayloadDigest:
    @settings(max_examples=400, deadline=None)
    @given(payload=_PAYLOADS, min_size=st.sampled_from([1, transcript._GATHER_MIN_SIZE]))
    def test_matches_reference(self, payload, min_size):
        with mock.patch.object(transcript, "_GATHER_MIN_SIZE", min_size):
            assert payload_digest(payload) == reference_payload_digest(payload)
            values = payload.values() if isinstance(payload, dict) else [payload]
            for value in values:
                if isinstance(value, np.ndarray):
                    assert transcript._int_array_json(value) in (None, _json_bytes(value))

    @pytest.mark.parametrize(
        "values, gathered",
        [
            (np.arange(64), True),
            (np.arange(64).reshape(32, 2), True),
            (np.arange(64, dtype=np.uint64)[::-1], True),
            (np.arange(64).reshape(2, 32).T, True),
            (np.arange(31), False),  # below the size cutoff
            (np.arange(64) - 1, False),  # a negative value
            (np.full(64, transcript._TABLE_BOUND), False),  # above the table
            (np.arange(64) > 3, False),  # bool
            (np.arange(64, dtype=float), False),
            (np.arange(64).reshape(4, 4, 4), False),
            (np.zeros((64, 0), dtype=np.int64), False),
            (np.array(7), False),
        ],
    )
    def test_which_arrays_are_gathered(self, values, gathered):
        text = transcript._int_array_json(values)
        assert (text is not None) == gathered
        if gathered:
            assert text == _json_bytes(values)
        payload = {"values": values}
        assert payload_digest(payload) == reference_payload_digest(payload)

    def test_table_grows_to_cover_each_top(self, monkeypatch):
        monkeypatch.setattr(transcript, "_DECIMALS", np.empty(0, dtype="<u8"))
        start, bound = transcript._TABLE_START, transcript._TABLE_BOUND
        for top in (100, start - 1, start, 2 * start, 2**16 - 1, 2**16, bound - 1):
            values = np.arange(top - 40, top + 1)
            assert transcript._int_array_json(values) == _json_bytes(values)
            size = transcript._DECIMALS.size
            assert top < size <= max(2 * top, start) and size & (size - 1) == 0
        assert transcript._int_array_json(np.arange(bound - 40, bound + 1)) is None

    def test_empty_payload(self):
        assert payload_digest({}) == reference_payload_digest({})

    def test_full_size_runs_and_table_growth(self, monkeypatch):
        # a fresh table: it grows from its first size while the runs below go on
        monkeypatch.setattr(transcript, "_DECIMALS", np.empty(0, dtype="<u8"))
        sizes = []
        for parties in (2, 3, 5):
            for n in (16, 1024, 64):
                result = run_protocol(config(n=n, parties=parties, seed=n + parties))
                for event in result.transcript.events:
                    assert event.to_dict()["digest"] == reference_payload_digest(event.payload)
                sizes.append(transcript._DECIMALS.size)
        assert sizes[0] == transcript._TABLE_START
        assert sizes[-1] == 2**16  # five-party n=1024 ids reach 46,079


def _accepted_adversaries(parties):
    """Every adversary kind that ``check_adversary`` lets act on this protocol."""
    kinds = []
    for kind in AdversaryKind:
        try:
            check_adversary(config(n=2, parties=parties), AdversaryModel(kind=kind))
        except ValueError:
            continue
        kinds.append(kind)
    return kinds


_ACCEPTED = {parties: _accepted_adversaries(parties) for parties in (2, 3, 5)}


def _dumps(value):
    return json.dumps(value, sort_keys=True, indent=2)


def _written(value):
    return "".join(protocols.json_chunks(value))


# JSON trees: strings with escapes and non-ASCII text, every float json
# spells (NaN and both infinities), empty and nested lists, tuples and dicts.
_JSON_TREES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(st.characters(blacklist_categories=()))
    | st.sampled_from(["", "\\", '"', "\n\t", " ", "é", "\U0001f600", "\udc80"]),
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text(max_size=4), children),
    max_leaves=40,
)


class TestJsonWriter:
    def test_every_protocol_is_checked_with_each_adversary_it_accepts(self):
        assert [len(kinds) for kinds in _ACCEPTED.values()] == [5, 3, 2]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_run_output_is_json_dumps_of_to_dict(self, data):
        parties = data.draw(st.sampled_from([2, 3, 5]))
        adversary = AdversaryModel(
            kind=data.draw(st.sampled_from(_ACCEPTED[parties])),
            fraction=data.draw(st.sampled_from([0.25, 1.0])),
            transmission_index=data.draw(st.integers(0, 1 if parties == 2 else 3)),  # sent trains
        )
        cfg = config(
            n=data.draw(st.sampled_from([2, 16, 1024])),
            parties=parties,
            seed=data.draw(st.integers(0, 2**16)),
            error_threshold=data.draw(st.sampled_from([0.0, 0.3])),
            five_party_state=data.draw(st.sampled_from(["omega", "cluster"])),
            five_party_rounds=data.draw(st.sampled_from(protocols.FIVE_PARTY_ROUND_CHOICES)),
        )
        result = run_protocol(cfg, adversary)
        assert result.to_json() == _dumps(result.to_dict())

    @pytest.mark.parametrize("parties", [2, 3, 5])
    @pytest.mark.parametrize("aborted", [False, True])
    def test_aborted_and_completed_runs(self, parties, aborted):
        kind = AdversaryKind.INTERCEPT_RESEND_Z if aborted else AdversaryKind.NONE
        adversary = AdversaryModel(kind=kind, fraction=0.5)
        for seed in range(40):
            result = run_protocol(config(n=16, parties=parties, seed=seed), adversary)
            if result.aborted == aborted:
                break
        assert result.aborted == aborted
        assert result.to_json() == _dumps(result.to_dict())

    @settings(max_examples=250, deadline=None)
    @given(value=_JSON_TREES)
    def test_any_json_tree(self, value):
        assert _written(value) == _dumps(value)

    def test_crafted_values(self):
        value = {
            "empty": [[], {}, (), [[]], {"": {}}],
            "text": ["é ", '"quoted"\\', "\x00\x1f", "\udc80", ""],
            "floats": [float("nan"), float("inf"), -float("inf"), 0.1, -0.0, 1e300, 5e-324],
            "subclasses": [AdversaryKind.NONE, np.float64(0.1), True, False, None, 2**70],
            "scalars": {"kind": AdversaryKind.DISHONEST_BOB_REORDER, "rate": np.float64(0.5)},
        }
        assert _written(value) == _dumps(value)
        for scalar in (None, True, 0, -7, 0.5, float("nan"), "x", []):
            assert _written(scalar) == _dumps(scalar)

    def test_unserializable_value_raises_like_json(self):
        for value in ({"a": np.int64(3)}, [np.arange(2)], {"a": {1, 2}}):
            with pytest.raises(TypeError):
                _dumps(value)
            with pytest.raises(TypeError):
                _written(value)

    def test_text_comes_in_chunks(self):
        result = run_protocol(config(n=64, parties=5, seed=1))
        chunks = list(protocols.json_chunks(result.to_dict()))
        assert len(chunks) > len(result.transcript.events)
        assert "".join(chunks) == result.to_json()


def _assert_key(key, n):
    assert isinstance(key, np.ndarray)
    assert key.dtype == np.uint8 and key.shape == (n,) and not key.flags.writeable
    assert np.isin(key, (0, 1)).all()


class TestKeyContract:
    """Every key is a 1-D read-only uint8 array of 0s and 1s, from draw to ground truth."""

    @pytest.mark.parametrize(
        "parties, kind", [(p, kind) for p in (2, 3, 5) for kind in _ACCEPTED[p]]
    )
    def test_every_key_is_a_read_only_uint8_array(self, parties, kind):
        r = run_protocol(
            config(n=8, parties=parties, seed=3, error_threshold=1.0),
            AdversaryModel(kind=kind, fraction=0.5),
        )
        assert not r.aborted
        for key in [*r.private_keys.values(), *r.derived_keys.values(), r.ground_truth_key()]:
            _assert_key(key, 8)

    @pytest.mark.parametrize(
        "parties, kind", [(p, kind) for p in (2, 3, 5) for kind in _ACCEPTED[p]]
    )
    def test_batch_keys_are_read_only_uint8_arrays(self, parties, kind):
        # lanes that abort and lanes that complete, their keys views of stacked arrays
        adversary = AdversaryModel(kind=kind, fraction=0.3, transmission_index=1)
        batch = protocols.run_batch(config(n=8, parties=parties, seed=3), adversary, 9)
        for r in batch:
            drawn = 1 if r.aborted and parties == 2 and r.checks[-1].transmission == 0 else parties
            assert list(r.private_keys) == list(r.party_names[:drawn])
            keys = [*r.private_keys.values(), r.ground_truth_key()]
            if not r.aborted:
                keys += r.derived_keys.values()
            for key in keys:
                _assert_key(key, 8)
                with pytest.raises(ValueError, match="read-only"):
                    key[0] = 1 - key[0]

    @pytest.mark.parametrize("parties", [2, 3, 5])
    def test_aborted_run_keeps_its_drawn_keys(self, parties):
        adversary = AdversaryModel(kind=AdversaryKind.INTERCEPT_RESEND_Z, fraction=1.0)
        r = run_protocol(config(n=16, parties=parties, seed=0), adversary)
        assert r.aborted
        assert all(key is None for key in r.derived_keys.values())
        for key in [*r.private_keys.values(), r.ground_truth_key()]:
            _assert_key(key, 16)

    def test_fixed_keys_are_drawn_as_given(self):
        keys = ((1, 0, 1, 1), (True, False, False, True), (0.0, 1.0, 1.0, 0.0))
        r = run_three_party(config(n=4, parties=3, seed=2, fixed_keys=keys))
        assert [key.tolist() for key in r.private_keys.values()] == [list(k) for k in keys]
        for key in r.private_keys.values():
            _assert_key(key, 4)

    @pytest.mark.parametrize(
        "bad", [(1, 0, 1), (1, 0, 1, 1, 0), (1, 0, 2, 1), (1, 0, -1, 1), (1, 0, 0.5, 1),
                ("1", "0", "1", "1"), "1011", (1, 0, None, 1), (1, 0, math.nan, 1),
                ((1, 0), (1, 1), (0, 0), (1, 0)), (1, (0,), 1, 1)],
    )
    def test_malformed_fixed_keys_are_refused(self, bad):
        fixed = ((0, 1, 0, 1), bad)
        with pytest.raises(ValueError, match="each fixed key must be key_bits bits"):
            config(n=4, fixed_keys=fixed).validate()

    @pytest.mark.parametrize(
        "field, value",
        [("key_bits", 16.0), ("key_bits", np.int64(16)), ("key_bits", True),
         ("party_count", 3.0), ("seed", 1.5), ("seed", np.int64(1)), ("run_index", 0.5)],
    )
    def test_count_that_is_not_an_int_refused_before_any_generator(
        self, field, value, monkeypatch
    ):
        bad = replace(config(n=16, parties=3), **{field: value})
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            bad.validate()
        monkeypatch.setattr(ProtocolConfig, "make_rng", mock.Mock(side_effect=AssertionError))
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            run_protocol(bad)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"party_count": 4}, "party_count must be 2, 3 or 5"),
            ({"seed": -1}, "seed and run_index must be nonnegative"),
            ({"run_index": -1}, "seed and run_index must be nonnegative"),
            ({"fixed_keys": ((0, 1, 0, 1),) * 2}, "fixed_keys must supply one key per party"),
        ],
    )
    def test_out_of_range_value_refused_before_any_generator(
        self, changes, message, monkeypatch
    ):
        bad = replace(config(n=4, parties=3), **changes)
        with pytest.raises(ValueError, match=message):
            bad.validate()
        monkeypatch.setattr(ProtocolConfig, "make_rng", mock.Mock(side_effect=AssertionError))
        with pytest.raises(ValueError, match=message):
            run_protocol(bad)

    def test_results_compare_by_identity(self):
        first, second = (run_two_party(config(n=8, seed=5)) for _ in range(2))
        assert first == first and first != second
        assert first.to_json() == second.to_json()
