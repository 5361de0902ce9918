"""Adversary models: transit attacks, insider overrides, detection rates.

Expected rates come from branch enumeration over the tiny post-attack
states: a computational-basis intercept-resend turns every touched decoy
pair into |bb>, which the receiver's Bell check flags with probability
exactly 1/2; a reordered measurement pair triggers entanglement swapping,
whose two outcomes are uniform marginally and perfectly correlated
jointly, so k disjoint swaps survive unnoticed with probability (1/2)^k.
"""

import math
from collections import Counter

import numpy as np
import pytest

from qka.adversaries import (
    AdversaryKind,
    AdversaryModel,
    attack_transit,
    choose_swap_pairs,
    dishonest_alice_early_measure,
    dishonest_bob_reorder,
)
from qka.protocols import (
    PermutationRecord,
    ProtocolConfig,
    _five_party_ring,
    bits_to_hex,
    insert_decoys_and_permute,
    run_batch,
    run_five_party,
    run_protocol,
    run_three_party,
    run_two_party,
    xor_bits,
)
from qka.registers import BELL_VECTORS, BellOutcome, QubitStore
from test_trains import assert_same_state


def config(n=16, parties=2, seed=0, run=0, **kw):
    return ProtocolConfig(key_bits=n, party_count=parties, seed=seed, run_index=run, **kw)


def same_keys(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def no_generator(config):
    raise AssertionError("a lane's generator was made")


def binomial_band(p, trials, sigmas=3.0):
    sigma = math.sqrt(p * (1 - p) / trials)
    return p - sigmas * sigma, p + sigmas * sigma


def wilson_band(successes, trials, z=3.0):
    """Wilson score interval for an observed binomial proportion."""
    p = successes / trials
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return centre - half, centre + half


class TestModelValidation:
    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            AdversaryModel(kind=AdversaryKind.INTERCEPT_RESEND_Z, fraction=1.5)

    def test_none_is_not_external(self):
        model = AdversaryModel()
        assert not model.is_external and not model.is_insider

    def test_insider_kind_rejected_by_attack_transit(self):
        store = QubitStore()
        slots = np.array([[store.new_computational(0)]])
        with pytest.raises(ValueError):
            attack_transit(
                AdversaryModel(kind=AdversaryKind.DISHONEST_BOB_REORDER),
                store, slots, [np.random.default_rng(0)],
            )


class TestModelInput:
    """A kind given by name acts as its member; a count must be a plain int."""

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_intercept_z_by_name_is_intercept_z(self, seed):
        by_name = AdversaryModel(kind="intercept-z", fraction=0.5)
        member = AdversaryModel(kind=AdversaryKind.INTERCEPT_RESEND_Z, fraction=0.5)
        bell = AdversaryModel(kind=AdversaryKind.INTERCEPT_RESEND_BELL, fraction=0.5)
        assert by_name.kind is AdversaryKind.INTERCEPT_RESEND_Z
        text = run_protocol(config(n=16, seed=seed), by_name).to_json()
        assert text == run_protocol(config(n=16, seed=seed), member).to_json()
        assert text != run_protocol(config(n=16, seed=seed), bell).to_json()

    def test_dishonest_alice_by_name_attacks(self):
        r = run_two_party(config(n=8, seed=420), AdversaryModel(kind="dishonest-alice"))
        assert r.attack_report["kind"] == "early-measure"

    def test_five_party_intercept_bell_by_name_refused_before_any_generator(self, monkeypatch):
        monkeypatch.setattr(ProtocolConfig, "make_rng", no_generator)
        with pytest.raises(ValueError, match="intercept-bell on 4-qubit copies"):
            run_protocol(config(n=4, parties=5), AdversaryModel(kind="intercept-bell"))

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError):
            AdversaryModel(kind="intercept-x")

    @pytest.mark.parametrize("field", ["swap_count", "transmission_index"])
    @pytest.mark.parametrize("value", [1.5, 1.0, True, np.int64(1), "1"])
    def test_count_that_is_not_an_int_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            AdversaryModel(kind=AdversaryKind.INTERCEPT_RESEND_Z, **{field: value})

    @pytest.mark.parametrize(
        "field, message",
        [("swap_count", "swap count must be nonnegative"),
         ("transmission_index", "transmission index must be nonnegative")],
    )
    def test_negative_count_refused(self, field, message):
        with pytest.raises(ValueError, match=message):
            AdversaryModel(kind=AdversaryKind.INTERCEPT_RESEND_Z, **{field: -1})


class TestTransitAttacks:
    def test_none_leaves_everything_alone(self):
        store = QubitStore()
        a, b = store.new_bell(BellOutcome.PSI_PLUS)
        slots = np.array([[a, b]])
        before = store.register_of(a).amplitudes.copy()
        attack_transit(AdversaryModel(), store, slots, [np.random.default_rng(0)])
        assert slots.tolist() == [[a, b]]
        np.testing.assert_array_equal(store.register_of(a).amplitudes, before)

    def test_intercept_z_replaces_slots_with_fresh_ids(self):
        store = QubitStore()
        a, b = store.new_bell(BellOutcome.PSI_PLUS)
        slots = np.array([[a, b]])
        model = AdversaryModel(kind=AdversaryKind.INTERCEPT_RESEND_Z, fraction=1.0)
        attack_transit(model, store, slots, [np.random.default_rng(4)])
        assert set(slots[0].tolist()).isdisjoint({a, b})
        assert {a, b}.isdisjoint(store.live_qubits())
        # the resent pair is a correlated computational product state
        bits = [store.measure_z(q, np.random.default_rng(0)) for q in slots[0].tolist()]
        assert bits[0] == bits[1]

    @pytest.mark.parametrize("parties", [2, 5])
    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.5, 1.0])
    def test_intercept_z_matches_the_slot_by_slot_loop(self, parties, fraction):
        """One bulk measurement and one allocation do what a measure_z and a
        new_computational per hit did: same draws, slots, ids and states."""
        model = AdversaryModel(kind=AdversaryKind.INTERCEPT_RESEND_Z, fraction=fraction)
        for seed in range(8):
            twins = []
            for _ in range(2):
                store, rng = QubitStore(), np.random.default_rng(seed)
                if parties == 2:
                    copies = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 16)[:, 1]
                else:
                    ring = _five_party_ring("omega", "1234")
                    copies = store.new_train(ring.state, 8)[:, [1, 3]].ravel()
                slots, _ = insert_decoys_and_permute(copies, store, [rng], len(copies) // 2)
                twins.append((store, rng, slots))
            (a, ga, slots_a), (b, gb, slots_b) = twins
            attack_transit(model, a, slots_a[None], [ga])
            ids = slots_b.tolist()
            for k in range(len(ids)):
                if gb.random() < fraction:
                    ids[k] = b.new_computational(b.measure_z(ids[k], gb))
            assert slots_a.tolist() == ids
            assert ga.random() == gb.random()
            assert a.live_qubits() == b.live_qubits()
            for q in a.live_qubits():
                ra, rb = a.register_of(q), b.register_of(q)
                assert ra.qubits == rb.qubits
                assert np.array_equal(ra.amplitudes, rb.amplitudes)

    @pytest.mark.parametrize("fraction", [0.3, 0.5, 1.0])
    def test_intercept_bell_matches_the_pair_by_pair_loop(self, fraction):
        """A stack's hits are measured pair by pair and resent from one
        allocation: the draws, slots, ids and states of a measure_bell and a
        new_bell per hit, row after row."""
        model = AdversaryModel(kind=AdversaryKind.INTERCEPT_RESEND_BELL, fraction=fraction)
        for seed in range(8):
            twins = []
            for _ in range(2):
                store = QubitStore()
                rngs = [np.random.default_rng([seed, row]) for row in range(3)]
                copies = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 24)[:, 1]
                slots, _ = insert_decoys_and_permute(copies.reshape(3, 8), store, rngs, 4)
                twins.append((store, rngs, slots))
            (a, rngs_a, slots_a), (b, rngs_b, slots_b) = twins
            attack_transit(model, a, slots_a, rngs_a)
            for row, rng in zip(slots_b, rngs_b):
                for k in range(0, len(row) - 1, 2):
                    if rng.random() < fraction:
                        outcome = b.measure_bell(int(row[k]), int(row[k + 1]), rng)
                        row[k], row[k + 1] = b.new_bell(outcome)
            assert slots_a.tolist() == slots_b.tolist()
            assert [g.random() for g in rngs_a] == [g.random() for g in rngs_b]
            assert_same_state(a, b)

    def test_intercept_bell_repreps_observed_state(self):
        store = QubitStore()
        a, b = store.new_bell(BellOutcome.PHI_MINUS)
        slots = np.array([[a, b]])
        model = AdversaryModel(kind=AdversaryKind.INTERCEPT_RESEND_BELL, fraction=1.0)
        attack_transit(model, store, slots, [np.random.default_rng(1)])
        # adjacent pairing hits the true pair here, so the state is faithful
        resent = slots[0].tolist()
        assert store.measure_bell(*resent, np.random.default_rng(2)) is BellOutcome.PHI_MINUS

    @pytest.mark.parametrize(
        "kind", [AdversaryKind.INTERCEPT_RESEND_Z, AdversaryKind.INTERCEPT_RESEND_BELL]
    )
    def test_malformed_stack_refused_before_any_draw(self, kind):
        """A stack needs a 2-D integer slot array and one generator per row."""
        model = AdversaryModel(kind=kind, fraction=1.0)
        store = QubitStore()
        train = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 4)
        live = store.live_qubits()
        rngs = [np.random.default_rng(seed) for seed in range(3)]
        states = [rng.bit_generator.state for rng in rngs]
        cases = [
            (train.ravel().copy(), rngs[:1]),  # one train, not a stack
            (train.astype(np.float64), rngs[:2]),
            (train.tolist(), rngs[:2]),
            (train.copy(), rngs[:1]),  # two rows, one generator
            (train.copy(), rngs[:3]),  # two rows, three generators
            (train[:1].copy(), []),
        ]
        for slots, given in cases:
            before = np.array(slots, dtype=np.float64).copy()
            with pytest.raises(ValueError):
                attack_transit(model, store, slots, given)
            assert np.array_equal(np.array(slots, dtype=np.float64), before)
        assert [rng.bit_generator.state for rng in rngs] == states
        assert store.live_qubits() == live

    def test_fraction_zero_never_draws_an_attack(self):
        store = QubitStore()
        qubits = [store.new_computational(0) for _ in range(6)]
        slots = np.array([qubits])
        model = AdversaryModel(kind=AdversaryKind.INTERCEPT_RESEND_Z, fraction=0.0)
        attack_transit(model, store, slots, [np.random.default_rng(9)])
        assert slots.tolist() == [qubits]


class TestTransmissionIndex:
    """An external attack taps a transmission the run makes: 2, or parties^2 on a ring."""

    @pytest.mark.parametrize("parties, transmissions", [(2, 2), (3, 9), (5, 25)])
    def test_last_transmission_attacked_and_the_next_refused(
        self, parties, transmissions, monkeypatch
    ):
        def tapping(index):
            return AdversaryModel(
                kind=AdversaryKind.INTERCEPT_RESEND_Z, fraction=1.0, transmission_index=index
            )

        last = transmissions - 1
        r = run_protocol(config(n=64, parties=parties, seed=1), tapping(last))
        assert r.aborted and len(r.checks) == transmissions
        assert r.checks[-1].transmission == last and not r.checks[-1].passed
        assert all(check.passed for check in r.checks[:-1])
        monkeypatch.setattr(ProtocolConfig, "make_rng", no_generator)
        for index in (transmissions, 99):
            with pytest.raises(ValueError, match=f"transmission index {index} is past"):
                run_protocol(config(n=8, parties=parties, seed=1), tapping(index))
            with pytest.raises(ValueError, match=f"transmission index {index} is past"):
                run_batch(config(n=8, parties=parties, seed=1), tapping(index), 3)


class TestInterceptResendZDetection:
    def test_two_party_abort_rate(self):
        trials = 1200
        adv = AdversaryModel(kind=AdversaryKind.INTERCEPT_RESEND_Z, fraction=1.0)
        aborts = sum(
            run_two_party(config(n=16, seed=500, run=i), adv).aborted
            for i in range(trials)
        )
        low, high = binomial_band(1 - 0.5**8, trials)
        assert low <= aborts / trials <= high

    def test_five_party_abort_rate(self):
        # every Z-measured decoy pair fails its Bell check with probability 1/2
        trials = 400
        adv = AdversaryModel(kind=AdversaryKind.INTERCEPT_RESEND_Z, fraction=1.0)
        aborts = sum(
            run_five_party(config(n=8, parties=5, seed=520, run=i), adv).aborted
            for i in range(trials)
        )
        low, high = wilson_band(aborts, trials)
        assert low <= 1 - 0.5**4 <= high

    @pytest.mark.parametrize("parties, fraction, seed", [
        (2, 0.25, 610), (2, 0.5, 611), (3, 0.25, 612), (3, 0.5, 613),
    ])
    def test_abort_rate_matches_the_closed_form(self, parties, fraction, seed):
        # At threshold 0 the first transmission's n/2 decoy pairs decide the
        # run. A pair with either qubit hit collapses to |bb> and then fails
        # its Bell check with probability 1/2, so e = (1 - (1 - f)^2) / 2 and
        # a run aborts with probability 1 - (1 - e)^(n/2).
        trials, n = 1000, 16
        error = (1 - (1 - fraction) ** 2) / 2
        predicted = 1 - (1 - error) ** (n // 2)
        adv = AdversaryModel(kind=AdversaryKind.INTERCEPT_RESEND_Z, fraction=fraction)
        run = run_two_party if parties == 2 else run_three_party
        aborts = sum(
            run(config(n=n, parties=parties, seed=seed, run=i), adv).aborted
            for i in range(trials)
        )
        low, high = wilson_band(aborts, trials)
        assert low <= predicted <= high

    def test_five_party_last_hop_attack_reaches_decode(self):
        # transmission 24 is the final hop of Alice's stream, so her decode
        # must measure the resent qubits; the other streams stay honest
        adv = AdversaryModel(
            kind=AdversaryKind.INTERCEPT_RESEND_Z, fraction=1.0, transmission_index=24
        )
        for i in range(20):
            r = run_five_party(
                config(n=4, parties=5, seed=902, run=i, error_threshold=1.0), adv
            )
            assert not r.aborted
            assert r.derived_keys["Alice"] is not None
            truth = r.ground_truth_key()
            assert all(np.array_equal(r.derived_keys[name], truth) for name in r.party_names[1:])

    def test_detection_monotone_in_fraction(self):
        trials = 1000
        rates = []
        for fraction in (0.0, 0.25, 0.5, 1.0):
            adv = AdversaryModel(kind=AdversaryKind.INTERCEPT_RESEND_Z, fraction=fraction)
            aborts = sum(
                run_two_party(config(n=16, seed=81, run=i), adv).aborted
                for i in range(trials)
            )
            rates.append(aborts / trials)
        assert rates[0] == 0.0
        assert rates == sorted(rates)

    def test_bell_basis_wrong_pairing_attack_detected(self):
        # Eve's adjacent pairing almost never matches the scrambled decoy
        # pairs, so her re-preparations swap the decoys into random Bell
        # states relative to their partners and the checks catch her.
        adv = AdversaryModel(kind=AdversaryKind.INTERCEPT_RESEND_BELL, fraction=1.0)
        trials = 300
        aborts = sum(
            run_two_party(config(n=16, seed=610, run=i), adv).aborted
            for i in range(trials)
        )
        assert aborts / trials >= 0.95

    def test_x_round_bits_survive_but_phase_randomizes(self):
        """Enumerated decode path: a Z-basis intercept leaves every x-round
        bit intact (the bit value rides the computational correlation Eve's
        measurement preserves) while the z bit of each outcome is uniform."""
        adv = AdversaryModel(
            kind=AdversaryKind.INTERCEPT_RESEND_Z, fraction=1.0, transmission_index=0
        )
        z_bits = []
        for i in range(400):
            r = run_two_party(
                config(n=4, seed=900, run=i, error_threshold=1.0), adv
            )
            assert not r.aborted
            # Alice still decodes the responder's key perfectly
            assert np.array_equal(r.derived_keys["Alice"], r.ground_truth_key())
            for label in r.outcome_records["Alice"]:
                z_bits.append(1 if label.endswith("-") else 0)
        assert abs(sum(z_bits) / len(z_bits) - 0.5) < 0.05

    def test_three_party_z_round_bits_randomize(self):
        # the same attack on a three-hop ring scrambles the z-encoded key
        adv = AdversaryModel(
            kind=AdversaryKind.INTERCEPT_RESEND_Z, fraction=1.0, transmission_index=0
        )
        errors = total = 0
        for i in range(300):
            r = run_three_party(
                config(n=4, parties=3, seed=901, run=i, error_threshold=1.0), adv
            )
            truth = r.ground_truth_key()
            # stream 0 was attacked; its originator decodes z bits off it
            derived = r.derived_keys["Alice"]
            errors += sum(1 for a, b in zip(derived, truth) if a != b)
            total += len(truth)
        assert abs(errors / total - 0.5) < 0.05


class TestDishonestBob:
    def test_zero_swaps_identical_to_honest_run(self):
        honest = run_two_party(config(n=8, seed=33))
        attacked = run_two_party(
            config(n=8, seed=33),
            AdversaryModel(kind=AdversaryKind.DISHONEST_BOB_REORDER, swap_count=0),
        )
        assert same_keys(honest.derived_keys, attacked.derived_keys)
        assert attacked.attack_report["alice_key_matches_target"]

    def test_target_key_uses_the_bits_the_announced_slots_carry(self):
        pairs = ((0, 5), (2, 3))
        adv = AdversaryModel(kind=AdversaryKind.DISHONEST_BOB_REORDER, swap_pairs=pairs)
        for i in range(20):
            r = run_two_party(config(n=8, seed=41, run=i), adv)
            carried = list(r.private_keys["Bob"])
            for a, b in pairs:
                carried[a], carried[b] = carried[b], carried[a]
            target = bits_to_hex(xor_bits(r.private_keys["Alice"], carried))
            assert r.attack_report["target_key"] == target

    def test_reorder_helper_validates(self):
        with pytest.raises(ValueError):
            dishonest_bob_reorder([0, 1, 2], [(0, 0)])
        with pytest.raises(ValueError):
            dishonest_bob_reorder([0, 1, 2], [(0, 1), (1, 2)])
        assert dishonest_bob_reorder([5, 6, 7], [(0, 2)]) == [7, 6, 5]

    def test_choose_swap_pairs_disjoint(self):
        pairs = choose_swap_pairs(10, 5, np.random.default_rng(0))
        flat = [i for p in pairs for i in p]
        assert len(set(flat)) == 10

    def test_swap_capacity(self):
        with pytest.raises(ValueError):
            choose_swap_pairs(4, 3, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "count, message",
        [(-1, "swap count must be nonnegative"), (3, "swap count too large for the key length")],
    )
    def test_drawn_swaps_refused_by_the_swap_rule(self, count, message):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            choose_swap_pairs(4, count, rng)
        assert rng.bit_generator.state == before

    def test_library_run_refuses_too_many_swaps_before_allocating(self, monkeypatch):
        allocations = []
        new_train = QubitStore.new_train

        def recording(self, vector, count):
            allocations.append(count)
            return new_train(self, vector, count)

        monkeypatch.setattr(QubitStore, "new_train", recording)
        adv = AdversaryModel(kind=AdversaryKind.DISHONEST_BOB_REORDER, swap_count=3)
        with pytest.raises(ValueError, match="swap count too large"):
            run_two_party(config(n=4, seed=2), adv)
        assert allocations == []
        pinned = AdversaryModel(
            kind=AdversaryKind.DISHONEST_BOB_REORDER, swap_count=3, swap_pairs=((0, 1),)
        )
        assert run_two_party(config(n=4, seed=2), pinned).attack_report["swap_pairs"] == [[0, 1]]

    @pytest.mark.parametrize("pairs", [((0, 9),), ((0, 0),), ((0, 1), (1, 2))])
    def test_malformed_pinned_swaps_refused_before_any_generator(self, pairs, monkeypatch):
        monkeypatch.setattr(ProtocolConfig, "make_rng", no_generator)
        adv = AdversaryModel(kind=AdversaryKind.DISHONEST_BOB_REORDER, swap_pairs=pairs)
        with pytest.raises(ValueError, match="swap pair"):
            run_protocol(config(n=8, seed=1), adv)
        with pytest.raises(ValueError, match="swap pair"):
            run_batch(config(n=8, seed=1), adv, 5)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            (((True, 0),), "swap_position must be an integer, not True"),
            (((np.int64(0), np.int64(1)),), "swap_position must be an integer"),
            (((0, 1.0),), "partner_position must be an integer, not 1.0"),
            (((0, 1, 2),), r"swap pair \(0, 1, 2\) is not two positions"),
            ((3,), "swap pair 3 is not two positions"),
            ([5], "swap pair 5 is not two positions"),
        ],
    )
    def test_pinned_swaps_follow_the_integer_rule(self, pairs, message, monkeypatch):
        with pytest.raises(ValueError, match=message):
            dishonest_bob_reorder(range(8), pairs)
        monkeypatch.setattr(ProtocolConfig, "make_rng", no_generator)
        adv = AdversaryModel(kind=AdversaryKind.DISHONEST_BOB_REORDER, swap_pairs=pairs)
        with pytest.raises(ValueError, match=message):
            run_protocol(config(n=8, seed=1), adv)
        with pytest.raises(ValueError, match=message):
            run_batch(config(n=8, seed=1), adv, 5)

    def test_one_shot_swap_pairs_reach_the_run(self):
        # the model keeps its own tuple, so checking the pairs spends nothing the run needs
        pairs = (p for p in [(0, 1), (2, 3)])
        adv = AdversaryModel(kind=AdversaryKind.DISHONEST_BOB_REORDER, swap_pairs=pairs)
        assert adv.swap_pairs == ((0, 1), (2, 3))
        r = run_two_party(config(n=8, seed=1), adv)
        assert r.attack_report["swap_pairs"] == [[0, 1], [2, 3]]

    def test_list_swap_pairs_leave_the_model_hashable(self):
        listed = AdversaryModel(kind=AdversaryKind.DISHONEST_BOB_REORDER, swap_pairs=[[0, 1]])
        pinned = AdversaryModel(kind=AdversaryKind.DISHONEST_BOB_REORDER, swap_pairs=((0, 1),))
        assert listed == pinned and hash(listed) == hash(pinned)
        runs = [run_two_party(config(n=8, seed=1), adv).to_json() for adv in (listed, pinned)]
        assert runs[0] == runs[1]

    def test_empty_swap_pairs_swap_nothing(self):
        adv = AdversaryModel(kind=AdversaryKind.DISHONEST_BOB_REORDER, swap_pairs=())
        r = run_two_party(config(n=8, seed=2), adv)
        assert r.attack_report["swap_pairs"] == []
        assert r.attack_report["alice_key_matches_target"]
        assert same_keys(r.derived_keys, run_two_party(config(n=8, seed=2)).derived_keys)

    def test_single_swap_outcomes_uniform_and_correlated(self):
        adv = AdversaryModel(
            kind=AdversaryKind.DISHONEST_BOB_REORDER, swap_pairs=((0, 1),)
        )
        marginals = [Counter(), Counter()]
        joint_equal_family = 0
        trials = 3000
        for i in range(trials):
            r = run_two_party(config(n=2, seed=140, run=i), adv)
            labels = r.outcome_records["Alice"]
            marginals[0][labels[0]] += 1
            marginals[1][labels[1]] += 1
            # both decode errors coincide: the x bits disagree with the true
            # encoded bits either at both positions or at neither
            truth = r.private_keys["Bob"]
            x0 = 1 if labels[0].startswith("phi") else 0
            x1 = 1 if labels[1].startswith("phi") else 0
            err0 = x0 != truth[1]  # claimed slot 0 really carries bit 1
            err1 = x1 != truth[0]
            joint_equal_family += err0 == err1
        for counter in marginals:
            for label in ("psi+", "psi-", "phi+", "phi-"):
                assert abs(counter[label] / trials - 0.25) < 0.03
        assert joint_equal_family == trials

    def test_key_matches_target_at_half_power_k(self):
        trials = 1500
        k = 3
        adv = AdversaryModel(kind=AdversaryKind.DISHONEST_BOB_REORDER, swap_count=k)
        hits = 0
        for i in range(trials):
            r = run_two_party(config(n=16, seed=200, run=i), adv)
            assert not r.aborted
            hits += r.attack_report["alice_key_matches_target"]
        low, high = binomial_band(0.5**k, trials)
        assert low <= hits / trials <= high

    def test_keys_diverge_between_parties(self):
        adv = AdversaryModel(kind=AdversaryKind.DISHONEST_BOB_REORDER, swap_count=4)
        diverged = 0
        trials = 400
        for i in range(trials):
            r = run_two_party(config(n=32, seed=300, run=i), adv)
            diverged += not np.array_equal(r.derived_keys["Alice"], r.derived_keys["Bob"])
        low, _ = binomial_band(1 - 0.5**4, trials, sigmas=4.0)
        assert diverged / trials >= low


class TestDishonestAlice:
    def test_honest_run_reaches_full_accuracy(self):
        r = run_two_party(config(n=16, seed=71))
        decoded = xor_bits(r.derived_keys["Alice"], r.private_keys["Alice"])
        assert np.array_equal(decoded, r.private_keys["Bob"])

    def test_wrongly_paired_bits_are_coin_flips(self):
        adv = AdversaryModel(kind=AdversaryKind.DISHONEST_ALICE_EARLY_MEASURE)
        wrong_accuracy = []
        for i in range(1500):
            r = run_two_party(config(n=16, seed=400, run=i), adv)
            report = r.attack_report
            assert report["kind"] == "early-measure"
            if report["wrong_pair_accuracy"] is not None:
                wrong_accuracy.append(report["wrong_pair_accuracy"])
        assert abs(float(np.mean(wrong_accuracy)) - 0.5) < 0.02

    def test_tiny_key_accuracy_bounded_away_from_one(self):
        # n=2: identity guess decodes perfectly, the one wrong pairing is a
        # fair coin on both bits -> expected accuracy 3/4
        adv = AdversaryModel(kind=AdversaryKind.DISHONEST_ALICE_EARLY_MEASURE)
        accs = [
            run_two_party(config(n=2, seed=410, run=i), adv).attack_report[
                "per_bit_accuracy"
            ]
            for i in range(2000)
        ]
        mean = float(np.mean(accs))
        assert abs(mean - 0.75) < 0.04
        assert mean < 0.9

    def test_bob_still_derives_the_honest_key(self):
        adv = AdversaryModel(kind=AdversaryKind.DISHONEST_ALICE_EARLY_MEASURE)
        r = run_two_party(config(n=8, seed=420), adv)
        assert np.array_equal(r.derived_keys["Bob"], r.ground_truth_key())


    @pytest.mark.parametrize("seed", range(6))
    def test_a_stack_guesses_as_its_lanes_alone_would(self, seed):
        """One stacked call over L lanes gives each lane the guess bits and
        report, and leaves the store and generators, that L one-lane calls do."""
        lanes, n = 5, 8  # 40 pairs: enough for the bulk kernel, which one lane's 8 are not
        twins = []
        for _ in range(2):
            store = QubitStore()
            pairs = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], lanes * n)
            pairs = pairs.reshape(lanes, n, 2)
            rngs = [np.random.default_rng([seed, lane]) for lane in range(lanes)]
            slots, record = insert_decoys_and_permute(pairs[..., 1], store, rngs, n // 2)
            twins.append((store, pairs, slots, record, rngs))
        (a, pairs, slots, record, rngs_a), (b, _, _, _, rngs_b) = twins
        keys = np.random.default_rng(seed).integers(0, 2, (lanes, n), dtype=np.uint8)
        bits, reports = dishonest_alice_early_measure(
            a, pairs[..., 0], slots, record, rngs_a, keys
        )
        assert bits.shape == (lanes, n) and not bits.flags.writeable
        for lane in range(lanes):
            at = slice(lane, lane + 1)
            lone_bits, lone_reports = dishonest_alice_early_measure(
                b, pairs[at, :, 0], slots[at], PermutationRecord.of(record.forward[at], n),
                rngs_b[at], keys[at],
            )
            assert lone_bits.tolist() == bits[at].tolist()
            assert lone_reports == reports[at]
        assert [g.random() for g in rngs_a] == [g.random() for g in rngs_b]
        assert_same_state(a, b)


class TestNoAttackEquivalence:
    def test_none_model_equals_missing_adversary(self):
        for run in range(5):
            bare = run_two_party(config(n=8, seed=55, run=run))
            modeled = run_two_party(config(n=8, seed=55, run=run), AdversaryModel())
            assert bare.to_json() == modeled.to_json()

    def test_three_party_rejects_insider_models(self):
        with pytest.raises(ValueError):
            run_three_party(
                config(n=8, parties=3),
                AdversaryModel(kind=AdversaryKind.DISHONEST_BOB_REORDER),
            )


class TestAbortedTranscripts:
    def test_failed_hop_never_discloses_message_order(self):
        from qka.transcript import ABORT, MESSAGE_ORDER_DISCLOSURE

        # attack the second hop of the first ring stream (transmission 3):
        # its staged disclosure must stop at the decoy coordinates
        adv = AdversaryModel(
            kind=AdversaryKind.INTERCEPT_RESEND_Z, fraction=1.0, transmission_index=3
        )
        aborted = None
        for i in range(50):
            r = run_three_party(config(n=16, parties=3, seed=808, run=i), adv)
            if r.aborted:
                aborted = r
                break
        assert aborted is not None
        kinds = [event.kind for event in aborted.transcript.events]
        assert ABORT in kinds
        assert MESSAGE_ORDER_DISCLOSURE not in kinds
        assert aborted.resource_counts is None
        assert all(key is None for key in aborted.derived_keys.values())
        failing = [c for c in aborted.checks if not c.passed]
        assert len(failing) == 1 and failing[0].transmission == 3
