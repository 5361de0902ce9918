"""Trains against the per-register path.

Every vector operation of ``QubitStore`` is compared with the loop of
scalar operations it stands for, run on a twin store built the same way
and driven by a generator with the same seed. Sampled outcomes must match
exactly and the surviving amplitudes to 1e-12.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qka.adversaries import AdversaryKind, AdversaryModel
from qka.pauli import GroupElement, PauliLetter
from qka.protocols import ProtocolConfig, _five_party_decoder, run_protocol
from qka.registers import (
    BELL_VECTORS,
    BellOutcome,
    FourQubitState,
    QubitStore,
    UnknownQubitError,
    _sample_index,
    _sample_rows,
    four_qubit_vector,
)


def twin_stores(bell_kind, four_kind, n_bell, n_four):
    """Two identical stores: a Bell train, two lone qubits, a 4-qubit train.

    The trains' ids come back flattened, copy after copy.
    """
    stores = []
    for _ in range(2):
        store = QubitStore()
        bell = store.new_train(BELL_VECTORS[bell_kind], n_bell).ravel().tolist()
        lone = [store.new_computational(bit) for bit in (0, 1)]
        four = store.new_train(four_qubit_vector(four_kind), n_four).ravel().tolist()
        stores.append(store)
    return stores, bell, lone, four


def assert_same_state(a: QubitStore, b: QubitStore) -> None:
    """Same live qubits, registers and amplitudes; reads copies, so no row detaches."""
    a, b = copy.deepcopy(a), copy.deepcopy(b)
    assert a.live_qubits() == b.live_qubits()
    for q in a.live_qubits():
        ra, rb = a.register_of(q), b.register_of(q)
        assert ra.qubits == rb.qubits
        np.testing.assert_allclose(ra.amplitudes, rb.amplitudes, rtol=0, atol=1e-12)


def random_word(plan, arity):
    return GroupElement(tuple(PauliLetter(int(v)) for v in plan.integers(0, 4, arity)))


def random_basis(plan, dim):
    """Rows of a random orthogonal matrix: a real basis with uneven probabilities."""
    z = plan.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return (q * (np.diag(r) / np.abs(np.diag(r)))).T


class TestAllocation:
    def test_ids_are_the_ones_scalar_allocation_gives(self):
        trains, scalar = QubitStore(), QubitStore()
        bell = trains.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 3)
        assert bell.dtype == np.int64 and bell.tolist() == [
            list(scalar.new_bell(BellOutcome.PSI_PLUS)) for _ in range(3)
        ]
        omega = four_qubit_vector(FourQubitState.OMEGA)
        assert trains.new_train(omega, 2).tolist() == [
            list(scalar.new_four_qubit(FourQubitState.OMEGA)) for _ in range(2)
        ]
        assert trains.live_qubits() == scalar.live_qubits()

    def test_empty_train_allocates_nothing(self):
        store = QubitStore()
        assert store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 0).shape == (0, 2)
        assert store.new_computational(0) == 0

    def test_invalid_state_rejected(self):
        store = QubitStore()
        with pytest.raises(ValueError):
            store.new_train(np.ones(4), 2)  # not normalized
        with pytest.raises(ValueError):
            store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], -1)


class TestDetaching:
    def test_register_of_detaches_the_row_once(self):
        store = QubitStore()
        ids = store.new_train(four_qubit_vector(FourQubitState.CLUSTER), 3)
        row = tuple(ids[1].tolist())
        reg = store.register_of(row[2])
        assert reg.qubits == row
        assert all(store.register_of(q) is reg for q in row)
        np.testing.assert_array_equal(reg.amplitudes, four_qubit_vector(FourQubitState.CLUSTER))
        assert store.register_of(ids[0, 0]) is not reg
        assert store.live_qubits() == ids.ravel().tolist()

    def test_measured_rows_are_gone(self):
        store = QubitStore()
        (a, b), (c, d) = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 2).tolist()
        rng = np.random.default_rng(0)
        assert store.measure_bell_rows([(a, b)], rng) == [BellOutcome.PSI_PLUS]
        assert not store.tracked(a) and not store.tracked(b) and store.tracked(c)
        with pytest.raises(UnknownQubitError):
            store.register_of(a)
        assert store.live_qubits() == [c, d]
        store.measure_z(c, rng)  # detaches row 1, then retires c
        with pytest.raises(UnknownQubitError):
            store.register_of(c)
        assert store.live_qubits() == [d]

    def test_detached_row_takes_the_scalar_path(self):
        store = QubitStore()
        ids = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 2).ravel().tolist()
        store.register_of(ids[0])  # row 0 leaves the train
        store.apply_pauli_groups(GroupElement.of(PauliLetter.X), [(ids[1],), (ids[3],)])
        rng = np.random.default_rng(0)
        outcomes = store.measure_bell_rows([(ids[0], ids[1]), (ids[2], ids[3])], rng)
        assert outcomes == [BellOutcome.PHI_PLUS, BellOutcome.PHI_PLUS]


class TestSampling:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4, 16]))
    def test_rows_reproduce_the_scalar_draw(self, seed, dim):
        plan = np.random.default_rng(seed)
        probs = plan.random((40, dim)) * (plan.random((40, dim)) < 0.6)
        probs[0] = 0.0
        totals = probs.sum(axis=1, keepdims=True)
        probs /= np.where(totals > 0, totals, 1)
        probs[1] *= 1 - 1e-15  # mass a hair short of 1: roundoff paths
        uniforms = plan.random(40)
        probs[2] = 0.0
        probs[2, :2] = 0.5
        uniforms[:3] = [0.0, 1 - 2**-53, 0.5]  # row 2 lands exactly on a bin edge
        expected = [_sample_index(p, float(u)) for p, u in zip(probs, uniforms)]
        assert _sample_rows(probs, uniforms).tolist() == expected

    def test_vector_draw_equals_scalar_draws(self):
        a, b = np.random.default_rng([7, 1]), np.random.default_rng([7, 1])
        assert a.random(100).tolist() == [b.random() for _ in range(100)]
        assert a.random() == b.random()


class TestDifferential:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bell_kind=st.sampled_from(list(BellOutcome)),
        four_kind=st.sampled_from(list(FourQubitState)),
    )
    def test_vector_ops_match_scalar_loops(self, seed, bell_kind, four_kind):
        plan = np.random.default_rng(seed)
        n_bell, n_four = int(plan.integers(2, 10)), int(plan.integers(2, 8))
        (a, b), bell, lone, four = twin_stores(bell_kind, four_kind, n_bell, n_four)
        ga, gb = np.random.default_rng(seed), np.random.default_rng(seed)

        # Detach some rows mid-train by measuring one of their qubits.
        for q in plan.choice(bell + four, size=int(plan.integers(0, 4)), replace=False).tolist():
            assert a.measure_z(q, ga) == b.measure_z(q, gb)

        # Paulis: single letters on Bell qubits, words on 4-qubit positions.
        for qubits, arity in ((bell, 1), (four, 2)):
            live = [q for q in qubits if a.tracked(q)]
            plan.shuffle(live)
            word = random_word(plan, arity)
            groups = [tuple(live[i : i + arity]) for i in range(0, len(live) - arity + 1, arity)]
            groups = [g for g in groups if plan.random() < 0.7]
            a.apply_pauli_groups(word, groups)
            for group in groups:
                b.apply_pauli(word, group)
        assert_same_state(a, b)

        # Bell measurements: whole rows, reversed rows and cross-row pairs.
        pairs, leftovers = [], list(lone)
        for row in range(n_bell):
            q0, q1 = bell[2 * row : 2 * row + 2]
            if not (a.tracked(q0) and a.tracked(q1)):
                leftovers += [q for q in (q0, q1) if a.tracked(q)]
            elif plan.random() < 0.5:
                pairs.append((q0, q1) if plan.random() < 0.8 else (q1, q0))
            else:
                leftovers += [q0, q1]
        plan.shuffle(leftovers)
        pairs += [tuple(leftovers[i : i + 2]) for i in range(0, len(leftovers) - 1, 2)]
        order = plan.permutation(len(pairs)).tolist()
        pairs = [pairs[i] for i in order]
        assert a.measure_bell_rows(pairs, ga) == [b.measure_bell(p, q, gb) for p, q in pairs]

        # Basis measurements of whole 4-qubit rows, plus a reordered row.
        basis = _five_party_decoder(four_kind.value, "1234")[2]
        groups = []
        for row in range(n_four):
            ids = four[4 * row : 4 * row + 4]
            if all(a.tracked(q) for q in ids):
                groups.append(ids if plan.random() < 0.8 else ids[::-1])
        assert a.measure_rows_in_basis(groups, basis, ga) == [
            b.measure_in_basis(g, basis, gb) for g in groups
        ]
        assert_same_state(a, b)
        assert ga.random() == gb.random()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.sampled_from([2, 4]))
    def test_uneven_probabilities_sample_alike(self, seed, width):
        plan = np.random.default_rng(seed)
        vector = random_basis(plan, 2**width)[0]
        n = int(plan.integers(1, 40))
        stores = [QubitStore(), QubitStore()]
        groups = [s.new_train(vector, n) for s in stores][0].tolist()
        basis = random_basis(plan, 2**width)
        ga, gb = np.random.default_rng(seed), np.random.default_rng(seed)
        outcomes = stores[0].measure_rows_in_basis(groups, basis, ga)
        assert outcomes == [stores[1].measure_in_basis(g, basis, gb) for g in groups]
        assert stores[0].live_qubits() == stores[1].live_qubits() == []

    def test_cross_row_pairs_swap_entanglement_like_the_scalar_path(self):
        (a, b), bell, _, _ = twin_stores(BellOutcome.PSI_MINUS, FourQubitState.OMEGA, 3, 1)
        # (row0.q1, row1.q0) merges and swaps; (row0.q0, row1.q1) then reads
        # the swapped pair; row 2 stays whole and is measured in bulk.
        pairs = [(bell[1], bell[2]), (bell[0], bell[3]), (bell[4], bell[5])]
        for seed in range(20):
            (a, b), bell, _, _ = twin_stores(BellOutcome.PSI_MINUS, FourQubitState.OMEGA, 3, 1)
            ga, gb = np.random.default_rng(seed), np.random.default_rng(seed)
            got = a.measure_bell_rows(pairs, ga)
            assert got == [b.measure_bell(p, q, gb) for p, q in pairs]
            assert got[2] is BellOutcome.PSI_MINUS
            assert_same_state(a, b)


class TestValidation:
    def test_groups_must_match_the_word(self):
        store = QubitStore()
        ids = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 2).ravel().tolist()
        with pytest.raises(ValueError):
            store.apply_pauli_groups(GroupElement.of(PauliLetter.X), [(ids[0], ids[1])])
        with pytest.raises(ValueError):
            store.apply_pauli_groups(GroupElement.of(PauliLetter.X), [(ids[0],), (ids[0],)])

    def test_measured_qubits_must_be_distinct(self):
        store = QubitStore()
        ids = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 2)
        with pytest.raises(ValueError):
            store.measure_bell_rows([ids[0], ids[0]], np.random.default_rng(0))

    def test_basis_must_resolve_each_row(self):
        store = QubitStore()
        ids = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 2)
        partial = BELL_VECTORS[1:]  # misses psi+, which holds all the mass
        with pytest.raises(ValueError, match="does not resolve"):
            store.measure_rows_in_basis(ids, partial, np.random.default_rng(0))


class TestProtocolRuns:
    @pytest.mark.parametrize("parties", [2, 3, 5])
    def test_honest_runs_stay_in_bulk(self, parties, monkeypatch):
        """Honest runs measure whole rows only; the general routine is for attacks."""
        one_by_one = []
        original = QubitStore._measure

        def counting(self, qubits, *args):
            one_by_one.append(tuple(qubits))
            return original(self, qubits, *args)

        monkeypatch.setattr(QubitStore, "_measure", counting)
        result = run_protocol(ProtocolConfig(key_bits=16, party_count=parties, seed=4))
        assert result.agreement()
        assert one_by_one == []
        attacked = run_protocol(
            ProtocolConfig(key_bits=16, party_count=parties, seed=4, error_threshold=1.0),
            AdversaryModel(kind=AdversaryKind.INTERCEPT_RESEND_Z, fraction=0.5),
        )
        assert not attacked.aborted and one_by_one
