"""Trains against the per-register path.

Every vector operation of ``QubitStore`` is compared with the loop of
scalar operations it stands for, run on a twin store built the same way
and driven by a generator with the same seed. Sampled outcomes must match
exactly and the surviving amplitudes to 1e-12.
"""

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qka import registers
from qka.adversaries import AdversaryKind, AdversaryModel
from qka.pauli import GroupElement, PauliLetter
from qka.protocols import ProtocolConfig, _five_party_ring, run_batch, run_protocol
from qka.registers import (
    BELL_VECTORS,
    BellOutcome,
    FourQubitState,
    QubitStore,
    RegisterCapacityError,
    UnknownQubitError,
    _sample_index,
    _sample_rows,
    four_qubit_vector,
)


CUTOVERS = (registers._BULK_GROUPS, registers._BULK_BUCKET)  # the kernel's defaults


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


class TestStates:
    def test_ids_are_the_ones_one_allocation_each_gives(self):
        rows, scalar = QubitStore(), QubitStore()
        bits = [1, 0, 0, 1, 1]
        ids = rows.new_states(np.eye(2)[bits])
        assert ids.dtype == np.int64 and ids.tolist() == [
            [scalar.new_computational(bit)] for bit in bits
        ]
        assert_same_state(rows, scalar)
        pairs = rows.new_states(BELL_VECTORS[[2, 0]])
        assert pairs.tolist() == [list(scalar.new_bell(BellOutcome(k))) for k in (2, 0)]
        assert rows.new_states(np.empty((0, 2))).shape == (0, 1)
        assert_same_state(rows, scalar)

    @pytest.mark.parametrize("states", [
        np.ones((2, 2)),  # not normalized
        np.array([[1.0, np.nan]]),
        np.array([[1.0, 0.0, 0.0]]),  # not 2^k amplitudes
        np.array([1.0, 0.0]),  # not rows
        np.array([[1.0, 1e-3j]]),
    ])
    def test_invalid_states_allocate_nothing(self, states):
        store = QubitStore()
        with pytest.raises(ValueError):
            store.new_states(states)
        assert store.new_computational(0) == 0


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
        outcomes = store.measure_rows_in_basis([(a, b)], BELL_VECTORS, rng)
        assert outcomes.tolist() == [BellOutcome.PSI_PLUS]
        assert store.live_qubits() == [c, d]
        with pytest.raises(UnknownQubitError):
            store.register_of(a)
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
        pairs = [(ids[0], ids[1]), (ids[2], ids[3])]
        outcomes = store.measure_rows_in_basis(pairs, BELL_VECTORS, rng)
        assert outcomes.tolist() == [BellOutcome.PHI_PLUS, BellOutcome.PHI_PLUS]


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
        alive = set(a.live_qubits())
        for qubits, arity in ((bell, 1), (four, 2)):
            live = [q for q in qubits if q in alive]
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
            if not (q0 in alive and q1 in alive):
                leftovers += [q for q in (q0, q1) if q in alive]
            elif plan.random() < 0.5:
                pairs.append((q0, q1) if plan.random() < 0.8 else (q1, q0))
            else:
                leftovers += [q0, q1]
        plan.shuffle(leftovers)
        pairs += [tuple(leftovers[i : i + 2]) for i in range(0, len(leftovers) - 1, 2)]
        order = plan.permutation(len(pairs)).tolist()
        pairs = [pairs[i] for i in order]
        want = [b.measure_bell(p, q, gb) for p, q in pairs]
        assert a.measure_rows_in_basis(pairs, BELL_VECTORS, ga).tolist() == want

        # Basis measurements of whole 4-qubit rows, plus a reordered row.
        basis = _five_party_ring(four_kind.value, "1234").basis
        groups = []
        alive = set(a.live_qubits())
        for row in range(n_four):
            ids = four[4 * row : 4 * row + 4]
            if all(q in alive for q in ids):
                groups.append(ids if plan.random() < 0.8 else ids[::-1])
        assert a.measure_rows_in_basis(groups, basis, ga).tolist() == [
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
        outcomes = stores[0].measure_rows_in_basis(groups, basis, ga).tolist()
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
            got = a.measure_rows_in_basis(pairs, BELL_VECTORS, ga).tolist()
            assert got == [b.measure_bell(p, q, gb) for p, q in pairs]
            assert got[2] == BellOutcome.PSI_MINUS
            assert_same_state(a, b)


    @pytest.mark.parametrize("seed", range(6))
    def test_given_uniforms_measure_as_the_generator_would(self, seed):
        # the uniforms a stack of runs passes in place of one generator
        (a, b), bell, _, four = twin_stores(BellOutcome.PHI_MINUS, FourQubitState.CLUSTER, 3, 2)
        pairs = [(bell[1], bell[2]), (bell[0], bell[3]), (bell[4], bell[5])]
        ga, gb = np.random.default_rng(seed), np.random.default_rng(seed)
        got = a.measure_rows_in_basis(pairs, BELL_VECTORS, gb.random(len(pairs)))
        assert got.tolist() == b.measure_rows_in_basis(pairs, BELL_VECTORS, ga).tolist()
        basis = _five_party_ring("cluster", "1256").basis
        groups = np.reshape(four, (2, 4))
        got = a.measure_rows_in_basis(groups, basis, gb.random(2))
        assert got.tolist() == b.measure_rows_in_basis(groups, basis, ga).tolist()
        assert_same_state(a, b)


class TestValidation:
    @pytest.mark.parametrize("uniforms", [[0.5], [0.5, 0.5, 0.5], [0.5, 1.0], [-0.1, 0.5],
                                          [0.5, np.nan]])
    def test_given_uniforms_refused_before_anything_changes(self, uniforms):
        store = QubitStore()
        ids = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 2)
        live = store.live_qubits()
        with pytest.raises(ValueError, match="uniforms"):
            store.measure_rows_in_basis(ids, BELL_VECTORS, uniforms)
        assert store.live_qubits() == live
        assert store.measure_rows_in_basis(ids, BELL_VECTORS, [0.25, 0.75]).tolist() == [0, 0]

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
            store.measure_rows_in_basis(
                [ids[0], ids[0]], BELL_VECTORS, np.random.default_rng(0)
            )

    def test_basis_must_resolve_each_row(self):
        store = QubitStore()
        ids = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 2)
        partial = BELL_VECTORS[1:]  # misses psi+, which holds all the mass
        with pytest.raises(ValueError, match="does not resolve"):
            store.measure_rows_in_basis(ids, partial, np.random.default_rng(0))


    def test_refused_bulk_measurement_changes_nothing(self):
        store = QubitStore()
        a = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 3)
        b = store.new_train(BELL_VECTORS[BellOutcome.PHI_PLUS], 2)
        psi_only = np.vstack([BELL_VECTORS[:2], np.zeros((2, 4))])  # misses b's mass
        live, rng = store.live_qubits(), np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="does not resolve"):
            store.measure_rows_in_basis(np.concatenate([a, b]), psi_only, rng)
        assert store.live_qubits() == live
        assert rng.bit_generator.state == before
        outcomes = store.measure_rows_in_basis(np.concatenate([a, b]), BELL_VECTORS, rng)
        assert outcomes.tolist() == [BellOutcome.PSI_PLUS] * 3 + [BellOutcome.PHI_PLUS] * 2

    def test_incomplete_basis_refused_before_a_cross_row_group(self):
        # The cross pair would go through the general routine, after the
        # whole rows; the basis is refused before either is touched.
        store = QubitStore()
        a = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 2)
        b = store.new_train(BELL_VECTORS[BellOutcome.PHI_PLUS], 2)
        psi_only = np.vstack([BELL_VECTORS[:2], np.zeros((2, 4))])
        live, rng = store.live_qubits(), np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="does not resolve"):
            store.measure_rows_in_basis([a[0], a[1], (b[0, 0], b[1, 0])], psi_only, rng)
        assert store.live_qubits() == live
        assert rng.bit_generator.state == before

    def test_unknown_id_in_a_later_column_refused_before_drawing(self):
        store = QubitStore()
        a = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 2)
        live, rng = store.live_qubits(), np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(UnknownQubitError):
            store.measure_rows_in_basis([a[0], (a[1, 0], 999)], BELL_VECTORS, rng)
        assert store.live_qubits() == live
        assert rng.bit_generator.state == before

    def test_scalar_measurement_refuses_an_incomplete_basis_before_drawing(self):
        # psi+ alone holds all of a psi+ pair's mass, yet it is no basis.
        store = QubitStore()
        pair = store.new_bell(BellOutcome.PSI_PLUS)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="does not resolve"):
            store.measure_in_basis(pair, BELL_VECTORS[:1], rng)
        assert store.live_qubits() == list(pair)
        assert rng.bit_generator.state == before


    @pytest.mark.parametrize("call", ["measure_in_basis", "measure_rows_in_basis", "rows_array"])
    def test_empty_group_refused_before_drawing(self, call):
        store = QubitStore()
        store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 2)
        live, rng = store.live_qubits(), np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="at least one qubit"):
            if call == "measure_in_basis":
                store.measure_in_basis((), np.eye(1), rng)
            elif call == "measure_rows_in_basis":
                store.measure_rows_in_basis([(), ()], np.eye(1), rng)
            else:
                store.measure_rows_in_basis(np.empty((2, 0), dtype=np.int64), np.eye(1), rng)
        assert store.live_qubits() == live
        assert rng.bit_generator.state == before

    def test_basis_rule_holds_at_the_tolerance(self):
        # The rule as first written: each row's summed distance from its unit
        # vector in the Gram matrix stays within NORM_TOL.
        def refused(basis):
            gram_error = np.abs(basis @ basis.T - np.eye(len(basis))).sum(axis=1).max()
            return gram_error > registers.NORM_TOL

        plan = np.random.default_rng(11)
        verdicts = []
        for dim in (2, 4, 16):
            for _ in range(12):
                basis = random_basis(plan, dim)
                direction = plan.normal(size=(dim, dim))
                slope = (
                    np.abs((basis + 1e-9 * direction) @ (basis + 1e-9 * direction).T - np.eye(dim))
                    .sum(axis=1)
                    .max()
                    / 1e-9
                )
                for ratio in (1 - 1e-3, 1 - 1e-6, 1 + 1e-6, 1 + 1e-3):
                    candidate = basis + ratio * registers.NORM_TOL / slope * direction
                    try:
                        registers._checked_basis(candidate)
                    except ValueError as exc:
                        assert "not orthonormal" in str(exc)
                        verdict = True
                    else:
                        verdict = False
                    assert verdict == refused(candidate)
                    verdicts.append(verdict)
        assert 0 < sum(verdicts) < len(verdicts)  # both sides of the tolerance were met

def _pass_workout(store: QubitStore, seed: int) -> list:
    """Paulis and measurements over trains longer than a pass of three rows.

    Groups come from several blocks, as runs of consecutive rows, in
    scrambled order and across rows, so both bulk ops split and stack rows.
    """
    plan, rng = np.random.default_rng(seed), np.random.default_rng(seed + 1)
    bells = [
        store.new_train(BELL_VECTORS[k], 7) for k in (BellOutcome.PSI_PLUS, BellOutcome.PHI_MINUS)
    ]
    four = store.new_train(four_qubit_vector(FourQubitState.CLUSTER), 11)
    lone = store.new_computational(1)
    qubits = np.concatenate([b.ravel() for b in bells])
    store.apply_pauli_groups(random_word(plan, 1), qubits[plan.random(qubits.size) < 0.6, None])
    store.apply_pauli_groups(random_word(plan, 2), four[plan.random(11) < 0.7][:, [0, 2]])
    store.measure_z(int(bells[0][2, 1]), rng)  # row 2 leaves the bulk path
    pairs = np.concatenate([bells[1][:5], bells[0][[6, 0, 5, 3]]])
    pairs = np.vstack([pairs, [bells[0][2, 0], lone], bells[0][4], bells[1][5:]])
    outcomes = store.measure_rows_in_basis(pairs, BELL_VECTORS, rng).tolist()
    basis = _five_party_ring("cluster", "1256").basis
    outcomes += store.measure_rows_in_basis(four[np.r_[2:9, 0, 10, 1, 9]], basis, rng).tolist()
    return outcomes


class TestRowPasses:
    @pytest.mark.parametrize("seed", range(8))
    def test_short_passes_change_no_outcome_or_amplitude(self, seed, monkeypatch):
        default, short = QubitStore(), QubitStore()
        want = _pass_workout(default, seed)
        monkeypatch.setattr(registers, "_ROWS_PER_PASS", 3)
        sizes = []
        measure_rows = QubitStore._measure_rows

        def recording(self, parts, width, basis, uniforms):
            sizes.append(len(uniforms))
            return measure_rows(self, parts, width, basis, uniforms)

        monkeypatch.setattr(QubitStore, "_measure_rows", recording)
        assert _pass_workout(short, seed) == want
        assert max(sizes) == 3 and len(sizes) > 1
        assert short.live_qubits() == default.live_qubits()
        for q in default.live_qubits():
            got, expected = short.register_of(q), default.register_of(q)
            assert got.qubits == expected.qubits
            assert np.array_equal(got.amplitudes, expected.amplitudes)

    @pytest.mark.parametrize("rows_per_pass", [3, registers._ROWS_PER_PASS])
    @pytest.mark.parametrize("seed", range(6))
    def test_uneven_rows_across_blocks_match_scalar_loop(self, seed, rows_per_pass, monkeypatch):
        monkeypatch.setattr(registers, "_ROWS_PER_PASS", rows_per_pass)
        plan = np.random.default_rng(seed)
        stores = [QubitStore(), QubitStore()]
        vectors = random_basis(plan, 4)[:2]
        for store in stores:
            trains = [store.new_train(v, 5) for v in vectors]  # the same ids in both
        groups = np.concatenate([trains[0][1:], trains[1][1:]])[plan.permutation(8)].tolist()
        groups.insert(3, [int(trains[0][0, 0]), int(trains[1][0, 1])])  # across rows
        basis = random_basis(plan, 4)
        ga, gb = np.random.default_rng(seed), np.random.default_rng(seed)
        outcomes = stores[0].measure_rows_in_basis(groups, basis, ga).tolist()
        assert outcomes == [stores[1].measure_in_basis(g, basis, gb) for g in groups]
        assert_same_state(*stores)

    @pytest.mark.parametrize("parties", [2, 3, 5])
    def test_short_passes_change_no_run(self, parties, monkeypatch):
        cfg = ProtocolConfig(key_bits=32, party_count=parties, seed=3, error_threshold=1.0)
        adversary = AdversaryModel(kind=AdversaryKind.INTERCEPT_RESEND_Z, fraction=0.5)
        want = [run_protocol(cfg).to_json(), run_protocol(cfg, adversary).to_json()]
        monkeypatch.setattr(registers, "_ROWS_PER_PASS", 3)
        assert [run_protocol(cfg).to_json(), run_protocol(cfg, adversary).to_json()] == want


def _crossing_store(seed):
    """Bell and four-qubit trains with uneven amplitudes, two lone qubits and
    listed remainders of one, three and four qubits; the same for one seed."""
    plan, rng = np.random.default_rng(seed), np.random.default_rng([seed, 1])
    store = QubitStore()
    bell = store.new_train(random_basis(plan, 4)[0], 12)
    four = store.new_train(random_basis(plan, 16)[0], 6)
    lone = store.new_states(random_basis(plan, 2)).ravel()
    store.measure_z(int(bell[10, 0]), rng)
    store.measure_in_basis([int(four[5, 0])], random_basis(plan, 2), rng)
    store.measure_bell(int(bell[11, 0]), int(four[4, 3]), rng)
    return store, bell, four, lone


def _crossing_groups(plan, m, bell, four, lone):
    """Groups that cross registers or share them, in a random order.

    For m = 1: both qubits of Bell rows 0-9, 4-qubit rows 0-3 at every
    position, the lone qubits, and every qubit of the listed remainders of
    one, three and four qubits, so registers are named up to four times.
    For m = 2: rows 0-4 paired as a reordering receiver's swaps leave them,
    rows 5-9 as an early-measuring sender's random guess, and pairs with the
    lone qubits and the listed remainders. For m = 4: two qubits of each of
    rows 0-3 with two of a row of a random pairing, and one group over a
    listed remainder.
    """
    if m == 1:
        groups = [[q] for q in [*bell[:10].ravel(), *four[:4].ravel(), *lone, bell[10, 1]]]
        groups += [[q] for q in [*four[5, 1:], bell[11, 1], *four[4, :3]]]
    elif m == 2:
        swapped = np.arange(5)
        swapped[[0, 3]] = swapped[[3, 0]]
        guessed = 5 + plan.permutation(5)
        groups = [[bell[i, 0], bell[j, 1]] for i, j in zip(range(5), swapped)]
        groups += [[bell[i, 0], bell[j, 1]] for i, j in zip(range(5, 10), guessed)]
        groups += [[lone[0], bell[10, 1]], [four[5, 1], lone[1]], [bell[11, 1], four[5, 3]]]
    else:
        guessed = plan.permutation(4)
        groups = [[four[i, 0], four[i, 1], four[j, 2], four[j, 3]] for i, j in enumerate(guessed)]
        groups.append([four[4, 1], lone[0], four[4, 0], bell[11, 1]])
    order = plan.permutation(len(groups))
    return np.array(groups, dtype=np.int64)[order]


class TestCrossingWaves:
    """The wave kernel for groups that are not whole rows, at several cutovers,
    against one ``measure_in_basis`` per group on a twin store."""

    @pytest.mark.parametrize("cutovers", [(0, 0), (4, 3), CUTOVERS])
    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("seed", range(10))
    def test_waves_match_one_group_at_a_time(self, seed, m, cutovers, monkeypatch):
        (a, bell, four, lone), (b, *_) = _crossing_store(seed), _crossing_store(seed)
        plan = np.random.default_rng([seed, 2])
        groups = _crossing_groups(plan, m, bell, four, lone)
        basis = random_basis(plan, 2**m)
        gb = np.random.default_rng([seed, 3])
        want = [b.measure_in_basis(g, basis, gb) for g in groups.tolist()]
        bulk_groups, bulk_bucket = cutovers
        monkeypatch.setattr(registers, "_BULK_GROUPS", bulk_groups)
        monkeypatch.setattr(registers, "_BULK_BUCKET", bulk_bucket)
        buckets, one_by_one = [], []
        measure_bucket, measure = QubitStore._measure_bucket, QubitStore._measure

        def recording(self, ids, *args):
            buckets.append(len(ids))
            return measure_bucket(self, ids, *args)

        def counting(self, qubits, *args):
            one_by_one.append(qubits)
            return measure(self, qubits, *args)

        monkeypatch.setattr(QubitStore, "_measure_bucket", recording)
        monkeypatch.setattr(QubitStore, "_measure", counting)
        ga = np.random.default_rng([seed, 3])
        assert a.measure_rows_in_basis(groups, basis, ga).tolist() == want
        if not bulk_bucket:  # at 0, every group that is not a whole row goes in bulk
            assert buckets and not one_by_one
        assert ga.random() == gb.random()
        assert_same_state(a, b)

    @pytest.mark.parametrize("cutovers", [(0, 0), (32, 8)])
    def test_capacity_cap_fails_loudly_in_bulk(self, cutovers, monkeypatch):
        monkeypatch.setattr(registers, "_BULK_GROUPS", cutovers[0])
        monkeypatch.setattr(registers, "_BULK_BUCKET", cutovers[1])
        store = QubitStore()
        rows = store.new_train(four_qubit_vector(FourQubitState.OMEGA), 5)
        live = store.live_qubits()
        with pytest.raises(RegisterCapacityError):  # four rows: a 16-qubit merge
            store.measure_rows_in_basis(rows[:4, :1].T, np.eye(16), np.random.default_rng(0))
        assert store.live_qubits() == live


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

    @pytest.mark.parametrize("kind, parties", [
        pytest.param("intercept-z", 2, id="intercept-z"),
        pytest.param("dishonest-bob", 2, id="dishonest-bob"),
        pytest.param("dishonest-alice", 2, id="dishonest-alice"),
        pytest.param("intercept-z", 3, id="intercept-z-3p"),
        pytest.param("intercept-z", 5, id="intercept-z-5p"),
    ])
    def test_attacked_batches_measure_one_by_one_only_below_the_cutover(
        self, kind, parties, monkeypatch
    ):
        """In a 40-trial batch, groups that cross registers and one-qubit groups
        go through the wave kernel; ``_measure`` sees only small buckets and
        short tails, and each wave's one-qubit groups on rows of one width
        arrive as one bucket, wherever in their rows the qubits sit."""
        calls, sizes, buckets, waves = [], [], [], []
        measure, one_by_one = QubitStore._measure, QubitStore._one_by_one
        measure_bucket, measure_crossing = QubitStore._measure_bucket, QubitStore._measure_crossing

        def counting(self, qubits, *args):
            calls.append(len(qubits))
            return measure(self, qubits, *args)

        def recording(self, targets, chosen, *args):
            sizes.append(len(chosen))
            waves[-1][1].append(("one", len(chosen)))
            return one_by_one(self, targets, chosen, *args)

        def bucketing(self, ids, places, opened, *args):
            buckets.append(len(ids))
            waves[-1][1].append(("bucket", opened[0], len(ids)))
            return measure_bucket(self, ids, places, opened, *args)

        def crossing(self, targets, pending, *args):
            one_qubit = targets.shape[1] == 1
            waves.append((_one_qubit_waves(self, targets[pending, 0]) if one_qubit else None, []))
            return measure_crossing(self, targets, pending, *args)

        monkeypatch.setattr(QubitStore, "_measure", counting)
        monkeypatch.setattr(QubitStore, "_one_by_one", recording)
        monkeypatch.setattr(QubitStore, "_measure_bucket", bucketing)
        monkeypatch.setattr(QubitStore, "_measure_crossing", crossing)
        adversary = AdversaryModel(kind=kind, fraction=1.0, swap_count=4)
        config = ProtocolConfig(key_bits=16, party_count=parties, seed=11, error_threshold=1.0)
        results = run_batch(config, adversary, 40)
        assert len(results) == 40 and not any(r.aborted for r in results)
        assert len(calls) == sum(sizes)  # every one-group measurement comes through here
        assert max(sizes) < registers._BULK_GROUPS
        assert min(buckets) >= registers._BULK_BUCKET and sum(buckets) > 4 * len(calls)
        one_qubit = [(want, got) for want, got in waves if want is not None]
        assert bool(one_qubit) == (kind == "intercept-z")
        for want, got in one_qubit:
            assert got == want


def _one_qubit_waves(store, ids):
    """What the wave rule makes of one-qubit groups ``ids``, read from a copy
    of the store: ``_measure_crossing``'s calls in order, ("bucket", width,
    groups) or ("one", groups). A qubit's wave is its rank among the named
    qubits of its register, and a wave's qubits on rows of one width form
    one bucket, measured one by one if it holds fewer than ``_BULK_BUCKET``."""
    twin, named, pending = copy.deepcopy(store), {}, []
    for q in ids.tolist():
        register = twin.register_of(q).qubits
        rank = named[register] = named.get(register, -1) + 1
        pending.append((rank, len(register) - rank))  # its wave, and its row's width then
    calls, wave = [], 0
    while len(pending) >= registers._BULK_GROUPS:
        widths = sorted(width for rank, width in pending if rank == wave)
        for width in sorted(set(widths)):
            count = widths.count(width)
            bulk = count >= registers._BULK_BUCKET
            calls.append(("bucket", width, count) if bulk else ("one", count))
        pending, wave = [p for p in pending if p[0] != wave], wave + 1
    return calls + [("one", len(pending))]


def _singles_store(plan):
    """A store with Bell rows, 4-qubit rows, lone qubits and listed remainders.

    Measuring qubits of some rows first leaves listed rows of one, two and
    three qubits behind; a cross-row Bell measurement leaves a listed pair.
    """
    store, rng = QubitStore(), np.random.default_rng(int(plan.integers(2**32)))
    bell = store.new_train(random_basis(plan, 4)[0], 4)
    four = store.new_train(random_basis(plan, 16)[0], 3)
    lone = [store.new_computational(bit) for bit in (0, 1)]
    store.measure_z(int(bell[0, 0]), rng)
    store.measure_in_basis([int(four[0, 1])], random_basis(plan, 2), rng)
    store.measure_bell(int(bell[1, 1]), int(bell[2, 0]), rng)
    return store, lone


class TestSingleQubitMeasurement:
    """One-qubit groups of ``measure_rows_in_basis`` against sequential one-qubit
    measurements on a twin store."""

    @pytest.mark.parametrize("cutovers", [CUTOVERS, (0, 0)])  # (0, 0): all in bulk
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), z=st.booleans())
    def test_matches_sequential_measurements(self, cutovers, seed, z):
        plan = np.random.default_rng(seed)
        a, _ = _singles_store(np.random.default_rng(seed))
        b, _ = _singles_store(np.random.default_rng(seed))
        live = a.live_qubits()
        ids = plan.permutation(live)[: int(plan.integers(1, len(live) + 1))].tolist()
        basis = np.eye(2) if z else random_basis(plan, 2)
        ga, gb = np.random.default_rng(seed), np.random.default_rng(seed)
        groups, uniforms = np.asarray(ids)[:, None], ga.random(len(ids))
        with mock.patch.multiple(registers, _BULK_GROUPS=cutovers[0], _BULK_BUCKET=cutovers[1]):
            got = a.measure_rows_in_basis(groups, basis, uniforms)
        if z:
            want = [b.measure_z(q, gb) for q in ids]
        else:
            want = [b.measure_in_basis([q], basis, gb) for q in ids]
        assert got.dtype == np.int64 and got.tolist() == want
        assert_same_state(a, b)
        for q in a.live_qubits():
            assert a.register_of(q).qubits == b.register_of(q).qubits
            if z:  # the same arithmetic: every amplitude is equal
                assert np.array_equal(a.register_of(q).amplitudes, b.register_of(q).amplitudes)

    @pytest.mark.parametrize(
        "case", ["two_in_a_row", "listed_remainder", "three_blocks", "four_wide"]
    )
    def test_named_cases_match_measure_z(self, case):
        for seed in range(12):
            stores = []
            for _ in range(2):
                store = QubitStore()
                bell = store.new_train(BELL_VECTORS[BellOutcome.PSI_MINUS], 3)
                four = store.new_train(four_qubit_vector(FourQubitState.OMEGA), 2)
                lone = store.new_computational(1)
                stores.append(store)
            if case == "two_in_a_row":
                ids = [bell[1, 1], bell[0, 0], bell[1, 0]]
            elif case == "listed_remainder":
                for store in stores:  # row 0 of the Bell train becomes a listed one-qubit row
                    store.measure_z(int(bell[0, 1]), np.random.default_rng(seed))
                ids = [bell[0, 0], bell[2, 1]]
            elif case == "three_blocks":
                ids = [four[1, 2], lone, bell[2, 0], four[0, 0]]
            else:
                ids = [four[0, 3], four[0, 1], four[1, 0], four[0, 0], four[0, 2]]
            ids = [int(q) for q in ids]
            (a, b), ga, gb = stores, np.random.default_rng(seed), np.random.default_rng(seed)
            got = a.measure_rows_in_basis(
                np.asarray(ids)[:, None], np.eye(2), ga.random(len(ids))
            )
            assert got.tolist() == [b.measure_z(q, gb) for q in ids]
            assert a.live_qubits() == b.live_qubits()
            for q in a.live_qubits():
                ra, rb = a.register_of(q), b.register_of(q)
                assert ra.qubits == rb.qubits and np.array_equal(ra.amplitudes, rb.amplitudes)
            assert ga.random() == gb.random()

    @pytest.mark.parametrize("call", [
        lambda s, ids, u: s.measure_rows_in_basis(
            np.asarray([ids[0], 999])[:, None], np.eye(2), u[:2]),
        lambda s, ids, u: s.measure_rows_in_basis(
            np.asarray([ids[1], ids[0], ids[1]])[:, None], np.eye(2), u[:3]),
        lambda s, ids, u: s.measure_rows_in_basis(
            np.asarray(ids[:2])[:, None], np.array([[1.0, 0.0], [0.0, np.nan]]), u[:2]),
        lambda s, ids, u: s.measure_rows_in_basis(
            np.asarray(ids[:2])[:, None], np.array([[1.0, 0.0], [0.6, 0.8]]), u[:2]),
        lambda s, ids, u: s.measure_rows_in_basis(
            np.asarray(ids[:2])[:, None], np.eye(4), u[:2]),
        lambda s, ids, u: s.measure_rows_in_basis(
            np.asarray(ids[:3])[:, None], np.eye(2), u[:2]),
        lambda s, ids, u: s.measure_rows_in_basis(
            np.asarray(ids[:2])[:, None], np.eye(2), [0.5, 1.0]),
    ], ids=["unknown", "repeated", "nan-basis", "not-orthonormal", "wide-basis",
            "too-few-uniforms", "uniform-out-of-range"])
    def test_refusals_change_nothing(self, call):
        store, lone = _singles_store(np.random.default_rng(5))
        twin, _ = _singles_store(np.random.default_rng(5))
        measured = [q for q in range(store._next_id) if q not in store.live_qubits()][0]
        ids = [q for q in store.live_qubits() if q not in lone][:3]
        rng = np.random.default_rng(1)
        uniforms = rng.random(3)
        state = rng.bit_generator.state
        with pytest.raises((ValueError, UnknownQubitError)):
            call(store, ids, uniforms)
        with pytest.raises(UnknownQubitError):
            store.measure_rows_in_basis(np.asarray([measured])[:, None], np.eye(2), [0.5])
        assert rng.bit_generator.state == state
        assert_same_state(store, twin)
        groups = np.asarray(ids)[:, None]
        assert (store.measure_rows_in_basis(groups, np.eye(2), uniforms).tolist()
                == twin.measure_rows_in_basis(groups, np.eye(2), uniforms).tolist())

    def test_whole_rows_repeats_and_listed_remainders_in_one_call(self):
        """Whole width-1 rows, registers named twice and qubits of listed rows
        in one call: the outcomes, draws and amplitudes of a measure_z loop."""
        for seed in range(12):
            stores = []
            for _ in range(2):
                store = QubitStore()
                bell = store.new_train(BELL_VECTORS[BellOutcome.PHI_MINUS], 3)
                four = store.new_train(four_qubit_vector(FourQubitState.CLUSTER), 2)
                ones = store.new_states(np.array([[0.6, 0.8], [0.8, -0.6], [0.0, 1.0]]))
                lone = store.new_computational(1)
                store.measure_z(int(four[1, 2]), np.random.default_rng(seed))  # a listed row of 3
                store.measure_z(int(bell[2, 0]), np.random.default_rng(seed))  # a listed row of 1
                stores.append(store)
            ids = [ones[1, 0], four[0, 2], four[1, 3], bell[1, 1], lone, four[0, 0],
                   bell[2, 1], four[1, 0], ones[0, 0], bell[1, 0], four[0, 3], ones[2, 0]]
            ids = [int(q) for q in ids]
            (a, b), ga, gb = stores, np.random.default_rng(seed), np.random.default_rng(seed)
            got = a.measure_rows_in_basis(np.asarray(ids)[:, None], np.eye(2), ga)
            assert got.tolist() == [b.measure_z(q, gb) for q in ids]
            assert ga.random() == gb.random()
            assert a.live_qubits() == b.live_qubits()
            for q in a.live_qubits():
                ra, rb = a.register_of(q), b.register_of(q)
                assert ra.qubits == rb.qubits and np.array_equal(ra.amplitudes, rb.amplitudes)

    def test_remainders_of_one_block_and_width_form_one_listed_block(self, monkeypatch):
        monkeypatch.setattr(registers, "_BULK_GROUPS", 0)  # four groups: in bulk only at 0
        monkeypatch.setattr(registers, "_BULK_BUCKET", 0)
        store = QubitStore()
        bell = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 4)
        store.measure_rows_in_basis(bell[:, 1:], np.eye(2), [0.1, 0.6, 0.3, 0.9])
        views = [store.register_of(int(q)) for q in bell[:, 0]]
        assert [v.qubits for v in views] == [(int(q),) for q in bell[:, 0]]
        assert len({id(v.amplitudes.base) for v in views}) == 1  # rows of one block
        outcomes = store.measure_rows_in_basis(
            np.asarray(bell[::-1, 0])[:, None], np.eye(2), [0.5] * 4
        )
        assert outcomes.tolist() == [1, 0, 1, 0] and store.live_qubits() == []
