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
    StateRegister,
    UnknownQubitError,
    _sample_index,
    _sample_rows,
    apply_element,
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

    def test_register_view_is_read_only_and_live(self):
        store = QubitStore()
        ids = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 2)
        reg = store.register_of(int(ids[0, 0]))
        with pytest.raises(ValueError, match="read-only"):
            reg.amplitudes[:] = 0.0
        np.testing.assert_array_equal(reg.amplitudes, BELL_VECTORS[BellOutcome.PSI_PLUS])
        store.apply_pauli_groups(GroupElement.of(PauliLetter.X), [(int(ids[0, 1]),)])
        assert store.register_of(int(ids[0, 0])) is reg
        np.testing.assert_array_equal(reg.amplitudes, BELL_VECTORS[BellOutcome.PHI_PLUS])

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
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4, 8, 16, 32]))
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
        # A transposed, F-ordered view. Only below the pairwise boundary: from there up
        # numpy totals a strided row in order, not pairwise, so a knife-edge row can draw
        # otherwise, which is why the merge kernel passes its chances C-ordered.
        if dim < registers._PAIRWISE_FROM:
            assert _sample_rows(np.ascontiguousarray(probs.T).T, uniforms).tolist() == expected

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("dim", [2, 4, 16])
    def test_probs_are_not_written(self, dim, layout):
        plan = np.random.default_rng(dim)
        probs = plan.random((50, dim))
        probs /= probs.sum(axis=1, keepdims=True)
        if layout == "F":
            probs = np.ascontiguousarray(probs.T).T
        before = probs.copy()
        _sample_rows(probs, plan.random(50))
        assert probs.view(np.uint64).tolist() == before.view(np.uint64).tolist()

    @pytest.mark.parametrize("dim", [registers._PAIRWISE_FROM, 16])
    def test_long_rows_keep_the_pairwise_total(self, dim):
        """From the pairwise boundary up, a row's total is ``np.add.reduce``'s, as
        the scalar draw's is, not the last running sum; the two can differ in
        the last bit, and each uniform here puts its target between them and
        the first bin edge."""
        plan = np.random.default_rng(dim)
        rows, uniforms = [], []
        for _ in range(100_000):  # bounded, so a change in numpy's summation fails, not hangs
            if len(rows) == 20:
                break
            row = plan.random(dim)
            row /= row.sum()
            total, last = np.add.reduce(row), row.cumsum()[-1]
            u = row[0] / total
            if (u * total >= row[0]) != (u * last >= row[0]):
                rows.append(row)
                uniforms.append(u)
        assert len(rows) == 20
        want = [_sample_index(row, u) for row, u in zip(rows, uniforms)]
        assert _sample_rows(np.array(rows), np.array(uniforms)).tolist() == want

    @pytest.mark.parametrize("dim", range(2, registers._PAIRWISE_FROM))
    def test_numpy_sums_short_rows_in_order(self, dim):
        """The numpy facts the outcome-major draw rests on, bit for bit.

        Whole-row additions build ``cumsum``'s running sums, and below the
        pairwise boundary the last of them is ``np.add.reduce``'s row sum.
        Should numpy change its summation order, these fail before any draw moves.
        """
        plan = np.random.default_rng(dim)
        probs = plan.random((500, dim)) * 10.0 ** plan.integers(-12, 1, (500, dim))
        running = probs.T.copy()
        for i in range(1, dim):
            np.add(running[i - 1], running[i], out=running[i])
        assert np.array_equal(running.T.view(np.uint64), probs.cumsum(axis=1).view(np.uint64))
        assert np.array_equal(running[-1].view(np.uint64), np.add.reduce(probs, 1).view(np.uint64))

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


class TestMassGuard:
    """A row whose probability mass is not 1, NaN included, is refused by each
    measurement routine before any qubit retires. Only a corrupt store holds
    such a row, so the tests corrupt one through the private blocks."""

    MESSAGE = "probability mass deviates from 1"

    @pytest.mark.parametrize("factor", [2.0, np.nan])
    def test_whole_rows(self, factor):
        store = QubitStore()
        ids = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 8)
        store._blocks[0].amplitudes[3] *= factor
        live = store.live_qubits()
        with pytest.raises(ValueError, match=self.MESSAGE):
            store.measure_rows_in_basis(ids, BELL_VECTORS, np.random.default_rng(0))
        assert store.live_qubits() == live

    @pytest.mark.parametrize("factor", [2.0, np.nan])
    def test_one_group(self, factor):
        store = QubitStore()
        ids = store.new_train(BELL_VECTORS[BellOutcome.PHI_MINUS], 2)
        store._blocks[0].amplitudes[1] *= factor
        live = store.live_qubits()
        with pytest.raises(ValueError, match=self.MESSAGE):
            store.measure_bell(int(ids[1, 0]), int(ids[1, 1]), np.random.default_rng(0))
        assert store.live_qubits() == live

    @pytest.mark.parametrize("factor", [2.0, np.nan])
    def test_cross_register_bucket(self, factor):
        store = QubitStore()
        ids = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 80)
        groups = np.stack([ids[0::2, 1], ids[1::2, 0]], axis=1)  # 40 groups over two rows each
        store._blocks[0].amplitudes[0] *= factor
        live = store.live_qubits()
        bucket = QubitStore._measure_bucket
        with mock.patch.object(
            QubitStore, "_measure_bucket", autospec=True, side_effect=bucket
        ) as spy:
            with pytest.raises(ValueError, match=self.MESSAGE):
                store.measure_rows_in_basis(groups, BELL_VECTORS, np.random.default_rng(0))
        assert spy.call_count == 1 and len(spy.call_args.args[1]) == 40
        assert store.live_qubits() == live


class TestPauliBits:
    """The store's Pauli action is ``apply_element``'s, bit for bit, signed zeros included."""

    LETTERS = (PauliLetter.X, PauliLetter.Z, PauliLetter.IY)

    @staticmethod
    def signed_rows(width):
        """Six normalized rows of uneven signs, holding 0.0 and -0.0 entries."""
        plan = np.random.default_rng(width)
        rows = plan.normal(size=(6, 2**width))
        dim = 2**width
        for r in range(6):
            zeros = plan.choice(dim, size=max(1, dim // 2), replace=False)
            rows[r, zeros] = 0.0
            rows[r, zeros[r % 2 :: 2]] = -0.0
        rows /= np.sqrt(np.square(rows).sum(axis=1, keepdims=True))
        assert np.signbit(rows[rows == 0.0]).any() and not np.signbit(rows[rows == 0.0]).all()
        return rows

    @staticmethod
    def bits_after(width, element, positions):
        """Rows after ``element`` on ``positions``, by the store and by ``apply_element``,
        and the rows before, each as uint64 bits."""
        rows = TestPauliBits.signed_rows(width)
        store = QubitStore()
        ids = store.new_states(rows)
        store.apply_pauli_groups(element, ids[:, positions])
        got = np.array([store.register_of(int(q)).amplitudes for q in ids[:, 0]])
        want = [
            apply_element(StateRegister(tuple(q), row), element, q[positions].tolist()).amplitudes
            for q, row in zip(ids, rows)
        ]
        return got.view(np.uint64), np.array(want).view(np.uint64), rows.view(np.uint64)

    @pytest.mark.parametrize("letter", LETTERS, ids=lambda letter: letter.name)
    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_every_letter_at_every_position(self, width, letter):
        for pos in range(width):
            got, want, _ = self.bits_after(width, GroupElement.of(letter), [pos])
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("width", [2, 4])
    def test_identity_letters_leave_their_positions(self, width):
        letters = [PauliLetter.I] * width
        letters[1] = PauliLetter.IY
        got, want, _ = self.bits_after(width, GroupElement(tuple(letters)), list(range(width)))
        alone, _, _ = self.bits_after(width, GroupElement.of(PauliLetter.IY), [1])
        assert np.array_equal(got, want) and np.array_equal(got, alone)
        got, _, before = self.bits_after(width, GroupElement.identity(width), list(range(width)))
        assert np.array_equal(got, before)

    def test_a_word_of_three_letters(self):
        word = GroupElement.of(PauliLetter.X, PauliLetter.I, PauliLetter.Z, PauliLetter.IY)
        got, want, _ = self.bits_after(4, word, [0, 1, 2, 3])
        assert np.array_equal(got, want)


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

    @pytest.mark.parametrize("call", ["apply_pauli_groups", "measure_rows_in_basis"])
    def test_ragged_groups_refused_before_anything_changes(self, call):
        store = QubitStore()
        a, b, c, d = store.new_train(BELL_VECTORS[BellOutcome.PSI_PLUS], 2).ravel().tolist()
        live, rng = store.live_qubits(), np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="every group must hold the same number of qubits"):
            if call == "apply_pauli_groups":
                store.apply_pauli_groups(GroupElement.of(PauliLetter.X), [(a,), (c, d)])
            else:
                store.measure_rows_in_basis([(a, b), (c,)], BELL_VECTORS, rng)
        assert store.live_qubits() == live
        assert rng.bit_generator.state == before

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


def _lattice_store(seed):
    """Two allocated blocks of uneven rows, Bell-sized and 4-qubit, each with
    one row broken by a measurement; the same for one seed."""
    plan, rng = np.random.default_rng(seed), np.random.default_rng([seed, 1])
    store = QubitStore()
    bell = store.new_states(random_basis(plan, 4)[plan.integers(0, 4, 12)])
    four = store.new_states(random_basis(plan, 16)[plan.integers(0, 16, 9)])
    store.measure_z(int(bell[5, 1]), rng)
    store.measure_z(int(four[2, 3]), rng)
    return store, bell, four


def _lattice_workout(seed: int) -> tuple:
    """Paulis and measurements on lattices of ``_lattice_store(seed)``.

    Each call names intact rows of one block in a shuffled order, every
    group at one set of positions: Pauli words with identity letters on
    position subsets, whole rows in register order and position subsets
    measured. Returns the store, the outcomes and the generator.
    """
    store, bell, four = _lattice_store(seed)
    plan, rng = np.random.default_rng([seed, 2]), np.random.default_rng([seed, 3])

    def lattice(ids, positions, share=1.0):
        """Some of the intact rows of ``ids``, in a shuffled order, at ``positions``."""
        live = set(store.live_qubits())
        intact = np.array([r for r in range(len(ids)) if live.issuperset(ids[r].tolist())])
        most = int(share * len(intact))
        return ids[plan.permutation(intact)[: int(plan.integers(most // 2, most)) + 1]][:, positions]

    for ids in (bell, four):
        m = int(plan.integers(1, ids.shape[1] + 1))
        word = random_word(plan, m)
        if m > 1:
            word = GroupElement((PauliLetter.I, *word.letters[1:]))
        store.apply_pauli_groups(word, lattice(ids, plan.permutation(ids.shape[1])[:m]))
    outcomes = store.measure_rows_in_basis(lattice(bell, [0, 1]), BELL_VECTORS, rng).tolist()
    some = plan.permutation(4)[:2]
    basis = random_basis(plan, 4)
    outcomes += store.measure_rows_in_basis(lattice(four, some, 0.5), basis, rng).tolist()
    store.apply_pauli_groups(random_word(plan, 4), lattice(four, [0, 1, 2, 3]))
    outcomes += store.measure_rows_in_basis(
        lattice(four, [0, 1, 2, 3]), random_basis(plan, 16), rng
    ).tolist()
    return store, outcomes, rng


def _declined(self, targets):
    """A lattice detector that declines every input: the general route."""
    return None


def _answer(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return call()
    except (ValueError, KeyError) as exc:
        return type(exc), str(exc)


def assert_same_bits(a: QubitStore, b: QubitStore) -> None:
    """Same live qubits, and every register of each holds the same qubits and amplitude bits."""
    assert a.live_qubits() == b.live_qubits()
    for q in a.live_qubits():
        ra, rb = a.register_of(q), b.register_of(q)
        assert ra.qubits == rb.qubits
        assert ra.amplitudes.view(np.uint64).tolist() == rb.amplitudes.view(np.uint64).tolist()


class TestLatticeRoute:
    """Groups that form a lattice skip the general route's sort and lookups;
    every answer is the general route's, forced by a detector that declines."""

    @pytest.mark.parametrize("tuning", [
        {}, {"_ROWS_PER_PASS": 3}, {"_BULK_GROUPS": 0, "_BULK_BUCKET": 0},
    ], ids=["default", "short-passes", "all-in-bulk"])
    @pytest.mark.parametrize("seed", range(10))
    def test_lattices_match_the_general_route(self, seed, tuning, monkeypatch):
        for name, value in tuning.items():
            monkeypatch.setattr(registers, name, value)
        found, detect = [], QubitStore._lattice

        def spying(self, targets):
            found.append(detect(self, targets))
            return found[-1]

        with mock.patch.object(QubitStore, "_lattice", spying):
            fast, outcomes, rng = _lattice_workout(seed)
        assert len(found) == 8 and None not in found  # two build the store, six work it
        with mock.patch.object(QubitStore, "_lattice", _declined):
            general, want, twin = _lattice_workout(seed)
        assert outcomes == want
        assert rng.bit_generator.state == twin.bit_generator.state
        assert_same_bits(fast, general)

    REFUSED = {  # each near lattice's refusal, or None for a valid input
        "row-named-twice": ValueError,
        "qubit-named-twice": ValueError,
        "row-with-a-measured-qubit": UnknownQubitError,
        "next-id": UnknownQubitError,
        "negative-id": UnknownQubitError,  # numpy would read id -2 from the map's end
        "negative-later-id": UnknownQubitError,
        "far-id": UnknownQubitError,  # past either end of the id map
        "far-negative-id": UnknownQubitError,
        "positions-vary": None,
        "across-rows": None,
        "two-blocks": None,  # the second block's first row sits where a seventh row of a would
        "listed-block": None,  # ids 0, 2, 4, 6 of a listed block whose first is -1: rows 1, 3, 5, 7
    }

    @staticmethod
    def near_lattice(case):
        """A store, and groups for ``case`` that miss being a lattice by one rule."""
        plan = np.random.default_rng(5)
        store = QubitStore()
        d = store.new_states(random_basis(plan, 4)[plan.integers(0, 4, 8)])
        a = store.new_states(random_basis(plan, 4)[[0, 1, 2, 3, 0, 1]])
        c = store.new_states(random_basis(plan, 4)[[2, 3]])
        with mock.patch.multiple(registers, _BULK_GROUPS=0, _BULK_BUCKET=0):
            store.measure_rows_in_basis(d[:, 1:], np.eye(2), plan.random(8))  # one listed block
        store.measure_z(int(a[2, 1]), np.random.default_rng(1))
        end = store._next_id
        groups = {
            "row-named-twice": a[[0, 4, 0]],
            "qubit-named-twice": a[[0, 1]][:, [1, 1]],
            "row-with-a-measured-qubit": a[[3, 2, 1]],
            "next-id": np.vstack([c[[1, 0]], [end, end + 1]]),
            "negative-id": np.vstack([[-2, -1], a[[0, 1]]]),
            "negative-later-id": np.vstack([a[[0, 1]], [-2, -1]]),
            "far-id": np.vstack([[2**40, 2**40 + 1], a[[0, 1]]]),
            "far-negative-id": np.vstack([[-(2**40), 1 - 2**40], a[[0, 1]]]),
            "positions-vary": np.vstack([a[0], a[1, ::-1]]),
            "across-rows": np.vstack([a[0], [a[3, 0], a[4, 1]]]),
            "two-blocks": np.vstack([a[[4, 5]], c[:1]]),
            "listed-block": d[:4, :1],
        }[case]
        return store, groups

    @pytest.mark.parametrize("call", ["apply_pauli_groups", "measure_rows_in_basis"])
    @pytest.mark.parametrize("case", list(REFUSED))
    def test_near_lattices_answer_as_the_general_route(self, case, call):
        """Inputs that nearly form a lattice are declined, and the store then
        answers as the general route does: the same refusal, type and
        message, before any draw or change, or the same outcomes and state."""
        store, groups = self.near_lattice(case)
        assert store._lattice(groups) is None
        m = groups.shape[1]
        word = GroupElement(tuple(PauliLetter(1 + j % 3) for j in range(m)))
        basis = random_basis(np.random.default_rng(7), 2**m)
        answers = []
        for detector in (QubitStore._lattice, _declined):
            (store, _), (twin, _) = self.near_lattice(case), self.near_lattice(case)
            rng = np.random.default_rng(9)
            before = rng.bit_generator.state
            with mock.patch.object(QubitStore, "_lattice", detector):
                if call == "apply_pauli_groups":
                    answer = _answer(lambda: store.apply_pauli_groups(word, groups))
                else:
                    answer = _answer(lambda: store.measure_rows_in_basis(groups, basis, rng))
            if self.REFUSED[case] is None:
                assert not isinstance(answer, tuple)
            else:
                assert answer[0] is self.REFUSED[case]
                assert rng.bit_generator.state == before
                assert_same_bits(store, twin)
            answer = answer.tolist() if isinstance(answer, np.ndarray) else answer
            answers.append((answer, rng.bit_generator.state, store))
        (got, state, fast), (want, twin_state, general) = answers
        assert got == want and state == twin_state
        assert_same_bits(fast, general)


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

    def test_knife_edge_buckets_draw_as_one_group_at_a_time(self):
        """A bucket totals each group's 16 chances pairwise, as ``_measure`` does.

        Each group is two 2-qubit rows measured whole in the identity basis,
        so both routines see the same chance bits. Each uniform puts its
        target between the pairwise total and the in-order one, which the
        bucket would use if it drew from an F-ordered chance array."""
        plan = np.random.default_rng(16)
        rows, uniforms = [], []
        for _ in range(10_000):  # bounded, so a change in numpy's summation fails, not hangs
            if len(uniforms) == 40:
                break
            a, b = random_basis(plan, 4)[0], random_basis(plan, 4)[0]
            chance = np.square(np.repeat(a, 4) * np.tile(b, 4))  # the merge's product, bit for bit
            total, last = np.add.reduce(chance), chance.cumsum()[-1]
            u = chance[0] / total
            if u < 1.0 and (u * total >= chance[0]) != (u * last >= chance[0]):
                rows += [a, b]
                uniforms.append(u)
        assert len(uniforms) == 40
        bucket, one = QubitStore(), QubitStore()
        groups = [s.new_states(np.array(rows)) for s in (bucket, one)][0].reshape(40, 4)
        measure_bucket = QubitStore._measure_bucket
        with mock.patch.object(
            QubitStore, "_measure_bucket", autospec=True, side_effect=measure_bucket
        ) as spy:
            got = bucket.measure_rows_in_basis(groups, np.eye(16), uniforms)
        assert spy.call_count == 1 and len(spy.call_args.args[1]) == 40
        want = [one.measure_in_basis(g, np.eye(16), [u]) for g, u in zip(groups.tolist(), uniforms)]
        assert got.tolist() == want

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

    @pytest.mark.parametrize("parties, state", [(2, "omega"), (3, "omega"), (5, "omega"),
                                                (5, "cluster")])
    def test_honest_runs_take_the_lattice_route(self, parties, state, monkeypatch):
        """Every group an honest n=16 run hands the store is a lattice, lone or
        in a batch of three: the general route's lookup and the crossing
        kernel are never reached, so no change can drop the fast route unseen."""
        detected, general = [], []
        detect, indices, crossing = (
            QubitStore._lattice, QubitStore._indices, QubitStore._measure_crossing
        )

        def detecting(self, targets):
            detected.append(detect(self, targets))
            return detected[-1]

        def spying(route):
            def spy(self, *args):
                general.append(route.__name__)
                return route(self, *args)
            return spy

        monkeypatch.setattr(QubitStore, "_lattice", detecting)
        monkeypatch.setattr(QubitStore, "_indices", spying(indices))
        monkeypatch.setattr(QubitStore, "_measure_crossing", spying(crossing))
        config = ProtocolConfig(key_bits=16, party_count=parties, seed=4, five_party_state=state)
        assert run_protocol(config).agreement()
        assert all(result.agreement() for result in run_batch(config, None, 3))
        assert detected and None not in detected
        assert general == []

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
