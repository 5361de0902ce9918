"""Quantum register core: state preparation, Pauli action, measurement.

Oracles here are built from scratch (explicit constants, numpy kron and
index arithmetic) so they stay independent of the implementation they
check.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qka.pauli import GroupElement, PauliLetter
from qka.registers import (
    BELL_VECTORS,
    BellOutcome,
    FourQubitState,
    QubitStore,
    RegisterCapacityError,
    StateRegister,
    UnknownQubitError,
    apply_element,
    four_qubit_vector,
    inner_product,
)

S = math.sqrt(0.5)

# Independent Bell-state constants, |00>..|11> with the first qubit as MSB.
ORACLE_BELL = {
    BellOutcome.PSI_PLUS: np.array([S, 0, 0, S], dtype=complex),
    BellOutcome.PSI_MINUS: np.array([S, 0, 0, -S], dtype=complex),
    BellOutcome.PHI_PLUS: np.array([0, S, S, 0], dtype=complex),
    BellOutcome.PHI_MINUS: np.array([0, S, -S, 0], dtype=complex),
}


# Independent Pauli letters; iY is the real letter Z X.
ORACLE_PAULI = {
    PauliLetter.I: np.eye(2, dtype=complex),
    PauliLetter.X: np.array([[0, 1], [1, 0]], dtype=complex),
    PauliLetter.IY: np.array([[0, 1], [-1, 0]], dtype=complex),
    PauliLetter.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}

# Independent 4-qubit resource states: {basis index: amplitude}.
ORACLE_FOUR = {
    FourQubitState.OMEGA: {0b0000: 0.5, 0b0110: 0.5, 0b1001: 0.5, 0b1111: -0.5},
    FourQubitState.CLUSTER: {0b0000: 0.5, 0b0011: 0.5, 0b1100: 0.5, 0b1111: -0.5},
}


def oracle_four(which):
    vec = np.zeros(16, dtype=complex)
    for index, amp in ORACLE_FOUR[which].items():
        vec[index] = amp
    return vec


def fresh_pair(store, kind=BellOutcome.PSI_PLUS):
    return store.new_bell(kind)


def reordered(register, new_order):
    """The register's amplitudes with its qubits listed in ``new_order``."""
    assert sorted(new_order) == sorted(register.qubits)
    perm = [register.position(q) for q in new_order]
    arr = register.amplitudes.reshape([2] * register.size)
    return np.transpose(arr, perm).reshape(-1)


class TestPreparation:
    @pytest.mark.parametrize(
        "kind,expected",
        [
            (BellOutcome.PSI_PLUS, [S, 0, 0, S]),
            (BellOutcome.PSI_MINUS, [S, 0, 0, -S]),
            (BellOutcome.PHI_PLUS, [0, S, S, 0]),
            (BellOutcome.PHI_MINUS, [0, S, -S, 0]),
        ],
    )
    def test_bell_amplitudes(self, kind, expected):
        store = QubitStore()
        a, b = store.new_bell(kind)
        reg = store.register_of(a)
        assert reg.qubits == (a, b)
        np.testing.assert_allclose(reg.amplitudes, expected, atol=1e-12)

    def test_successive_calls_use_fresh_ids(self):
        store = QubitStore()
        first = store.new_bell(BellOutcome.PSI_PLUS)
        second = store.new_bell(BellOutcome.PSI_PLUS)
        assert set(first).isdisjoint(second)
        assert store.register_of(first[0]) is not store.register_of(second[0])

    def test_omega_support(self):
        vec = four_qubit_vector(FourQubitState.OMEGA)
        nonzero = {i: vec[i] for i in range(16) if abs(vec[i]) > 0}
        assert nonzero == {0: 0.5, 6: 0.5, 9: 0.5, 15: -0.5}

    def test_cluster_support(self):
        vec = four_qubit_vector(FourQubitState.CLUSTER)
        nonzero = {i: vec[i] for i in range(16) if abs(vec[i]) > 0}
        assert nonzero == {0: 0.5, 3: 0.5, 12: 0.5, 15: -0.5}

    @pytest.mark.parametrize("which", list(FourQubitState))
    def test_four_qubit_normalized(self, which):
        store = QubitStore()
        ids = store.new_four_qubit(which)
        reg = store.register_of(ids[0])
        assert reg.qubits == ids
        assert abs(np.vdot(reg.amplitudes, reg.amplitudes).real - 1.0) < 1e-10

    def test_computational_state(self):
        store = QubitStore()
        q = store.new_computational(1)
        np.testing.assert_allclose(store.register_of(q).amplitudes, [0, 1])

    @pytest.mark.parametrize(
        "allocate, arg",
        [
            ("new_bell", 7),
            ("new_bell", -1),
            ("new_bell", "psi+"),
            ("new_computational", -1),
            ("new_computational", 0.7),
            ("new_computational", 2),
            ("new_four_qubit", "ghz"),
        ],
    )
    def test_unrepresentable_input_refused_before_allocating(self, allocate, arg):
        store = QubitStore()
        first = store.new_bell(BellOutcome.PSI_PLUS)
        with pytest.raises(ValueError):
            getattr(store, allocate)(arg)
        assert store.live_qubits() == list(first)
        # the next allocation's ids follow on, with no gap and no reuse
        assert store.new_bell(BellOutcome.PHI_MINUS) == (2, 3)
        assert store.new_computational(1) == 4
        assert store.new_four_qubit(FourQubitState.OMEGA) == (5, 6, 7, 8)
        assert store.live_qubits() == list(range(9))

    @pytest.mark.parametrize("which", list(FourQubitState))
    def test_four_qubit_state_by_name(self, which):
        expected = oracle_four(which).real
        np.testing.assert_allclose(four_qubit_vector(which.value), expected, atol=1e-12)
        store = QubitStore()
        ids = store.new_four_qubit(which.value)
        np.testing.assert_allclose(store.register_of(ids[0]).amplitudes, expected, atol=1e-12)

    def test_unknown_four_qubit_state_refused(self):
        with pytest.raises(ValueError):
            four_qubit_vector("ghz")


class TestApplyPauli:
    @pytest.mark.parametrize(
        "letter,expected_kind",
        [
            (PauliLetter.X, BellOutcome.PHI_PLUS),
            (PauliLetter.Z, BellOutcome.PSI_MINUS),
            (PauliLetter.I, BellOutcome.PSI_PLUS),
        ],
    )
    def test_second_qubit_encoding(self, letter, expected_kind):
        store = QubitStore()
        a, b = fresh_pair(store)
        store.apply_pauli(GroupElement.of(letter), (b,))
        reg = store.register_of(a)
        overlap = np.vdot(ORACLE_BELL[expected_kind], reg.amplitudes)
        assert abs(abs(overlap) - 1.0) < 1e-10

    def test_arity_mismatch(self):
        store = QubitStore()
        a, b = fresh_pair(store)
        with pytest.raises(ValueError, match="arity"):
            store.apply_pauli(GroupElement.of(PauliLetter.X), (a, b))

    def test_unknown_qubit(self):
        store = QubitStore()
        with pytest.raises(UnknownQubitError):
            store.apply_pauli(GroupElement.of(PauliLetter.X), (99,))

    def test_cross_register_word_needs_no_merge(self):
        store = QubitStore()
        a1, a2 = fresh_pair(store)
        b1, b2 = fresh_pair(store)
        store.apply_pauli(
            GroupElement.of(PauliLetter.X, PauliLetter.Z), (a2, b2)
        )
        assert store.register_of(a1) is not store.register_of(b1)
        assert store.register_of(a1).size == 2

    @settings(max_examples=40, deadline=None)
    @given(
        letters=st.lists(st.sampled_from(list(PauliLetter)), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_norm_preserved(self, letters, seed):
        store = QubitStore()
        ids = store.new_four_qubit(FourQubitState.OMEGA)
        rng = np.random.default_rng(seed)
        for letter in letters:
            target = ids[int(rng.integers(0, 4))]
            store.apply_pauli(GroupElement.of(letter), (target,))
            amps = store.register_of(ids[0]).amplitudes
            assert abs(np.vdot(amps, amps).real - 1.0) < 1e-10


class TestMeasureBell:
    def test_undisturbed_pair_is_deterministic(self):
        for seed in range(25):
            store = QubitStore()
            a, b = fresh_pair(store)
            rng = np.random.default_rng(seed)
            assert store.measure_bell(a, b, rng) is BellOutcome.PSI_PLUS

    def test_measured_qubits_retire(self):
        store = QubitStore()
        a, b = fresh_pair(store)
        store.measure_bell(a, b, np.random.default_rng(0))
        assert {a, b}.isdisjoint(store.live_qubits())
        with pytest.raises(UnknownQubitError):
            store.measure_bell(a, b, np.random.default_rng(0))

    def test_same_qubit_rejected(self):
        store = QubitStore()
        a, _ = fresh_pair(store)
        with pytest.raises(ValueError):
            store.measure_bell(a, a, np.random.default_rng(0))

    def test_product_zero_state_splits_psi_family(self):
        # |00> = (|psi+> + |psi->)/sqrt(2): only those two outcomes occur.
        counts = {o: 0 for o in BellOutcome}
        for seed in range(2000):
            store = QubitStore()
            a = store.new_computational(0)
            b = store.new_computational(0)
            counts[store.measure_bell(a, b, np.random.default_rng(seed))] += 1
        assert counts[BellOutcome.PHI_PLUS] == 0
        assert counts[BellOutcome.PHI_MINUS] == 0
        assert abs(counts[BellOutcome.PSI_PLUS] / 2000 - 0.5) < 0.05

    @pytest.mark.parametrize("kind1", list(BellOutcome))
    @pytest.mark.parametrize("kind2", list(BellOutcome))
    def test_swapping_matches_brute_force(self, kind1, kind2):
        """Cross-pair measurement equals explicit 4-qubit projection."""
        state4 = np.kron(ORACLE_BELL[kind1], ORACLE_BELL[kind2])
        # reorder (q1,q2,q3,q4) -> (q2,q3,q1,q4) and project on the pair (q2,q3)
        arr = state4.reshape(2, 2, 2, 2).transpose(1, 2, 0, 3).reshape(4, 4)
        bras = np.stack([ORACLE_BELL[o].conj() for o in BellOutcome])
        branches = bras @ arr
        probs = (np.abs(branches) ** 2).sum(axis=1)

        seen = set()
        for seed in range(40):
            store = QubitStore()
            q1, q2 = store.new_bell(kind1)
            q3, q4 = store.new_bell(kind2)
            outcome = store.measure_bell(q2, q3, np.random.default_rng(seed))
            seen.add(outcome)
            assert probs[outcome] > 1e-12
            remainder = store.register_of(q1)
            assert remainder.qubits == (q1, q4)
            expected = branches[outcome] / math.sqrt(probs[outcome])
            np.testing.assert_allclose(remainder.amplitudes, expected, atol=1e-10)
        assert len(seen) == 4  # all outcomes reachable for Bell x Bell input

    @pytest.mark.parametrize("kind", list(BellOutcome))
    def test_reversed_qubit_order_keeps_labels(self, kind):
        # Bell labels are invariant under swapping the measured pair: the
        # psi states and phi+ are symmetric, phi- only changes sign.
        for seed in range(10):
            store = QubitStore()
            a, b = store.new_bell(kind)
            assert store.measure_bell(b, a, np.random.default_rng(seed)) is kind

    def test_reversed_order_across_registers_matches_oracle(self):
        kind1, kind2 = BellOutcome.PSI_PLUS, BellOutcome.PHI_MINUS
        state4 = np.kron(ORACLE_BELL[kind1], ORACLE_BELL[kind2])
        # measuring (q3, q2): reorder (q1,q2,q3,q4) -> (q3,q2,q1,q4)
        arr = state4.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
        bras = np.stack([ORACLE_BELL[o].conj() for o in BellOutcome])
        branches = bras @ arr
        probs = (np.abs(branches) ** 2).sum(axis=1)
        for seed in range(30):
            store = QubitStore()
            q1, q2 = store.new_bell(kind1)
            q3, q4 = store.new_bell(kind2)
            outcome = store.measure_bell(q3, q2, np.random.default_rng(seed))
            assert probs[outcome] > 1e-12
            # the merge followed the measured qubits' registers, so the
            # remainder lists (q4, q1); canonicalize before comparing
            remainder = store.register_of(q1)
            assert set(remainder.qubits) == {q1, q4}
            expected = branches[outcome] / math.sqrt(probs[outcome])
            np.testing.assert_allclose(
                reordered(remainder, (q1, q4)), expected, atol=1e-10
            )

    def test_swapping_statistics_uniform(self):
        counts = {o: 0 for o in BellOutcome}
        trials = 10_000
        for seed in range(trials):
            store = QubitStore()
            q1, q2 = fresh_pair(store)
            q3, q4 = fresh_pair(store)
            counts[store.measure_bell(q2, q3, np.random.default_rng(seed))] += 1
        for o in BellOutcome:
            assert abs(counts[o] / trials - 0.25) < 0.02

    def test_swapping_leaves_matching_pair(self):
        # For psi+ x psi+ the leftover pair collapses to the observed state.
        for seed in range(30):
            store = QubitStore()
            q1, q2 = fresh_pair(store)
            q3, q4 = fresh_pair(store)
            rng = np.random.default_rng(seed)
            outcome = store.measure_bell(q2, q3, rng)
            assert store.measure_bell(q1, q4, rng) is outcome


class TestMeasureZ:
    def test_fresh_zero_is_deterministic(self):
        store = QubitStore()
        q = store.new_computational(0)
        assert store.measure_z(q, np.random.default_rng(5)) == 0
        assert q not in store.live_qubits()

    def test_pair_halves_agree(self):
        for seed in range(200):
            store = QubitStore()
            a, b = fresh_pair(store)
            rng = np.random.default_rng(seed)
            assert store.measure_z(a, rng) == store.measure_z(b, rng)

    def test_marginal_is_fair(self):
        ones = 0
        for seed in range(2000):
            store = QubitStore()
            a, _ = fresh_pair(store)
            ones += store.measure_z(a, np.random.default_rng(seed))
        assert abs(ones / 2000 - 0.5) < 0.05

    def test_partner_collapses_to_same_value(self):
        store = QubitStore()
        a, b = fresh_pair(store)
        bit = store.measure_z(a, np.random.default_rng(3))
        partner = store.register_of(b)
        expected = np.zeros(2)
        expected[bit] = 1.0
        np.testing.assert_allclose(partner.amplitudes, expected, atol=1e-12)


class TestMeasureInBasis:
    def test_full_register_deterministic(self):
        store = QubitStore()
        ids = store.new_four_qubit(FourQubitState.OMEGA)
        basis = np.eye(16, dtype=complex)
        basis[0] = four_qubit_vector(FourQubitState.OMEGA)
        # rebuild an orthonormal completion via QR to keep the check honest
        q, _ = np.linalg.qr(np.column_stack([basis[0]] + [np.eye(16)[:, i] for i in range(15)]))
        basis = q.T
        idx = store.measure_in_basis(ids, basis, np.random.default_rng(0))
        assert idx == 0
        assert store.live_qubits() == []

    def test_rejects_wrong_row_length(self):
        store = QubitStore()
        a, b = fresh_pair(store)
        with pytest.raises(ValueError):
            store.measure_in_basis((a, b), np.eye(8), np.random.default_rng(0))


class TestInnerProduct:
    def test_self_overlap(self):
        reg = StateRegister((0, 1), ORACLE_BELL[BellOutcome.PSI_PLUS].copy())
        assert abs(inner_product(reg, reg) - 1.0) < 1e-12

    def test_orthogonal_bell_states(self):
        a = StateRegister((0, 1), ORACLE_BELL[BellOutcome.PSI_PLUS].copy())
        b = StateRegister((0, 1), ORACLE_BELL[BellOutcome.PHI_MINUS].copy())
        assert abs(inner_product(a, b)) < 1e-12

    def test_omega_orthogonal_to_x_on_third_qubit(self):
        omega = StateRegister((0, 1, 2, 3), four_qubit_vector(FourQubitState.OMEGA))
        flipped = apply_element(omega, GroupElement.of(PauliLetter.X), (2,))
        # oracle: flip bit 3 (1-indexed) by direct index arithmetic
        manual = np.zeros(16, dtype=complex)
        for idx in range(16):
            manual[idx ^ 0b0010] = omega.amplitudes[idx]
        np.testing.assert_allclose(flipped.amplitudes, manual, atol=1e-12)
        assert abs(inner_product(omega, flipped)) < 1e-12

    def test_dimension_mismatch(self):
        a = StateRegister((0, 1), ORACLE_BELL[BellOutcome.PSI_PLUS].copy())
        b = StateRegister((0, 1, 2, 3), four_qubit_vector(FourQubitState.OMEGA))
        with pytest.raises(ValueError):
            inner_product(a, b)


class TestStoreDiscipline:
    def test_capacity_cap_fails_loudly(self):
        store = QubitStore()
        rng = np.random.default_rng(1)
        first = store.new_four_qubit(FourQubitState.OMEGA)
        second = store.new_four_qubit(FourQubitState.OMEGA)
        store.measure_bell(first[0], second[0], rng)  # 8-qubit merge, 6 remain
        third = store.new_four_qubit(FourQubitState.OMEGA)
        fourth = store.new_four_qubit(FourQubitState.OMEGA)
        store.measure_bell(third[0], fourth[0], rng)  # another 6-qubit register
        store.measure_bell(first[1], third[1], rng)  # 12-qubit merge is allowed
        fifth = store.new_four_qubit(FourQubitState.OMEGA)
        with pytest.raises(RegisterCapacityError):
            store.measure_bell(first[2], fifth[0], rng)  # 10 + 4 exceeds the cap

    def test_register_validation(self):
        with pytest.raises(ValueError):
            StateRegister((0, 0), ORACLE_BELL[BellOutcome.PSI_PLUS].copy())
        with pytest.raises(ValueError):
            StateRegister((0, 1), np.array([1.0, 0.0, 0.0, 0.5]))

    def test_determinism_of_outcomes_and_store(self):
        def run(seed):
            store = QubitStore()
            rng = np.random.default_rng(seed)
            outcomes = []
            pairs = [store.new_bell(BellOutcome.PSI_PLUS) for _ in range(6)]
            for (a, _), (_, d) in zip(pairs[::2], pairs[1::2]):
                outcomes.append(store.measure_bell(a, d, rng))
            snapshot = {
                q: store.register_of(q).amplitudes.copy() for q in store.live_qubits()
            }
            return outcomes, snapshot

        out1, snap1 = run(17)
        out2, snap2 = run(17)
        assert out1 == out2
        assert snap1.keys() == snap2.keys()
        for q in snap1:
            np.testing.assert_array_equal(snap1[q], snap2[q])


# A genuinely complex state and basis: |+i> and the rows of diag(1, i, 1, 1).
PLUS_I = np.array([S, 1j * S])
PHASED_BASIS = np.diag([1, 1j, 1, 1])


class TestRealAmplitudes:
    """Every state is real: complex input is refused, all-real complex dtype is not."""

    def test_register_refuses_an_imaginary_part(self):
        with pytest.raises(ValueError, match="real"):
            StateRegister((0,), PLUS_I)
        reg = StateRegister((0, 1), ORACLE_BELL[BellOutcome.PHI_MINUS])
        assert reg.amplitudes.dtype == np.float64
        np.testing.assert_array_equal(reg.amplitudes, [0, S, -S, 0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_state_refuses_a_non_finite_amplitude(self, bad):
        # NaN fails no norm check: |NaN, 0, 0, 0> would measure as outcome 3.
        vector = np.array([bad, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            StateRegister((0, 1), vector)
        store = QubitStore()
        with pytest.raises(ValueError, match="finite"):
            store.new_train(vector, 2)
        assert store.live_qubits() == []

    def test_train_refuses_an_imaginary_part(self):
        store = QubitStore()
        held = store.new_bell(BellOutcome.PSI_PLUS)
        with pytest.raises(ValueError, match="real"):
            store.new_train(PLUS_I, 3)
        assert store.live_qubits() == list(held)
        ids = store.new_train(ORACLE_BELL[BellOutcome.PSI_MINUS], 3)
        assert ids.tolist() == [[2, 3], [4, 5], [6, 7]]
        for row in ids.tolist():
            amplitudes = store.register_of(row[0]).amplitudes
            assert amplitudes.dtype == np.float64
            np.testing.assert_array_equal(amplitudes, [S, 0, 0, -S])

    @pytest.mark.parametrize("bulk", [False, True])
    def test_measurement_refuses_an_imaginary_basis_before_drawing(self, bulk):
        store = QubitStore()
        ids = store.new_train(ORACLE_BELL[BellOutcome.PHI_PLUS], 2)
        rng = np.random.default_rng(5)
        live, state = store.live_qubits(), rng.bit_generator.state
        with pytest.raises(ValueError, match="real"):
            if bulk:
                store.measure_rows_in_basis(ids, PHASED_BASIS, rng)
            else:
                store.measure_in_basis(ids[0].tolist(), PHASED_BASIS, rng)
        assert store.live_qubits() == live
        assert rng.bit_generator.state == state
        if bulk:
            assert store.measure_rows_in_basis(ids, ORACLE_BELL_BRAS, rng).tolist() == [2, 2]
        else:
            assert store.measure_in_basis(ids[0].tolist(), ORACLE_BELL_BRAS, rng) == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("bulk", [False, True])
    def test_measurement_refuses_a_non_finite_basis_before_drawing(self, bulk, bad):
        # Every comparison with NaN is false, so no orthonormality or mass
        # test alone would catch it: three psi+ rows would all read row 0.
        store = QubitStore()
        ids = store.new_train(ORACLE_BELL[BellOutcome.PSI_PLUS], 3)
        basis = ORACLE_BELL_BRAS.real.copy()
        basis[0, 0] = bad
        rng = np.random.default_rng(5)
        live, state = store.live_qubits(), rng.bit_generator.state
        with pytest.raises(ValueError, match="finite"):
            if bulk:
                store.measure_rows_in_basis(ids, basis, rng)
            else:
                store.measure_in_basis(ids[0].tolist(), basis, rng)
        assert store.live_qubits() == live
        assert rng.bit_generator.state == state


# -- dense statevector oracle --------------------------------------------------

ORACLE_BELL_BRAS = np.stack([ORACLE_BELL[o] for o in BellOutcome]).conj()
LIVE_CAP = 12  # live qubits at any time; a merge can then reach the cap, not pass it


def random_basis(seed, dim):
    """Rows of a random orthogonal matrix: a real basis with uneven probabilities."""
    plan = np.random.default_rng(seed)
    z = plan.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return (q * (np.diag(r) / np.abs(np.diag(r)))).T


class DenseOracle:
    """Every live qubit in one statevector, ids ascending (the first is the MSB).

    Preparations extend it by kron, Pauli words act as kron-built matrices
    on the targeted axes, and a measurement projects the measured axes onto
    each bra and samples the outcome by inverse CDF over the nonzero bins,
    with one ``rng.random()`` per measured group, as the store draws them.
    """

    def __init__(self, rng):
        self.rng = rng
        self.qubits: list[int] = []
        self.state = np.ones(1, dtype=complex)

    def prepare(self, ids, vector):
        self.qubits += list(ids)
        self.state = np.kron(self.state, vector)

    def front(self, qubits):
        """The state as a (2^m, rest) matrix with ``qubits`` first, and the rest's ids."""
        axes = [self.qubits.index(q) for q in qubits]
        rest = [p for p in range(len(self.qubits)) if p not in axes]
        tensor = self.state.reshape((2,) * len(self.qubits)).transpose(axes + rest)
        return tensor.reshape(2 ** len(qubits), -1), [self.qubits[p] for p in rest]

    def pauli(self, letters, targets):
        op = np.ones((1, 1), dtype=complex)
        for letter in letters:
            op = np.kron(op, ORACLE_PAULI[letter])
        matrix, rest = self.front(targets)
        order = list(targets) + rest
        tensor = (op @ matrix).reshape((2,) * len(order))
        self.state = tensor.transpose([order.index(q) for q in self.qubits]).reshape(-1)

    def measure(self, qubits, bras) -> int:
        matrix, rest = self.front(qubits)
        branches = bras @ matrix
        probs = (np.abs(branches) ** 2).sum(axis=1)
        nonzero = np.flatnonzero(probs > 1e-20)  # bins that are zero up to roundoff drop out
        cdf = np.cumsum(probs[nonzero])
        pick = np.searchsorted(cdf, self.rng.random() * probs.sum(), side="right")
        outcome = int(nonzero[min(pick, nonzero.size - 1)])
        self.qubits = rest
        self.state = branches[outcome] / math.sqrt(probs[outcome])
        return outcome


def assert_matches(store, oracle):
    """Same live qubits; each register of the store factors out of the oracle state.

    A register r over qubits Q matches when the oracle state, read as a
    (Q, rest) matrix M, equals outer(r, r^dagger M). That pins every
    amplitude of r, its norm included, up to one global phase, which a
    measurement that retires a whole register leaves behind in the oracle.
    """
    assert store.live_qubits() == oracle.qubits
    seen = set()
    for q in oracle.qubits:
        reg = store.register_of(q)
        if reg.qubits in seen:
            continue
        seen.add(reg.qubits)
        assert all(store.register_of(p) is reg for p in reg.qubits)
        matrix, _ = oracle.front(reg.qubits)
        partner = reg.amplitudes.conj() @ matrix
        np.testing.assert_allclose(np.outer(reg.amplitudes, partner), matrix, rtol=0, atol=1e-10)


def _pick(data, live, count):
    return data.draw(st.permutations(live))[:count]


def _pick_across(data, store, live, count):
    """Up to ``count`` qubits, each from a different register: the widest merges."""
    heads = {store.register_of(q).qubits: q for q in data.draw(st.permutations(live))}
    return list(heads.values())[:count]


def _groups(data, live, size):
    """Disjoint groups: runs of ascending ids (often whole rows) or shuffled ones."""
    if data.draw(st.booleans()):
        pool = sorted(live)
    else:
        pool = data.draw(st.permutations(live))
    count = data.draw(st.integers(1, len(pool) // size))
    return [tuple(pool[i * size : (i + 1) * size]) for i in range(count)]


class TestAgainstDenseOracle:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_random_op_sequences(self, seed, data):
        store, rng = QubitStore(), np.random.default_rng(seed)
        oracle = DenseOracle(np.random.default_rng(seed))
        for _ in range(data.draw(st.integers(1, 30), label="steps")):
            live = list(oracle.qubits)
            room = LIVE_CAP - len(live)
            ops = [op for op, need in (("bell", 2), ("four", 4), ("one", 1), ("train", 1))
                   if need <= room]
            if live:
                ops += ["pauli", "pauli_groups", "z", "basis", "singles"]
            if len(live) >= 2:
                ops += ["bell_measure", "bell_rows", "basis_rows"]
            op = data.draw(st.sampled_from(ops), label="op")
            if op == "bell":
                kind = data.draw(st.sampled_from(list(BellOutcome)))
                oracle.prepare(store.new_bell(kind), ORACLE_BELL[kind])
            elif op == "four":
                which = data.draw(st.sampled_from(list(FourQubitState)))
                oracle.prepare(store.new_four_qubit(which), oracle_four(which))
            elif op == "one":
                bit = data.draw(st.integers(0, 1))
                oracle.prepare((store.new_computational(bit),), np.eye(2)[bit])
            elif op == "train":
                choice = data.draw(st.sampled_from(["bell", "four", "random1", "random2"]))
                if choice == "bell":
                    vector = ORACLE_BELL[data.draw(st.sampled_from(list(BellOutcome)))]
                elif choice == "four":
                    vector = oracle_four(data.draw(st.sampled_from(list(FourQubitState))))
                else:
                    vector = random_basis(data.draw(st.integers(0, 2**32 - 1)),
                                          2 ** int(choice[-1]))[0]
                width = vector.size.bit_length() - 1
                if width > room:
                    continue
                count = data.draw(st.integers(1, room // width))
                for row in store.new_train(vector, count).tolist():
                    oracle.prepare(row, vector)
            elif op == "pauli":
                targets = _pick(data, live, data.draw(st.integers(1, min(3, len(live)))))
                letters = data.draw(st.lists(st.sampled_from(list(PauliLetter)),
                                             min_size=len(targets), max_size=len(targets)))
                store.apply_pauli(GroupElement(tuple(letters)), targets)
                oracle.pauli(letters, targets)
            elif op == "pauli_groups":
                size = data.draw(st.integers(1, min(2, len(live))))
                groups = _groups(data, live, size)
                letters = data.draw(st.lists(st.sampled_from(list(PauliLetter)),
                                             min_size=size, max_size=size))
                store.apply_pauli_groups(GroupElement(tuple(letters)), groups)
                for group in groups:
                    oracle.pauli(letters, group)
            elif op == "z":
                (q,) = _pick(data, live, 1)
                assert store.measure_z(q, rng) == oracle.measure([q], np.eye(2))
            elif op == "bell_measure":
                a, b = _pick(data, live, 2)
                assert store.measure_bell(a, b, rng) == oracle.measure([a, b], ORACLE_BELL_BRAS)
            elif op == "basis":
                count = data.draw(st.integers(1, min(4, len(live))))
                if count == 4 or data.draw(st.booleans()):
                    qubits = _pick_across(data, store, live, count)
                else:
                    qubits = _pick(data, live, count)
                basis = random_basis(data.draw(st.integers(0, 2**32 - 1)), 2 ** len(qubits))
                got = store.measure_in_basis(qubits, basis, rng)
                assert got == oracle.measure(qubits, basis.conj())
            elif op == "singles":
                qubits = _pick(data, live, data.draw(st.integers(1, len(live))))
                if data.draw(st.booleans()):
                    basis = np.eye(2)
                else:
                    basis = random_basis(data.draw(st.integers(0, 2**32 - 1)), 2)
                got = store.measure_qubits(qubits, basis, rng.random(len(qubits))).tolist()
                assert got == [oracle.measure([q], basis.conj()) for q in qubits]
            elif op == "bell_rows":
                pairs = _groups(data, live, 2)
                got = store.measure_rows_in_basis(pairs, BELL_VECTORS, rng).tolist()
                assert got == [oracle.measure(p, ORACLE_BELL_BRAS) for p in pairs]
            else:
                size = data.draw(st.sampled_from([m for m in (2, 4) if m <= len(live)]))
                groups = _groups(data, live, size)
                basis = random_basis(data.draw(st.integers(0, 2**32 - 1)), 2**size)
                got = store.measure_rows_in_basis(groups, basis, rng).tolist()
                assert got == [oracle.measure(g, basis.conj()) for g in groups]
            assert_matches(store, oracle)
