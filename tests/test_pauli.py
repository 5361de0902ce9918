"""Phase-free Pauli algebra: products, subgroups, dense-coding checks.

The letter-product oracle below multiplies raw 2x2 matrices and strips the
global phase itself, so the module's lookup table is checked against an
independent derivation. Set-level facts (disjointness, product coverage)
are verified by exhaustive enumeration.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qka.pauli import (
    ORTHO_TOL,
    GroupElement,
    PauliLetter,
    Subgroup,
    canonical_order,
    check_disjoint,
    dense_coding_orthogonal,
    group_g1,
    group_g2,
    is_subgroup,
    mul,
    product_set,
    standard_subgroups_g2,
    validate_scheme,
)
from qka.registers import (
    BELL_VECTORS,
    BellOutcome,
    FourQubitState,
    StateRegister,
    apply_element,
    four_qubit_vector,
    inner_product,
)

I, X, IY, Z = PauliLetter.I, PauliLetter.X, PauliLetter.IY, PauliLetter.Z

ORACLE_MATRICES = {
    I: np.array([[1, 0], [0, 1]], dtype=complex),
    X: np.array([[0, 1], [1, 0]], dtype=complex),
    IY: 1j * np.array([[0, -1j], [1j, 0]], dtype=complex),
    Z: np.array([[1, 0], [0, -1]], dtype=complex),
}


def oracle_mul(a: PauliLetter, b: PauliLetter) -> PauliLetter:
    """Multiply raw matrices, then identify the letter up to a unit phase."""
    prod = ORACLE_MATRICES[a] @ ORACLE_MATRICES[b]
    for candidate, ref in ORACLE_MATRICES.items():
        r, c = np.argwhere(np.abs(ref) > 0.5)[0]
        phase = prod[r, c] / ref[r, c]
        if abs(abs(phase) - 1) < 1e-12 and np.allclose(prod, phase * ref, atol=1e-12):
            return candidate
    raise AssertionError("not a Pauli letter up to phase")


def element(*letters):
    return GroupElement.of(*letters)


def tensor(a: GroupElement, b: GroupElement) -> GroupElement:
    """Concatenate letter lists; arities add."""
    return GroupElement(a.letters + b.letters)


def standard_subgroups_g1() -> list[Subgroup]:
    """The three order-2 subgroups {I,X}, {I,Z}, {I,iY} of the letter group."""
    identity = element(I)
    return [
        Subgroup(f"g{k + 1}", frozenset({identity, element(gen)}))
        for k, gen in enumerate((X, Z, IY))
    ]


def psi_plus_register():
    return StateRegister((0, 1), BELL_VECTORS[BellOutcome.PSI_PLUS].copy())


class TestMul:
    def test_table_matches_matrix_oracle(self):
        for a in PauliLetter:
            for b in PauliLetter:
                assert mul(element(a), element(b)) == element(oracle_mul(a, b))

    def test_x_times_z_is_iy(self):
        assert mul(element(X), element(Z)) == element(IY)

    def test_iy_squared_is_identity(self):
        # (iY)(iY) = -I; the sign is discarded.
        prod = ORACLE_MATRICES[IY] @ ORACLE_MATRICES[IY]
        np.testing.assert_allclose(prod, -np.eye(2), atol=1e-12)
        assert mul(element(IY), element(IY)) == element(I)

    def test_identity_is_neutral(self):
        for g in group_g1():
            assert mul(element(I), g) == g
            assert mul(g, element(I)) == g

    def test_klein_four_structure(self):
        # Stripping phases leaves the Klein four-group: xor on (x,z) flags.
        flags = {I: (0, 0), X: (1, 0), Z: (0, 1), IY: (1, 1)}
        by_flags = {v: k for k, v in flags.items()}
        for a in PauliLetter:
            for b in PauliLetter:
                fx = flags[a][0] ^ flags[b][0]
                fz = flags[a][1] ^ flags[b][1]
                assert mul(element(a), element(b)) == element(by_flags[fx, fz])

    def test_closure_commutativity_associativity_exhaustive(self):
        g1 = group_g1()
        for a, b in itertools.product(g1, repeat=2):
            assert mul(a, b) in g1
            assert mul(a, b) == mul(b, a)
        for a, b, c in itertools.product(g1, repeat=3):
            assert mul(mul(a, b), c) == mul(a, mul(b, c))

    def test_two_letter_commutativity_exhaustive(self):
        g2 = group_g2()
        for a, b in itertools.product(g2, repeat=2):
            assert mul(a, b) == mul(b, a)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            mul(element(X), element(X, X))


class TestTensorAndLabels:
    def test_tensor_concatenates(self):
        assert tensor(element(I), element(X)) == element(I, X)
        assert tensor(element(I), element(X)).arity == 2

    def test_tensor_square_has_sixteen_elements(self):
        squares = {tensor(a, b) for a in group_g1() for b in group_g1()}
        assert squares == group_g2()
        assert len(squares) == 16

    def test_labels(self):
        assert element(I, X).label == "IX"
        assert element(Z, I).label == "ZI"
        assert element(IY).label == "Y*"
        assert element(X, IY).label == "XY*"

    def test_label_parsing_errors(self):
        with pytest.raises(ValueError):
            GroupElement.from_label("YX")  # bare Y is not a letter
        with pytest.raises(ValueError):
            GroupElement.from_label("AQ")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(list(PauliLetter)), min_size=1, max_size=5))
    def test_label_roundtrip(self, letters):
        word = GroupElement.of(*letters)
        assert GroupElement.from_label(word.label) == word

    def test_canonical_order(self):
        ordered = canonical_order(group_g1())
        assert ordered == [element(I), element(X), element(IY), element(Z)]


class TestSubgroups:
    def test_standard_g2_contents(self):
        subs = {s.name: s.elements for s in standard_subgroups_g2()}
        identity = element(I, I)
        assert subs["g1"] == {identity, element(I, X)}
        assert subs["g2"] == {identity, element(X, I)}
        assert subs["g3"] == {identity, element(I, Z)}
        assert subs["g4"] == {identity, element(Z, I)}
        assert subs["g5"] == {identity, element(I, IY)}
        assert subs["g6"] == {identity, element(IY, I)}

    def test_every_standard_subgroup_is_a_subgroup(self):
        for sub in standard_subgroups_g1() + standard_subgroups_g2():
            assert is_subgroup(sub.elements)

    def test_all_fifteen_pairs_disjoint(self):
        subs = standard_subgroups_g2()
        pairs = list(itertools.combinations(subs, 2))
        assert len(pairs) == 15
        assert all(check_disjoint(a, b) for a, b in pairs)

    def test_self_intersection_not_disjoint(self):
        g1 = standard_subgroups_g2()[0]
        assert not check_disjoint(g1, g1)

    def test_g1_subgroup_products_cover_the_letter_group(self):
        h1, h2, h3 = standard_subgroups_g1()
        for pair in ((h1, h2), (h2, h3), (h3, h1)):
            assert product_set(pair) == group_g1()


class TestProductSet:
    @pytest.mark.parametrize("digits", ["1234", "1256", "3456"])
    def test_valid_quadruples_cover_g2(self, digits):
        subs = standard_subgroups_g2()
        chosen = [subs[int(d) - 1] for d in digits]
        assert product_set(chosen) == group_g2()

    def test_g1_g3_product_by_brute_force(self):
        subs = standard_subgroups_g2()
        got = product_set([subs[0], subs[2]])
        # oracle: all pairwise matrix products on the second letter
        expected = set()
        for a in (I, X):
            for b in (I, Z):
                expected.add(element(I, oracle_mul(a, b)))
        assert got == frozenset(expected)
        assert len(got) == 4

    def test_mixed_arity_rejected(self):
        one = Subgroup("a", frozenset({element(I), element(X)}))
        two = standard_subgroups_g2()[0]
        with pytest.raises(ValueError):
            product_set([one, two])


class TestDenseCoding:
    def test_bell_states_orthogonal_under_letters(self):
        assert dense_coding_orthogonal(psi_plus_register(), (1,), group_g1())

    @pytest.mark.parametrize("kind", list(FourQubitState))
    def test_four_qubit_states_orthogonal_on_first_and_third(self, kind):
        reg = StateRegister((0, 1, 2, 3), four_qubit_vector(kind))
        assert dense_coding_orthogonal(reg, (0, 2), group_g2())

    def test_cluster_fails_on_first_and_second(self):
        reg = StateRegister((0, 1, 2, 3), four_qubit_vector(FourQubitState.CLUSTER))
        assert not dense_coding_orthogonal(reg, (0, 1), group_g2())
        # witness: Z x Z on qubits 1,2 acts trivially on the cluster state
        unchanged = apply_element(reg, element(Z, Z), (0, 1))
        assert abs(inner_product(reg, unchanged) - 1.0) < 1e-10

    def test_gram_matrix_is_identity(self):
        reg = StateRegister((0, 1, 2, 3), four_qubit_vector(FourQubitState.OMEGA))
        outputs = [apply_element(reg, u, (0, 2)) for u in canonical_order(group_g2())]
        gram = np.array(
            [[inner_product(a, b) for b in outputs] for a in outputs]
        )
        np.testing.assert_allclose(gram, np.eye(16), atol=1e-10)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            dense_coding_orthogonal(psi_plus_register(), (0, 1), group_g1())


def decode_operator(initial, final, targets, group, tol=ORTHO_TOL):
    """The group element mapping ``initial`` to ``final`` up to a sign.

    Raises ValueError when the final state lies outside the basis the
    group generates.
    """
    for u in canonical_order(group):
        if abs(abs(inner_product(final, apply_element(initial, u, targets))) - 1.0) < tol:
            return u
    raise ValueError("final state is not in the basis generated by the group")


class TestDecodeOperator:
    def test_z_encoding_on_psi_plus(self):
        initial = psi_plus_register()
        final = StateRegister((0, 1), BELL_VECTORS[BellOutcome.PSI_MINUS].copy())
        sub = {element(I), element(Z)}
        assert decode_operator(initial, final, (1,), sub) == element(Z)

    def test_identity_on_unchanged_state(self):
        initial = psi_plus_register()
        assert decode_operator(initial, initial.copy(), (1,), group_g1()) == element(I)

    def test_composite_x_then_z_is_iy(self):
        initial = psi_plus_register()
        final = StateRegister((0, 1), BELL_VECTORS[BellOutcome.PHI_MINUS].copy())
        assert decode_operator(initial, final, (1,), group_g1()) == element(IY)

    def test_roundtrip_over_g2_on_omega(self):
        reg = StateRegister((0, 1, 2, 3), four_qubit_vector(FourQubitState.OMEGA))
        for u in canonical_order(group_g2()):
            final = apply_element(reg, u, (0, 2))
            assert decode_operator(reg, final, (0, 2), group_g2()) == u

    def test_outcome_outside_basis(self):
        initial = psi_plus_register()
        final = StateRegister((0, 1), BELL_VECTORS[BellOutcome.PHI_PLUS].copy())
        with pytest.raises(ValueError):
            decode_operator(initial, final, (1,), {element(I), element(Z)})


def scheme_for(digits):
    subs = standard_subgroups_g2()
    return tuple(subs[int(d) - 1] for d in digits)


class TestValidateScheme:
    def test_two_round_bell_scheme(self):
        h = standard_subgroups_g1()
        scheme = (h[0], h[1])  # {I,X} then {I,Z}
        assert validate_scheme(scheme, psi_plus_register(), (1,))

    def test_omega_quadruple(self):
        reg = StateRegister((0, 1, 2, 3), four_qubit_vector(FourQubitState.OMEGA))
        assert validate_scheme(scheme_for("1234"), reg, (0, 2))

    def test_repeated_subgroup_rejected(self):
        reg = StateRegister((0, 1, 2, 3), four_qubit_vector(FourQubitState.OMEGA))
        assert not validate_scheme(scheme_for("1134"), reg, (0, 2))

    @pytest.mark.parametrize(
        "second",
        [
            ((I, I), (I, X), (X, I), (X, X)),  # the first subgroup again
            ((I, I), (X, X), (Z, Z), (IY, IY)),  # another subgroup, sharing XX
        ],
    )
    def test_shared_word_rejected_by_the_product_count(self, second):
        # a word g in both rounds is the product of (g, I) and of (I, g), so
        # the product set falls short of order^rounds: no disjointness pass
        first = ((I, I), (I, X), (X, I), (X, X))
        subs = tuple(
            Subgroup(name, frozenset(element(*word) for word in words))
            for name, words in (("a", first), ("b", second))
        )
        assert all(is_subgroup(s.elements) for s in subs) and not check_disjoint(*subs)
        assert len(product_set(subs)) < 16
        reg = StateRegister((0, 1, 2, 3), four_qubit_vector(FourQubitState.OMEGA))
        assert not validate_scheme(subs, reg, (0, 2))

    def test_colliding_products_rejected(self):
        # {g1,g2,g3,g5} is pairwise disjoint but its products collide.
        reg = StateRegister((0, 1, 2, 3), four_qubit_vector(FourQubitState.OMEGA))
        subs = scheme_for("1235")
        assert all(check_disjoint(a, b) for a, b in itertools.combinations(subs, 2))
        assert len(product_set(subs)) < 16
        assert not validate_scheme(subs, reg, (0, 2))

    def test_label_asymmetric_selection_rejected(self):
        # {g1,g2,g4,g5} decodes fine (16 distinct orthogonal outputs) but is
        # not closed under swapping the travel qubits, so it sits outside
        # the supported family and the validator turns it down.
        reg = StateRegister((0, 1, 2, 3), four_qubit_vector(FourQubitState.OMEGA))
        subs = scheme_for("1245")
        assert len(product_set(subs)) == 16
        assert dense_coding_orthogonal(reg, (0, 2), product_set(subs))
        assert not validate_scheme(subs, reg, (0, 2))

    def test_exactly_three_quadruples_accepted(self):
        reg = StateRegister((0, 1, 2, 3), four_qubit_vector(FourQubitState.OMEGA))
        subs = standard_subgroups_g2()
        accepted = {
            combo
            for combo in itertools.combinations_with_replacement(range(6), 4)
            if validate_scheme(tuple(subs[i] for i in combo), reg, (0, 2))
        }
        assert accepted == {(0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 5)}

    def test_no_qubit_kept_home_is_no_scheme(self):
        # the counts come from the inputs: a 2-qubit state with 2 travel
        # targets keeps no qubit at home, so no round set makes it a scheme
        assert not validate_scheme(scheme_for("1234"), psi_plus_register(), (0, 1))

    def test_decode_composes_with_apply_for_validated_scheme(self):
        reg = StateRegister((0, 1, 2, 3), four_qubit_vector(FourQubitState.OMEGA))
        scheme = scheme_for("3456")
        assert validate_scheme(scheme, reg, (0, 2))
        products = product_set(scheme)
        for u in canonical_order(products):
            final = apply_element(reg, u, (0, 2))
            assert decode_operator(reg, final, (0, 2), products) == u
