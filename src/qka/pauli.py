"""Phase-free multi-qubit Pauli algebra.

The single-qubit alphabet is {I, X, iY, Z}, where iY is the phase-absorbed
Y with the real matrix [[0, 1], [-1, 0]]. Every letter matrix is real, as is
every resource state in :mod:`qka.registers`, so every reachable state is
real. Multiplication discards the global phase of the matrix product, which
turns the set into an abelian group in which every element is its own
inverse. Multi-qubit elements are words over this alphabet and multiply
letter-wise.

Canonical element ordering is I < X < iY < Z, extended lexicographically
over letters; every enumeration in this module uses it so that tables and
transcripts are reproducible.

Serialization grammar: an element renders as the concatenation of one token
per letter, each token being ``I``, ``X``, ``Z`` or ``Y*`` (e.g. ``IX``,
``ZI``, ``XY*``). ``from_label`` parses the same grammar.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Sequence

import numpy as np

from .registers import StateRegister, apply_element, inner_product

ORTHO_TOL = 1e-10


class PauliLetter(IntEnum):
    """Single-qubit letter; integer value fixes the canonical order."""

    I = 0
    X = 1
    IY = 2
    Z = 3

    @property
    def matrix(self) -> np.ndarray:
        return _MATRICES[self]

    @property
    def symbol(self) -> str:
        return _SYMBOLS[self]


_MATRICES = {
    PauliLetter.I: np.array([[1, 0], [0, 1]], dtype=float),
    PauliLetter.X: np.array([[0, 1], [1, 0]], dtype=float),
    PauliLetter.IY: np.array([[0, 1], [-1, 0]], dtype=float),
    PauliLetter.Z: np.array([[1, 0], [0, -1]], dtype=float),
}

_SYMBOLS = {
    PauliLetter.I: "I",
    PauliLetter.X: "X",
    PauliLetter.IY: "Y*",
    PauliLetter.Z: "Z",
}


def _strip_phase(product: np.ndarray) -> PauliLetter:
    """Identify the letter whose matrix equals ``product`` up to a unit phase."""
    for letter in PauliLetter:
        ref = letter.matrix
        # anchor the phase on the first nonzero entry of the candidate
        idx = np.argmax(np.abs(ref) > 0.5)
        r, c = divmod(int(idx), 2)
        phase = product[r, c] / ref[r, c]
        if abs(abs(phase) - 1.0) < 1e-12 and np.allclose(product, phase * ref, atol=1e-12):
            return letter
    raise ValueError("matrix is not a unit-phase multiple of a Pauli letter")


# Letter-product table, derived once from the 2x2 matrices with the global
# phase stripped. The test suite re-derives it independently.
_MUL: dict[tuple[PauliLetter, PauliLetter], PauliLetter] = {
    (a, b): _strip_phase(a.matrix @ b.matrix) for a in PauliLetter for b in PauliLetter
}


@dataclass(frozen=True, order=True)
class GroupElement:
    """A phase-free Pauli word; hashable, comparable in canonical order."""

    letters: tuple[PauliLetter, ...]

    def __post_init__(self):
        if not self.letters:
            raise ValueError("a group element needs at least one letter")

    @classmethod
    def of(cls, *letters: PauliLetter) -> "GroupElement":
        return cls(tuple(letters))

    @classmethod
    def identity(cls, arity: int) -> "GroupElement":
        return cls((PauliLetter.I,) * arity)

    @classmethod
    def from_label(cls, label: str) -> "GroupElement":
        letters = []
        i = 0
        while i < len(label):
            ch = label[i]
            if ch == "Y":
                if i + 1 >= len(label) or label[i + 1] != "*":
                    raise ValueError(f"bad element label {label!r}: Y must be written Y*")
                letters.append(PauliLetter.IY)
                i += 2
            elif ch in ("I", "X", "Z"):
                letters.append(PauliLetter[ch])
                i += 1
            else:
                raise ValueError(f"bad element label {label!r}: unknown letter {ch!r}")
        return cls(tuple(letters))

    @property
    def arity(self) -> int:
        return len(self.letters)

    @property
    def label(self) -> str:
        return "".join(letter.symbol for letter in self.letters)

    def is_identity(self) -> bool:
        return all(letter is PauliLetter.I for letter in self.letters)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return mul(self, other)

    def __str__(self) -> str:
        return self.label


def mul(a: GroupElement, b: GroupElement) -> GroupElement:
    """Letter-wise phase-free product of two equal-arity elements."""
    if a.arity != b.arity:
        raise ValueError(f"arity mismatch: {a.arity} vs {b.arity}")
    return GroupElement(tuple(_MUL[x, y] for x, y in zip(a.letters, b.letters)))


def canonical_order(elements: Iterable[GroupElement]) -> list[GroupElement]:
    """Deterministic enumeration order used for tables, bases and transcripts."""
    return sorted(elements)


@dataclass(frozen=True)
class Subgroup:
    name: str
    elements: frozenset[GroupElement]

    @property
    def arity(self) -> int:
        return next(iter(self.elements)).arity

    def non_identity(self) -> list[GroupElement]:
        return canonical_order(e for e in self.elements if not e.is_identity())


def is_subgroup(elements: Iterable[GroupElement]) -> bool:
    """Closure check: identity present, uniform arity, closed under mul, order 2^k."""
    elems = frozenset(elements)
    if not elems:
        return False
    arities = {e.arity for e in elems}
    if len(arities) != 1:
        return False
    arity = arities.pop()
    if GroupElement.identity(arity) not in elems:
        return False
    order = len(elems)
    if order & (order - 1) != 0:
        return False
    return all(mul(a, b) in elems for a in elems for b in elems)


def group_g1() -> frozenset[GroupElement]:
    """The four single-letter elements."""
    return frozenset(GroupElement.of(letter) for letter in PauliLetter)


def group_g2() -> frozenset[GroupElement]:
    """All sixteen two-letter elements (tensor square of the letter group)."""
    return frozenset(
        GroupElement.of(a, b) for a in PauliLetter for b in PauliLetter
    )


def standard_subgroups_g2() -> list[Subgroup]:
    """The six order-2 subgroups g1..g6 of the two-letter group.

    g1={II,IX}, g2={II,XI}, g3={II,IZ}, g4={II,ZI}, g5={II,IY*}, g6={II,Y*I}.
    """
    identity = GroupElement.identity(2)
    generators = [
        (PauliLetter.I, PauliLetter.X),
        (PauliLetter.X, PauliLetter.I),
        (PauliLetter.I, PauliLetter.Z),
        (PauliLetter.Z, PauliLetter.I),
        (PauliLetter.I, PauliLetter.IY),
        (PauliLetter.IY, PauliLetter.I),
    ]
    return [
        Subgroup(f"g{k + 1}", frozenset({identity, GroupElement.of(*gen)}))
        for k, gen in enumerate(generators)
    ]


def product_set(subgroups: Sequence[Subgroup]) -> frozenset[GroupElement]:
    """All ordered products, one factor per subgroup, deduplicated."""
    if not subgroups:
        raise ValueError("need at least one subgroup")
    arities = {s.arity for s in subgroups}
    if len(arities) != 1:
        raise ValueError("subgroups must share one arity")
    products = set()
    for combo in itertools.product(*(canonical_order(s.elements) for s in subgroups)):
        acc = combo[0]
        for factor in combo[1:]:
            acc = mul(acc, factor)
        products.add(acc)
    return frozenset(products)


def check_disjoint(a: Subgroup, b: Subgroup) -> bool:
    """True iff the two subgroups share only the identity word."""
    if a.arity != b.arity:
        raise ValueError("subgroups must share one arity")
    return a.elements & b.elements == {GroupElement.identity(a.arity)}


def dense_coding_orthogonal(
    state: StateRegister,
    targets: Sequence[int],
    group: Iterable[GroupElement],
    tol: float = ORTHO_TOL,
) -> bool:
    """True iff {U|state> : U in group} is pairwise orthogonal on the targets."""
    elements = canonical_order(group)
    for element in elements:
        if element.arity != len(targets):
            raise ValueError("element arity must equal the number of targets")
    transformed = [apply_element(state, u, targets) for u in elements]
    for i, left in enumerate(transformed):
        for right in transformed[i + 1 :]:
            if abs(inner_product(left, right)) > tol:
                return False
    return True


def decode_operator(
    initial: StateRegister,
    final: StateRegister,
    targets: Sequence[int],
    group: Iterable[GroupElement],
    tol: float = ORTHO_TOL,
) -> GroupElement:
    """Find the unique group element mapping ``initial`` to ``final``.

    The match ignores a global sign/phase, consistent with the phase-free
    group. Raises ValueError when the final state lies outside the basis
    generated by the group.
    """
    for element in canonical_order(group):
        candidate = apply_element(initial, element, targets)
        if abs(abs(inner_product(final, candidate)) - 1.0) < tol:
            return element
    raise ValueError("final state is not in the basis generated by the group")


@dataclass(frozen=True)
class EncodingScheme:
    """Parameters of a multi-round dense-coding key encoding.

    ``total_qubits`` qubits carry the state, ``travel_qubits`` of them
    circulate, each of ``rounds`` encoders contributes ``bits_per_round``
    bits using its own subgroup.
    """

    total_qubits: int
    travel_qubits: int
    bits_per_round: int
    rounds: int
    round_subgroups: tuple[Subgroup, ...]


def _relabel_subgroup(sub: Subgroup, perm: Sequence[int]) -> frozenset[GroupElement]:
    return frozenset(
        GroupElement(tuple(e.letters[p] for p in perm)) for e in sub.elements
    )


def _closed_under_relabeling(subgroups: Sequence[Subgroup], arity: int) -> bool:
    """True iff relabeling travel qubits maps the round set onto itself."""
    original = Counter(s.elements for s in subgroups)
    for perm in itertools.permutations(range(arity)):
        if Counter(_relabel_subgroup(s, perm) for s in subgroups) != original:
            return False
    return True


def validate_scheme(
    scheme: EncodingScheme,
    state: StateRegister,
    travel_targets: Sequence[int],
) -> bool:
    """Check that a scheme yields uniquely decodable, orthogonal encodings.

    A valid scheme needs pairwise-disjoint round subgroups of order
    2^bits_per_round, a collision-free product set, and mutually orthogonal
    outputs on the travel targets. On top of that, the round selection must
    not depend on which travel qubit is which: permuting the travel-qubit
    labels has to map the set of round subgroups onto itself. Selections
    that decode fine but break this symmetry are rejected as outside the
    supported scheme family.

    Structural mismatches (state size vs total_qubits, target count vs
    travel_qubits, round count vs subgroup list) raise ValueError; content
    failures return False.
    """
    if scheme.total_qubits <= 0 or scheme.travel_qubits <= 0 or scheme.bits_per_round <= 0:
        raise ValueError("scheme sizes must be positive")
    if scheme.rounds != len(scheme.round_subgroups):
        raise ValueError("round count does not match the subgroup list")
    if len(state.qubits) != scheme.total_qubits:
        raise ValueError("state size does not match total_qubits")
    if len(travel_targets) != scheme.travel_qubits:
        raise ValueError("travel target count does not match travel_qubits")

    if not (scheme.total_qubits > scheme.travel_qubits >= scheme.bits_per_round):
        return False
    expected_order = 2 ** scheme.bits_per_round
    for sub in scheme.round_subgroups:
        if sub.arity != scheme.travel_qubits:
            return False
        if len(sub.elements) != expected_order or not is_subgroup(sub.elements):
            return False
    for a, b in itertools.combinations(scheme.round_subgroups, 2):
        if not check_disjoint(a, b):
            return False
    if not _closed_under_relabeling(scheme.round_subgroups, scheme.travel_qubits):
        return False
    products = product_set(scheme.round_subgroups)
    if len(products) != expected_order ** scheme.rounds:
        return False
    return dense_coding_orthogonal(state, travel_targets, products)
