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
    # Without their phases the letters form Z2 x Z2, whose elements the codes
    # I=0, X=1, iY=2, Z=3 spell as bit pairs: a product is the XOR of the codes.
    return GroupElement(tuple(PauliLetter(x ^ y) for x, y in zip(a.letters, b.letters)))


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
    _shared_arity(subgroups)
    products = set()
    for combo in itertools.product(*(canonical_order(s.elements) for s in subgroups)):
        acc = combo[0]
        for factor in combo[1:]:
            acc = mul(acc, factor)
        products.add(acc)
    return frozenset(products)


def check_disjoint(a: Subgroup, b: Subgroup) -> bool:
    """True iff the two subgroups share only the identity word."""
    return a.elements & b.elements == {GroupElement.identity(_shared_arity((a, b)))}


def _shared_arity(subgroups: Iterable[Subgroup]) -> int:
    """The one arity of ``subgroups``; the one home of the rule that they share one."""
    arities = {s.arity for s in subgroups}
    if len(arities) != 1:
        raise ValueError("subgroups must share one arity")
    return arities.pop()


def dense_coding_orthogonal(
    state: StateRegister,
    targets: Sequence[int],
    group: Iterable[GroupElement],
    tol: float = ORTHO_TOL,
) -> bool:
    """True iff {U|state> : U in group} is pairwise orthogonal on the targets."""
    elements = canonical_order(group)
    transformed = [apply_element(state, u, targets) for u in elements]
    for i, left in enumerate(transformed):
        for right in transformed[i + 1 :]:
            if abs(inner_product(left, right)) > tol:
                return False
    return True


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
    round_subgroups: Sequence[Subgroup],
    state: StateRegister,
    travel_targets: Sequence[int],
) -> bool:
    """Check that a multi-round dense coding yields uniquely decodable, orthogonal encodings.

    ``state`` carries the encoding, its qubits at ``travel_targets``
    circulate, and each round encodes with its own subgroup, in order; each
    count comes from these inputs, and the bits per round from the first
    subgroup's order 2^bits. A valid scheme has at least one round, more
    qubits than travel qubits and at least as many travel qubits as bits, at
    least one. It needs round subgroups of order 2^bits, a collision-free
    product set, and mutually orthogonal outputs on the travel targets. The
    product set also keeps the subgroups disjoint: a word g in two of them
    is the product of both (g, I, ...) and (I, g, ...). On top of that, the
    round selection must not depend on which travel qubit is which:
    permuting the travel-qubit labels has to map the set of round subgroups
    onto itself. Selections that decode fine but break this symmetry are
    rejected as outside the supported scheme family. Any failure returns
    False.
    """
    subgroups = tuple(round_subgroups)
    travel = len(travel_targets)
    if not subgroups:
        return False
    order = len(subgroups[0].elements)
    bits = order.bit_length() - 1
    if not state.size > travel >= bits > 0:
        return False
    for sub in subgroups:
        if len(sub.elements) != order or sub.arity != travel or not is_subgroup(sub.elements):
            return False
    if not _closed_under_relabeling(subgroups, travel):
        return False
    products = product_set(subgroups)
    if len(products) != order ** len(subgroups):
        return False
    return dense_coding_orthogonal(state, travel_targets, products)
