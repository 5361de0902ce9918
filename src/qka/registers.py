"""Exact statevector simulation of small qubit registers.

A :class:`QubitStore` tracks qubits by globally unique ids and keeps each
group of entangled qubits in its own minimal register, so a protocol run
over thousands of Bell pairs never touches more than a handful of
amplitudes at a time. Measured qubits are retired from the store for good.

Every register is one row of a *block*: ``r`` registers of one width ``w``
held as an ``(r, 2^w)`` amplitude array. :meth:`QubitStore.new_train` makes
an r-row block of r identical copies of one resource state and returns its
``(r, w)`` id matrix, the ids that r calls of ``new_bell`` or
``new_four_qubit`` would have allocated; those calls, ``new_computational``,
every merge and every post-measurement remainder make one-row blocks. One
int32 map from qubit id to block (-1 once measured) locates every qubit: on
a block made by allocation, row and position are ``divmod(id - first, w)``;
any other block is one row over the qubits it lists.

A Pauli letter maps each basis ket to one ket times a sign, so every Pauli
is one index permutation and sign per (block, position), applied to all the
rows it hits at once. Measurement has two routines. Groups that are whole
rows in register order are measured per block with one matmul and one
inverse-CDF draw per row. Every other group, and every scalar
``measure_bell``, ``measure_z`` and ``measure_in_basis`` call, merges the
rows it touches (a Kronecker product in first-seen order, capped at 12
qubits; anything larger fails loudly), samples one outcome and stores what
remains as a one-row block. Measuring across two entangled pairs this way
is what performs entanglement swapping.

Every amplitude is float64: the resource states and the letter matrices of
:mod:`qka.pauli` are real, so every reachable state is, a bra is its ket and
a probability is an amplitude squared. Input with a nonzero imaginary part
is refused with ``ValueError`` before anything is drawn.

Bit-ordering convention, used everywhere: the first qubit listed in a
register is the most significant bit of the basis index. Bell states follow
|psi+-> = (|00> +- |11>)/sqrt(2) and |phi+-> = (|01> +- |10>)/sqrt(2).

Randomness is never ambient: every sampling operation takes a numpy
Generator, and identical seeds reproduce identical outcome sequences and
final stores. Every measurement draws exactly one ``rng.random()``; a
vector measurement of m groups draws ``rng.random(m)``, which yields the
same values as m scalar draws, so bulk and one-by-one measurement give the
same outcomes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .pauli import GroupElement

NORM_TOL = 1e-10
MAX_REGISTER_QUBITS = 12

_INV_SQRT2 = math.sqrt(0.5)


class UnknownQubitError(KeyError):
    """Raised when an operation names a qubit the store does not track."""


class RegisterCapacityError(RuntimeError):
    """Raised when an operation would merge registers past the 12-qubit cap."""


class BellOutcome(IntEnum):
    PSI_PLUS = 0
    PSI_MINUS = 1
    PHI_PLUS = 2
    PHI_MINUS = 3

    @property
    def label(self) -> str:
        return _BELL_LABELS[self]

    @property
    def x_bit(self) -> int:
        """1 iff the state carries a bit flip (phi family)."""
        return int(self) >> 1

    @property
    def z_bit(self) -> int:
        """1 iff the state carries a phase flip (minus sign)."""
        return int(self) & 1


_BELL_LABELS = {
    BellOutcome.PSI_PLUS: "psi+",
    BellOutcome.PSI_MINUS: "psi-",
    BellOutcome.PHI_PLUS: "phi+",
    BellOutcome.PHI_MINUS: "phi-",
}

_BELL_OUTCOMES = tuple(BellOutcome)  # by index, faster than BellOutcome(i)

# Rows indexed by BellOutcome; columns over |00>, |01>, |10>, |11>.
BELL_VECTORS = np.array(
    [
        [_INV_SQRT2, 0.0, 0.0, _INV_SQRT2],
        [_INV_SQRT2, 0.0, 0.0, -_INV_SQRT2],
        [0.0, _INV_SQRT2, _INV_SQRT2, 0.0],
        [0.0, _INV_SQRT2, -_INV_SQRT2, 0.0],
    ]
)
_Z_BRAS = np.eye(2)


class FourQubitState(Enum):
    OMEGA = "omega"
    CLUSTER = "cluster"


def four_qubit_vector(which: FourQubitState) -> np.ndarray:
    """Amplitudes of the named 4-qubit resource state, ±1/2 on four kets."""
    vec = np.zeros(16)
    if which is FourQubitState.OMEGA:
        terms = {0b0000: 0.5, 0b0110: 0.5, 0b1001: 0.5, 0b1111: -0.5}
    else:
        terms = {0b0000: 0.5, 0b0011: 0.5, 0b1100: 0.5, 0b1111: -0.5}
    for idx, amp in terms.items():
        vec[idx] = amp
    return vec


@dataclass
class StateRegister:
    """Ordered qubits plus their joint real amplitude vector (first qubit = MSB).

    The constructor checks size, distinct qubits, realness and norm, and
    stores the amplitudes as float64: it is where a state enters from
    outside. Registers the store hands out skip it.
    """

    qubits: tuple[int, ...]
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.qubits = tuple(self.qubits)
        k = len(self.qubits)
        if not 1 <= k <= MAX_REGISTER_QUBITS:
            raise RegisterCapacityError(f"register size {k} outside 1..{MAX_REGISTER_QUBITS}")
        if len(set(self.qubits)) != k:
            raise ValueError("duplicate qubit in register")
        self.amplitudes = _real(self.amplitudes).reshape(-1)
        if self.amplitudes.shape != (2**k,):
            raise ValueError("amplitude vector length must be 2^k")
        norm_sq = float(self.amplitudes @ self.amplitudes)
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"register norm^2 {norm_sq} deviates from 1")

    @classmethod
    def _trusted(cls, qubits: tuple[int, ...], amplitudes: np.ndarray) -> "StateRegister":
        """A register over a state already known to be valid; nothing is checked or copied."""
        register = cls.__new__(cls)
        register.qubits, register.amplitudes = qubits, amplitudes
        return register

    @property
    def size(self) -> int:
        return len(self.qubits)

    def position(self, qubit: int) -> int:
        try:
            return self.qubits.index(qubit)
        except ValueError:
            raise UnknownQubitError(qubit) from None

    def copy(self) -> "StateRegister":
        return StateRegister._trusted(self.qubits, self.amplitudes.copy())


def inner_product(a: StateRegister, b: StateRegister) -> float:
    """Inner product <a|b> of two same-sized real registers."""
    if a.size != b.size:
        raise ValueError(f"dimension mismatch: {a.size} vs {b.size} qubits")
    return float(a.amplitudes @ b.amplitudes)


def _real(values) -> np.ndarray:
    """Outside amplitudes or basis rows as float64; a nonzero imaginary part is refused."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        if np.any(values.imag):
            raise ValueError("amplitudes and basis rows must be real")
        values = values.real
    return values.astype(np.float64, copy=False)


def _sample_index(probs: np.ndarray, uniform: float) -> int:
    """Born-rule draw from one uniform in [0, 1); zero-probability outcomes are never selected."""
    total = float(probs.sum())
    u = uniform * total
    acc = 0.0
    last = 0
    for i, p in enumerate(probs):
        if p <= 0.0:
            continue
        acc += float(p)
        last = i
        if u < acc:
            return i
    return last  # float roundoff pushed u past the final bin


def _sample_rows(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """``_sample_index`` on every row of ``probs``, each with its own uniform.

    The running sum only grows at nonzero bins, so the first bin whose
    running sum exceeds the target is a nonzero one, as in the scalar loop.
    """
    targets = uniforms * probs.sum(axis=1)
    outcomes = (np.cumsum(probs, axis=1) <= targets[:, None]).sum(axis=1)
    for i in np.flatnonzero(outcomes == probs.shape[1]).tolist():
        nonzero = np.flatnonzero(probs[i] > 0.0)
        outcomes[i] = nonzero[-1] if nonzero.size else 0  # roundoff: last nonzero bin
    return outcomes


def _members(labels: np.ndarray):
    """(label, indices holding it) for each distinct label, in label order."""
    if not labels.size:
        return
    if (labels == labels[0]).all():  # the common case: one block, or one position
        yield int(labels[0]), np.arange(labels.size)
        return
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    for chunk in np.split(order, np.flatnonzero(ranked[1:] != ranked[:-1]) + 1):
        yield int(labels[chunk[0]]), chunk


def _id_table(groups: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """Nonempty equal-sized groups of qubit ids as one (groups, size) array.

    A 2-D integer array is taken as it is.
    """
    if isinstance(groups, np.ndarray) and groups.ndim == 2 and groups.dtype.kind in "iu":
        return groups.astype(np.int64, copy=False)
    sizes = set(map(len, groups))
    if len(sizes) != 1:
        raise ValueError("every group must hold the same number of qubits")
    (size,) = sizes
    flat = itertools.chain.from_iterable(groups)
    return np.fromiter(flat, dtype=np.int64, count=len(groups) * size).reshape(-1, size)


def _has_repeats(values: np.ndarray) -> bool:
    ordered = np.sort(values, axis=None)
    return bool(np.any(ordered[1:] == ordered[:-1]))


@lru_cache(maxsize=None)
def _letter_action(letter, width: int, pos: int) -> tuple[np.ndarray, np.ndarray | None] | None:
    """How one letter acts at ``pos`` of a ``width``-qubit amplitude row.

    Every Pauli letter maps each basis ket to one ket times a sign, so the
    new row is ``old[perm] * sign``. Returns (perm, sign), with sign None
    when it is all ones, or None for the identity.
    """
    mat = letter.matrix
    source = np.abs(mat).argmax(axis=1)  # the input bit feeding each output bit
    coef = mat[[0, 1], source]
    if source[0] == source[1] or np.count_nonzero(mat) != 2:
        raise ValueError("letter matrix must map each basis ket to one basis ket, up to a sign")
    shift = width - 1 - pos
    index = np.arange(2**width)
    bit = (index >> shift) & 1
    perm = index ^ ((bit ^ source[bit]) << shift)
    sign = coef[bit]
    trivial_sign = bool(np.all(sign == 1))
    if trivial_sign and np.array_equal(perm, index):
        return None
    perm.flags.writeable = sign.flags.writeable = False  # shared through the cache
    return perm, (None if trivial_sign else sign)


def apply_element(
    register: StateRegister, element: "GroupElement", targets: Sequence[int]
) -> StateRegister:
    """Return a copy of ``register`` with a Pauli word applied to target qubits.

    Each letter acts through its cached ``_letter_action``, as in the store.
    """
    if element.arity != len(targets):
        raise ValueError("element arity must equal the number of targets")
    amplitudes = register.amplitudes.copy()
    for letter, qubit in zip(element.letters, targets):
        action = _letter_action(letter, register.size, register.position(qubit))
        if action is not None:
            perm, sign = action
            amplitudes = amplitudes[perm] if sign is None else amplitudes[perm] * sign
    return StateRegister._trusted(register.qubits, amplitudes)


class _Block:
    """``live`` registers of one ``width``, one row each of ``amplitudes``.

    A block made by allocation (``qubits`` None) holds the ids ``first +
    r*width`` onward in row r; any other block is one row over ``qubits``.
    ``views`` caches the register ``register_of`` hands out, by row.
    """

    __slots__ = ("first", "width", "qubits", "amplitudes", "live", "views")

    def __init__(self, amplitudes: np.ndarray, width: int, first: int = -1, qubits=None):
        self.amplitudes = amplitudes
        self.width = width
        self.first = first
        self.qubits = qubits
        self.live = len(amplitudes)
        self.views: dict[int, StateRegister] = {}

    def row_of(self, qubit: int) -> int:
        return 0 if self.qubits is not None else (qubit - self.first) // self.width

    def row_ids(self, row: int) -> tuple[int, ...]:
        if self.qubits is not None:
            return self.qubits
        start = self.first + row * self.width
        return tuple(range(start, start + self.width))

    def locate(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row and position in the row of each id."""
        if self.qubits is None:
            return np.divmod(ids - self.first, self.width)
        positions = [self.qubits.index(q) for q in ids.tolist()]
        return np.zeros_like(ids), np.array(positions, dtype=np.int64)


class QubitStore:
    """Registry of live qubits; owns allocation, Pauli action and measurement.

    Confined to one protocol run: ids are never reused, and a measured qubit
    disappears permanently.
    """

    def __init__(self):
        self._blocks: list[_Block | None] = []  # spent blocks become None
        self._block_of = np.empty(0, dtype=np.int32)  # id -> block index, -1 once measured
        self._next_id = 0

    # -- allocation ----------------------------------------------------

    def _new_block(self, amplitudes: np.ndarray, width: int) -> int:
        """Store fresh rows of ``width`` qubits under the next ids; return the first."""
        first, count = self._next_id, len(amplitudes) * width
        end = first + count
        if end > self._block_of.size:
            grown = np.empty(max(end, self._block_of.size * 5 // 4 + 64), dtype=np.int32)
            grown[:first] = self._block_of[:first]
            self._block_of = grown
        self._block_of[first:end] = len(self._blocks)
        self._blocks.append(_Block(amplitudes, width, first))
        self._next_id = end
        return first

    def _add_register(self, qubits: tuple[int, ...], amplitudes: np.ndarray) -> None:
        index = len(self._blocks)
        self._blocks.append(_Block(amplitudes.reshape(1, -1), len(qubits), qubits=qubits))
        for q in qubits:
            self._block_of[q] = index

    def new_bell(self, kind: BellOutcome) -> tuple[int, int]:
        """Allocate a fresh pair prepared in the named Bell state."""
        first = self._new_block(BELL_VECTORS[kind : kind + 1].copy(), 2)
        return first, first + 1

    def new_four_qubit(self, which: FourQubitState) -> tuple[int, int, int, int]:
        """Allocate four fresh qubits in the named 4-qubit resource state."""
        first = self._new_block(four_qubit_vector(which).reshape(1, -1), 4)
        return first, first + 1, first + 2, first + 3

    def new_computational(self, bit: int) -> int:
        """Allocate one fresh qubit in |0> or |1>."""
        vec = np.zeros((1, 2))
        vec[0, int(bit)] = 1.0
        return self._new_block(vec, 1)

    def new_train(self, vector: np.ndarray, count: int) -> np.ndarray:
        """Allocate ``count`` copies of one k-qubit state as one block.

        Returns the (count, k) int64 id matrix, one copy per row: row i holds
        the ids the i-th of ``count`` calls of ``new_bell`` or
        ``new_four_qubit`` would have returned.
        """
        if count < 0:
            raise ValueError("train length must be nonnegative")
        width = np.size(vector).bit_length() - 1
        template = StateRegister(tuple(range(width)), vector).amplitudes  # checked
        first = self._new_block(np.tile(template, (count, 1)), width) if count else self._next_id
        return np.arange(first, first + count * width, dtype=np.int64).reshape(count, width)

    # -- introspection ---------------------------------------------------

    def _index(self, qubit: int) -> int:
        """The block holding ``qubit``."""
        if 0 <= qubit < self._next_id:
            b = int(self._block_of[qubit])
            if b >= 0:
                return b
        raise UnknownQubitError(qubit)

    def _indices(self, ids: np.ndarray) -> np.ndarray:
        """``_index`` of every id in an int64 array."""
        if ids.size and (ids.min() < 0 or ids.max() >= self._next_id):
            raise UnknownQubitError(int(ids[(ids < 0) | (ids >= self._next_id)][0]))
        where = self._block_of[ids]
        if ids.size and where.min() < 0:
            raise UnknownQubitError(int(ids[where < 0][0]))
        return where

    def _retire(self, b: int, rows: int) -> None:
        """Drop ``rows`` of block ``b`` from the count of live ones."""
        block = self._blocks[b]
        block.live -= rows
        if not block.live:
            self._blocks[b] = None

    def tracked(self, qubit: int) -> bool:
        return 0 <= qubit < self._next_id and self._block_of[qubit] >= 0

    def live_qubits(self) -> list[int]:
        return np.flatnonzero(self._block_of[: self._next_id] >= 0).tolist()

    def register_of(self, qubit: int) -> StateRegister:
        """The register holding ``qubit``: a view of its row, one object per register."""
        block = self._blocks[self._index(qubit)]
        row = block.row_of(qubit)
        view = block.views.get(row)
        if view is None:
            view = StateRegister._trusted(block.row_ids(row), block.amplitudes[row])
            block.views[row] = view
        return view

    # -- unitaries -------------------------------------------------------

    def apply_pauli(self, element: "GroupElement", targets: Sequence[int]) -> None:
        """Apply a Pauli word letter-by-letter; no merging is ever needed."""
        self.apply_pauli_groups(element, [targets])

    def apply_pauli_groups(
        self, element: "GroupElement", groups: Sequence[Sequence[int]] | np.ndarray
    ) -> None:
        """``apply_pauli(element, group)`` for every group.

        Per letter, the qubits it hits change by one index permutation and
        sign per (block, position), on all of that block's rows at once.
        """
        if not len(groups):
            return
        targets = _id_table(groups)
        if targets.shape[1] != element.arity:
            raise ValueError(
                f"arity mismatch: element has {element.arity} letters, "
                f"groups hold {targets.shape[1]} targets"
            )
        if _has_repeats(targets):
            raise ValueError("groups must name distinct qubits")
        where = self._indices(targets)
        for j, letter in enumerate(element.letters):
            for b, sel in _members(where[:, j]):
                block = self._blocks[b]
                rows, positions = block.locate(targets[sel, j])
                for pos, at_pos in _members(positions):
                    action = _letter_action(letter, block.width, pos)
                    if action is None:
                        continue
                    perm, sign = action
                    chosen = rows[at_pos]
                    moved = block.amplitudes[np.ix_(chosen, perm)]
                    block.amplitudes[chosen] = moved if sign is None else moved * sign

    # -- measurement -----------------------------------------------------

    def _measure(self, qubits: Sequence[int], basis: np.ndarray, draw: Callable[[], float]) -> int:
        """Measure distinct ``qubits`` in the orthonormal rows of ``basis``.

        The rows holding the qubits merge in first-seen order. Once the
        group is known to be measurable, ``draw()`` gives the uniform that
        picks the outcome; the measured qubits retire, and what remains of
        the merged register, renormalized, becomes a one-row block.
        """
        touched: list[tuple[_Block, int, int]] = []  # (block, index, row), first seen first
        order: list[int] = []  # the merged register's qubits
        for q in qubits:
            b = self._index(q)
            block = self._blocks[b]
            row = block.row_of(q)
            if all(b != seen or row != r for _, seen, r in touched):
                touched.append((block, b, row))
                order.extend(block.row_ids(row))
        if len(order) > MAX_REGISTER_QUBITS:
            raise RegisterCapacityError(
                f"merge of {len(order)} qubits exceeds the {MAX_REGISTER_QUBITS}-qubit cap"
            )
        (block, _, row), *others = touched
        amps = block.amplitudes[row]
        for block, _, row in others:
            amps = np.multiply.outer(amps, block.amplitudes[row]).reshape(-1)  # kron of vectors
        front = [order.index(q) for q in qubits]
        rest = [p for p in range(len(order)) if p not in front]
        arr = amps.reshape((2,) * len(order)).transpose(front + rest)
        branches = basis @ arr.reshape(2 ** len(front), -1)
        probs = np.einsum("ij,ij->i", branches, branches)
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ValueError("basis does not resolve the state's probability mass")
        outcome = _sample_index(probs, draw())
        for q in qubits:
            self._block_of[q] = -1
        for _, b, _ in touched:
            self._retire(b, 1)
        if rest:
            post = branches[outcome] / math.sqrt(probs[outcome])
            self._add_register(tuple(order[p] for p in rest), post)
        return outcome

    def measure_bell(self, a: int, b: int, rng: np.random.Generator) -> BellOutcome:
        """Projective Bell-basis measurement of qubits (a, b).

        Qubits living in different registers are merged first, so measuring
        across two entangled pairs performs entanglement swapping on the
        partners left behind. Both measured qubits are retired.
        """
        if a == b:
            raise ValueError("cannot Bell-measure a qubit against itself")
        return _BELL_OUTCOMES[self._measure((a, b), BELL_VECTORS, rng.random)]

    def measure_z(self, qubit: int, rng: np.random.Generator) -> int:
        """Computational-basis measurement; the qubit is retired."""
        return self._measure((qubit,), _Z_BRAS, rng.random)

    def measure_in_basis(
        self,
        qubits: Sequence[int],
        basis: np.ndarray,
        rng: np.random.Generator,
    ) -> int:
        """Projective measurement of ``qubits`` in an orthonormal basis.

        ``basis`` is a (d, 2^m) array of bra rows over the listed qubit
        order; it must resolve (within tolerance) all probability mass of
        the state. Returns the sampled row index; measured qubits retire.
        """
        if len(set(qubits)) != len(qubits):
            raise ValueError("measured qubits must be distinct")
        basis = _real(basis)
        if basis.shape[1] != 2 ** len(qubits):
            raise ValueError("basis row length must be 2^(number of measured qubits)")
        return self._measure(tuple(qubits), basis, rng.random)

    def measure_bell_rows(
        self, pairs: Sequence[Sequence[int]] | np.ndarray, rng: np.random.Generator
    ) -> list[BellOutcome]:
        """``measure_bell`` on each pair in list order, whole rows in bulk."""
        outcomes = self._measure_groups(pairs, BELL_VECTORS, rng)
        return [_BELL_OUTCOMES[o] for o in outcomes]

    def measure_rows_in_basis(
        self,
        groups: Sequence[Sequence[int]] | np.ndarray,
        basis: np.ndarray,
        rng: np.random.Generator,
    ) -> list[int]:
        """``measure_in_basis`` on each group in list order, whole rows in bulk."""
        return self._measure_groups(groups, _real(basis), rng)

    def _measure_groups(
        self,
        groups: Sequence[Sequence[int]] | np.ndarray,
        basis: np.ndarray,
        rng: np.random.Generator,
    ) -> list[int]:
        """Measure every group in ``basis``, drawing all uniforms up front.

        Group i uses uniform i of ``rng.random(len(groups))``, the value the
        i-th of as many scalar measurements would draw. Groups that are
        whole rows of one allocated block, in register order, are measured
        together in one matmul; every other group goes through ``_measure``
        in list order.
        """
        if not len(groups):
            return []
        targets = _id_table(groups)
        if _has_repeats(targets):
            raise ValueError("measured qubits must be distinct")
        m = targets.shape[1]
        if basis.shape[1] != 2**m:
            raise ValueError("basis row length must be 2^(number of measured qubits)")
        where = self._indices(targets[:, 0])
        uniforms = rng.random(len(groups))
        outcomes = np.zeros(len(groups), dtype=np.int64)
        one_by_one = np.ones(len(groups), dtype=bool)
        firsts = targets[:, 0]
        for b, sel in _members(where):
            block = self._blocks[b]
            if block.qubits is not None or block.width != m:
                continue
            rows, positions = np.divmod(firsts[sel] - block.first, m)
            consecutive = (targets[sel] == firsts[sel, None] + np.arange(m)).all(axis=1)
            whole = (positions == 0) & consecutive
            if not whole.any():
                continue
            sel, rows = sel[whole], rows[whole]
            amps = block.amplitudes
            # A decode reads a whole block in order; not copying it there
            # keeps the copy out of a large run's peak memory.
            if not np.array_equal(rows, np.arange(len(amps))):
                amps = amps[rows]
            probs = np.square(amps @ basis.T)
            if np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-9):
                raise ValueError("basis does not resolve the state's probability mass")
            outcomes[sel] = _sample_rows(probs, uniforms[sel])
            self._block_of[targets[sel]] = -1
            self._retire(b, sel.size)
            one_by_one[sel] = False
        draw = iter(uniforms[one_by_one].tolist()).__next__  # their uniforms, in list order
        for i in np.flatnonzero(one_by_one).tolist():
            outcomes[i] = self._measure(targets[i].tolist(), basis, draw)
        return outcomes.tolist()
