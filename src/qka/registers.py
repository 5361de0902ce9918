"""Exact statevector simulation of small qubit registers.

A :class:`QubitStore` tracks qubits by globally unique ids and keeps each
group of entangled qubits in its own minimal :class:`StateRegister`, so a
protocol run over thousands of Bell pairs never touches more than a handful
of amplitudes at a time. Registers are merged lazily, only when a joint
measurement spans two of them; merging caps at 12 qubits and anything larger
fails loudly. Measured qubits are retired from the store for good.

Trains hold the hot path. A protocol sends n identical, independent copies
of one resource state, so :meth:`QubitStore.new_train` keeps them as one
``(n, 2^k)`` amplitude array, one row per copy, with the ids ``n`` calls of
``new_bell`` or ``new_four_qubit`` would have allocated. Three vector
operations act on many rows at once: :meth:`QubitStore.apply_pauli_groups`
(per letter an index permutation plus a sign on the selected rows), and
:meth:`QubitStore.measure_bell_rows` and
:meth:`QubitStore.measure_rows_in_basis` (one matmul and one inverse-CDF
draw per row). Any scalar operation on a train qubit (``register_of`` and
everything built on it) first *detaches* that qubit's row into an ordinary
:class:`StateRegister`; from then on the row takes the per-register path,
merges and entanglement swapping included. A vector operation that meets a
detached row, or a group that is not one whole row in register order,
handles that group on the per-register path.

Bit-ordering convention, used everywhere: the first qubit listed in a
register is the most significant bit of the basis index. Bell states follow
|psi+-> = (|00> +- |11>)/sqrt(2) and |phi+-> = (|01> +- |10>)/sqrt(2).

Randomness is never ambient: every sampling operation takes a numpy
Generator, and identical seeds reproduce identical outcome sequences and
final stores. Every measurement draws exactly one ``rng.random()``; a
vector measurement of m groups draws ``rng.random(m)``, which yields the
same values as m scalar draws, so trains leave the random stream, and with
it every outcome, as the per-register path has it.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
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
    ],
    dtype=complex,
)


class FourQubitState(Enum):
    OMEGA = "omega"
    CLUSTER = "cluster"


def four_qubit_vector(which: FourQubitState) -> np.ndarray:
    """Amplitudes of the named 4-qubit resource state, ±1/2 on four kets."""
    vec = np.zeros(16, dtype=complex)
    if which is FourQubitState.OMEGA:
        terms = {0b0000: 0.5, 0b0110: 0.5, 0b1001: 0.5, 0b1111: -0.5}
    else:
        terms = {0b0000: 0.5, 0b0011: 0.5, 0b1100: 0.5, 0b1111: -0.5}
    for idx, amp in terms.items():
        vec[idx] = amp
    return vec


@dataclass
class StateRegister:
    """Ordered qubits plus their joint amplitude vector (first qubit = MSB)."""

    qubits: tuple[int, ...]
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.qubits = tuple(self.qubits)
        k = len(self.qubits)
        if not 1 <= k <= MAX_REGISTER_QUBITS:
            raise RegisterCapacityError(f"register size {k} outside 1..{MAX_REGISTER_QUBITS}")
        if len(set(self.qubits)) != k:
            raise ValueError("duplicate qubit in register")
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if self.amplitudes.shape != (2**k,):
            raise ValueError("amplitude vector length must be 2^k")
        norm_sq = float(np.vdot(self.amplitudes, self.amplitudes).real)
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"register norm^2 {norm_sq} deviates from 1")

    @property
    def size(self) -> int:
        return len(self.qubits)

    def position(self, qubit: int) -> int:
        try:
            return self.qubits.index(qubit)
        except ValueError:
            raise UnknownQubitError(qubit) from None

    def copy(self) -> "StateRegister":
        return StateRegister(self.qubits, self.amplitudes.copy())

    def apply_matrix(self, pos: int, mat: np.ndarray) -> None:
        """Apply a single-qubit operator in place at the given position."""
        k = self.size
        if k == 1:
            self.amplitudes = mat @ self.amplitudes
        elif k == 2:
            arr = self.amplitudes.reshape(2, 2)
            self.amplitudes = (mat @ arr if pos == 0 else arr @ mat.T).reshape(-1)
        else:
            arr = self.amplitudes.reshape([2] * k)
            arr = np.tensordot(mat, arr, axes=([1], [pos]))
            self.amplitudes = np.moveaxis(arr, 0, pos).reshape(-1)

    def reordered(self, new_order: Sequence[int]) -> "StateRegister":
        """Same state with qubits listed in ``new_order``."""
        if sorted(new_order) != sorted(self.qubits):
            raise ValueError("new order must be a permutation of the register's qubits")
        perm = [self.position(q) for q in new_order]
        arr = self.amplitudes.reshape([2] * self.size)
        return StateRegister(tuple(new_order), np.transpose(arr, perm).reshape(-1))


def inner_product(a: StateRegister, b: StateRegister) -> complex:
    """Hermitian inner product <a|b> of two same-sized registers."""
    if a.size != b.size:
        raise ValueError(f"dimension mismatch: {a.size} vs {b.size} qubits")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def apply_element(
    register: StateRegister, element: "GroupElement", targets: Sequence[int]
) -> StateRegister:
    """Return a copy of ``register`` with a Pauli word applied to target qubits."""
    if element.arity != len(targets):
        raise ValueError("element arity must equal the number of targets")
    out = register.copy()
    for letter, qubit in zip(element.letters, targets):
        out.apply_matrix(out.position(qubit), letter.matrix)
    return out


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


def _to_front(register: StateRegister, positions: Sequence[int]) -> np.ndarray:
    """The register's amplitude tensor with the given qubit axes moved first, in order."""
    rest = [p for p in range(register.size) if p not in positions]
    return register.amplitudes.reshape([2] * register.size).transpose([*positions, *rest])


def _members(labels: np.ndarray):
    """(label, indices holding it) for each nonnegative label, in label order."""
    if not labels.size:
        return
    low, high = int(labels.min()), int(labels.max())
    if low == high:  # the common case: one train, or one position
        if low >= 0:
            yield low, np.arange(labels.size)
        return
    for label in range(max(low, 0), high + 1):
        indices = np.flatnonzero(labels == label)
        if indices.size:
            yield label, indices


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


def _bell_probs(amplitudes: np.ndarray) -> np.ndarray:
    return np.abs(amplitudes) ** 2


def _basis_probs(amplitudes: np.ndarray) -> np.ndarray:
    return (amplitudes * amplitudes.conj()).real


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
    if source[0] == source[1] or np.count_nonzero(mat) != 2 or np.any(coef.imag):
        raise ValueError("letter matrix must map each basis ket to one basis ket, up to a sign")
    shift = width - 1 - pos
    index = np.arange(2**width)
    bit = (index >> shift) & 1
    perm = index ^ ((bit ^ source[bit]) << shift)
    sign = coef[bit].real  # Pauli letters carry real signs
    trivial_sign = bool(np.all(sign == 1))
    if trivial_sign and np.array_equal(perm, index):
        return None
    perm.flags.writeable = sign.flags.writeable = False  # shared through the cache
    return perm, (None if trivial_sign else sign)


@dataclass(eq=False)
class _Train:
    """``live.size`` copies of one ``width``-qubit state, one amplitude row each.

    Row r holds the ids ``first + r*width`` onward, first qubit as MSB;
    ``live[r]`` turns False once the row is measured or detached.
    """

    first: int
    width: int
    amplitudes: np.ndarray
    live: np.ndarray

    def row_ids(self, row: int) -> tuple[int, ...]:
        start = self.first + row * self.width
        return tuple(range(start, start + self.width))


class QubitStore:
    """Registry of live qubits; owns allocation, Pauli action and measurement.

    Confined to one protocol run: ids are never reused, and a measured qubit
    disappears permanently.
    """

    def __init__(self):
        self._registers: dict[int, StateRegister] = {}
        self._trains: list[_Train] = []  # in id order; spent trains are dropped
        self._next_id = 0

    # -- allocation ----------------------------------------------------

    def _fresh_ids(self, count: int) -> tuple[int, ...]:
        ids = tuple(range(self._next_id, self._next_id + count))
        self._next_id += count
        return ids

    def _install(self, register: StateRegister) -> None:
        for q in register.qubits:
            self._registers[q] = register

    def new_bell(self, kind: BellOutcome) -> tuple[int, int]:
        """Allocate a fresh pair prepared in the named Bell state."""
        a, b = self._fresh_ids(2)
        self._install(StateRegister((a, b), BELL_VECTORS[kind].copy()))
        return a, b

    def new_four_qubit(self, which: FourQubitState) -> tuple[int, int, int, int]:
        """Allocate four fresh qubits in the named 4-qubit resource state."""
        ids = self._fresh_ids(4)
        self._install(StateRegister(ids, four_qubit_vector(which)))
        return ids

    def new_computational(self, bit: int) -> int:
        """Allocate one fresh qubit in |0> or |1>."""
        (q,) = self._fresh_ids(1)
        vec = np.zeros(2, dtype=complex)
        vec[int(bit)] = 1.0
        self._install(StateRegister((q,), vec))
        return q

    def new_train(self, vector: np.ndarray, count: int) -> tuple[int, ...]:
        """Allocate ``count`` copies of one k-qubit state as a train.

        Returns the ids copy by copy: the ones ``count`` calls of
        ``new_bell`` or ``new_four_qubit`` would have returned.
        """
        if count < 0:
            raise ValueError("train length must be nonnegative")
        template = np.asarray(vector, dtype=complex).reshape(-1)
        width = template.size.bit_length() - 1
        StateRegister(tuple(range(width)), template)  # validates size and norm
        ids = self._fresh_ids(count * width)
        if count:
            amplitudes = np.tile(template, (count, 1))
            self._trains.append(_Train(ids[0], width, amplitudes, np.ones(count, dtype=bool)))
        return ids

    # -- introspection ---------------------------------------------------

    def _train_row(self, qubit: int) -> tuple[_Train, int] | None:
        """The train and row holding ``qubit``, while that row is in the train."""
        i = bisect_right(self._trains, qubit, key=lambda t: t.first) - 1
        if i < 0:
            return None
        train = self._trains[i]
        row = (qubit - train.first) // train.width
        if row < train.live.size and train.live[row]:
            return train, row
        return None

    def _locate(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Train index, row and position in the row of each id.

        The train index is -1 for an id that is not in a live train row.
        """
        where = np.searchsorted([t.first for t in self._trains], ids, side="right") - 1
        rows = np.zeros_like(ids)
        positions = np.zeros_like(ids)
        for t, sel in _members(where):
            train = self._trains[t]
            row, pos = np.divmod(ids[sel] - train.first, train.width)
            held = row < train.live.size
            held[held] = train.live[row[held]]
            where[sel[~held]] = -1
            rows[sel] = row
            positions[sel] = pos
        return where, rows, positions

    def _detach(self, train: _Train, row: int) -> StateRegister:
        """Move one train row into its own register, for good."""
        register = StateRegister(train.row_ids(row), train.amplitudes[row].copy())
        train.live[row] = False
        if not train.live.any():
            self._trains.remove(train)
        self._install(register)
        return register

    def tracked(self, qubit: int) -> bool:
        return qubit in self._registers or self._train_row(qubit) is not None

    def live_qubits(self) -> list[int]:
        in_trains = [
            q
            for train in self._trains
            for row in np.flatnonzero(train.live).tolist()
            for q in train.row_ids(row)
        ]
        return sorted([*self._registers, *in_trains])

    def register_of(self, qubit: int) -> StateRegister:
        """The register holding ``qubit``; a train row is detached first."""
        register = self._registers.get(qubit)
        if register is not None:
            return register
        held = self._train_row(qubit)
        if held is None:
            raise UnknownQubitError(qubit)
        return self._detach(*held)

    # -- unitaries -------------------------------------------------------

    def apply_pauli(self, element: "GroupElement", targets: Sequence[int]) -> None:
        """Apply a Pauli word letter-by-letter; no merging is ever needed."""
        if element.arity != len(targets):
            raise ValueError(
                f"arity mismatch: element has {element.arity} letters, {len(targets)} targets"
            )
        for letter, qubit in zip(element.letters, targets):
            reg = self.register_of(qubit)
            reg.apply_matrix(reg.position(qubit), letter.matrix)

    def apply_pauli_groups(
        self, element: "GroupElement", groups: Sequence[Sequence[int]] | np.ndarray
    ) -> None:
        """``apply_pauli(element, group)`` for every group, train rows in bulk.

        Per letter, the qubits it hits in live train rows change by one
        index permutation and sign per (train, position); every other qubit
        takes the per-register path. Rows are never detached.
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
        where, rows, positions = (
            a.reshape(targets.shape) for a in self._locate(targets.reshape(-1))
        )
        for j, letter in enumerate(element.letters):
            for t, in_train in _members(where[:, j]):
                train = self._trains[t]
                for pos, at_pos in _members(positions[in_train, j]):
                    action = _letter_action(letter, train.width, pos)
                    if action is None:
                        continue
                    perm, sign = action
                    sel = rows[in_train[at_pos], j]
                    moved = train.amplitudes[np.ix_(sel, perm)]
                    train.amplitudes[sel] = moved if sign is None else moved * sign
            for qubit in targets[where[:, j] < 0, j].tolist():
                reg = self.register_of(qubit)
                reg.apply_matrix(reg.position(qubit), letter.matrix)

    # -- measurement -----------------------------------------------------

    def _joint_register(self, qubits: Sequence[int]) -> StateRegister:
        """Register containing all the qubits, merging lazily if needed."""
        regs: list[StateRegister] = []
        for q in qubits:
            reg = self.register_of(q)
            if all(reg is not seen for seen in regs):
                regs.append(reg)
        if len(regs) == 1:
            return regs[0]
        total = sum(r.size for r in regs)
        if total > MAX_REGISTER_QUBITS:
            raise RegisterCapacityError(
                f"merge of {total} qubits exceeds the {MAX_REGISTER_QUBITS}-qubit cap"
            )
        amps = regs[0].amplitudes
        joined: tuple[int, ...] = regs[0].qubits
        for reg in regs[1:]:
            amps = np.multiply.outer(amps, reg.amplitudes).reshape(-1)  # kron of vectors
            joined = joined + reg.qubits
        merged = StateRegister(joined, amps)
        self._install(merged)
        return merged

    def _collapse(
        self,
        register: StateRegister,
        measured: Sequence[int],
        branch_amplitudes: np.ndarray,
        probability: float,
    ) -> None:
        """Retire measured qubits; renormalize whatever remains."""
        for q in measured:
            del self._registers[q]
        remaining = tuple(q for q in register.qubits if q not in measured)
        if remaining:
            post = branch_amplitudes / math.sqrt(probability)
            self._install(StateRegister(remaining, post))

    def _sampled(
        self,
        register: StateRegister,
        measured: Sequence[int],
        branches: np.ndarray,
        probs: np.ndarray,
        uniform: float,
    ) -> int:
        """Draw the outcome with ``uniform``, then retire and collapse."""
        outcome = _sample_index(probs, uniform)
        self._collapse(register, measured, branches[outcome], float(probs[outcome]))
        return outcome

    # Each *_branches method returns (register, measured qubits, branch
    # amplitudes per outcome, outcome probabilities) and draws nothing.

    def _bell_branches(self, pair: Sequence[int]):
        a, b = pair
        if a == b:
            raise ValueError("cannot Bell-measure a qubit against itself")
        reg = self._joint_register((a, b))
        pa, pb = reg.position(a), reg.position(b)
        if reg.size == 2:
            vec = reg.amplitudes if pa == 0 else reg.amplitudes[[0, 2, 1, 3]]
            return reg, (a, b), np.empty((4, 0)), _bell_probs(BELL_VECTORS.conj() @ vec)
        arr = _to_front(reg, (pa, pb)).reshape(4, -1)
        branches = BELL_VECTORS.conj() @ arr  # (4, 2^(k-2))
        probs = np.einsum("ij,ij->i", branches, branches.conj()).real
        return reg, (a, b), branches, probs

    def _z_branches(self, qubit: int):
        reg = self.register_of(qubit)
        if reg.size == 1:
            return reg, (qubit,), np.empty((2, 0)), np.abs(reg.amplitudes) ** 2
        arr = _to_front(reg, (reg.position(qubit),)).reshape(2, -1)
        probs = np.einsum("ij,ij->i", arr, arr.conj()).real
        return reg, (qubit,), arr, probs

    def _basis_branches(self, qubits: Sequence[int], basis: np.ndarray):
        if len(set(qubits)) != len(qubits):
            raise ValueError("measured qubits must be distinct")
        reg = self._joint_register(qubits)
        m = len(qubits)
        if basis.shape[1] != 2**m:
            raise ValueError("basis row length must be 2^(number of measured qubits)")
        arr = _to_front(reg, [reg.position(q) for q in qubits]).reshape(2**m, -1)
        branches = basis.conj() @ arr
        probs = np.einsum("ij,ij->i", branches, branches.conj()).real
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ValueError("basis does not resolve the state's probability mass")
        return reg, tuple(qubits), branches, probs

    def measure_bell(self, a: int, b: int, rng: np.random.Generator) -> BellOutcome:
        """Projective Bell-basis measurement of qubits (a, b).

        Qubits living in different registers are merged first, so measuring
        across two entangled pairs performs entanglement swapping on the
        partners left behind. Both measured qubits are retired.
        """
        return BellOutcome(self._sampled(*self._bell_branches((a, b)), rng.random()))

    def measure_z(self, qubit: int, rng: np.random.Generator) -> int:
        """Computational-basis measurement; the qubit is retired."""
        return int(self._sampled(*self._z_branches(qubit), rng.random()))

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
        basis = np.asarray(basis, dtype=complex)
        return int(self._sampled(*self._basis_branches(qubits, basis), rng.random()))

    def measure_bell_rows(
        self, pairs: Sequence[Sequence[int]] | np.ndarray, rng: np.random.Generator
    ) -> list[BellOutcome]:
        """``measure_bell`` on each pair in list order, train rows in bulk."""
        outcomes = self._measure_groups(pairs, BELL_VECTORS, _bell_probs, self._bell_branches, rng)
        return [_BELL_OUTCOMES[o] for o in outcomes]

    def measure_rows_in_basis(
        self,
        groups: Sequence[Sequence[int]] | np.ndarray,
        basis: np.ndarray,
        rng: np.random.Generator,
    ) -> list[int]:
        """``measure_in_basis`` on each group in list order, train rows in bulk."""
        basis = np.asarray(basis, dtype=complex)
        return self._measure_groups(
            groups, basis, _basis_probs, lambda group: self._basis_branches(group, basis), rng
        )

    def _measure_groups(
        self,
        groups: Sequence[Sequence[int]] | np.ndarray,
        basis: np.ndarray,
        probs_of: Callable[[np.ndarray], np.ndarray],
        branches_of: Callable,
        rng: np.random.Generator,
    ) -> list[int]:
        """Measure every group in ``basis``, drawing all uniforms up front.

        Group i uses uniform i of ``rng.random(len(groups))``, the value the
        i-th of as many scalar measurements would draw. A group that is one
        whole live train row, in register order, is measured with the other
        rows of its train in one matmul; every other group goes through
        ``branches_of``, the per-register path, in list order.
        """
        if not len(groups):
            return []
        targets = _id_table(groups)
        if _has_repeats(targets):
            raise ValueError("measured qubits must be distinct")
        uniforms = rng.random(len(groups))
        m = targets.shape[1]
        where, rows, positions = self._locate(targets[:, 0])
        widths = np.array([t.width for t in self._trains] + [0])  # index -1 reads the 0
        whole = (
            (widths[where] == m)
            & (positions == 0)
            & (targets == targets[:, :1] + np.arange(m)).all(axis=1)
        )
        outcomes = np.zeros(len(groups), dtype=np.int64)
        if whole.any():
            if basis.shape[1] != 2**m:
                raise ValueError("basis row length must be 2^(number of measured qubits)")
            bras = basis.conj().T
            for t, sel in _members(np.where(whole, where, -1)):
                train = self._trains[t]
                probs = probs_of(train.amplitudes[rows[sel]] @ bras)
                if np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-9):
                    raise ValueError("basis does not resolve the state's probability mass")
                outcomes[sel] = _sample_rows(probs, uniforms[sel])
                train.live[rows[sel]] = False
            self._trains = [t for t in self._trains if t.live.any()]
        for i in np.flatnonzero(~whole).tolist():
            group = targets[i].tolist()
            outcomes[i] = self._sampled(*branches_of(group), float(uniforms[i]))
        return outcomes.tolist()
