"""Exact statevector simulation of small qubit registers.

A :class:`QubitStore` tracks qubits by globally unique ids and keeps each
group of entangled qubits in its own minimal register, so a protocol run
over thousands of Bell pairs never touches more than a handful of
amplitudes at a time. Measured qubits are retired from the store for good.

Every register is one row of a *block*: ``r`` registers of one width ``w``
held as an ``(r, 2^w)`` amplitude array. :meth:`QubitStore.new_train` makes
an r-row block of r identical copies of one resource state and returns its
``(r, w)`` id matrix, the ids that r calls of ``new_bell`` or
``new_four_qubit`` would have allocated; :meth:`QubitStore.new_states`
allocates one block of given rows the same way. One int32 map from qubit id
to block (-1 once measured) locates every qubit. A block made by allocation
lists nothing: its row and position of an id are ``divmod(id - first, w)``,
so an honest run keeps no per-id table beyond that map. Every other block,
made by a merge or left behind by a measurement, is *listed*: it keeps an
``(r, w)`` id table, may hold many rows, and writes each of its ids' slot
``row*w + position`` to a second int32 map, made when the first listed
block is. Written for every block, that map cost a five-party run of
65,536 key bits 11-18 MB of peak memory (208 -> 220-226 MB).

A Pauli letter maps each basis ket to one ket times a sign, so every Pauli
is one index permutation and sign per (block, position), applied to all the
rows it hits in a pass of at most ``_ROWS_PER_PASS`` groups. Bad input is
refused before anything changes, each rule in one home: groups of distinct
live ids (``_checked_groups``), states (``_checked_states``) and real,
square, orthonormal bases (``_checked_basis``), which resolve every state.
The states and bases the package builds itself (``BELL_VECTORS``,
``Z_BASIS`` and the protocols' resource states and decode bases) are
checked once, by ``constant_state`` and ``constant_basis``, and taken as
they are afterwards. Measurement has one bulk entry,
``measure_rows_in_basis``, and three routines; ``measure_z`` and
``measure_in_basis`` measure one group through it.

* One kernel measures groups in bulk, each with its own uniform. Groups
  that are whole rows, in register order, of allocated blocks go through
  it whatever blocks they lie in: one matmul per pass, then one inverse-CDF
  draw per row. Groups of one qubit go through it in waves. A wave takes
  the first qubit still waiting in each register, in list order, so a
  register named more than once waits a wave per qubit; the wave's qubits
  in registers of one width are measured with one gather and one matmul,
  leaving their remainders as one multi-row listed block. Intercept-resend
  in the Z basis measures a whole train this way.
* The general routine, ``_measure``, measures one group. It merges the
  rows it touches (a Kronecker product in first-seen order, capped at 12
  qubits; anything larger fails loudly), built with the measured qubits in
  front from one cached gather per row, samples one outcome and stores
  what remains as a one-row listed block. Measuring across two entangled
  pairs this way is what performs entanglement swapping. It serves the
  scalar ``measure_bell`` and the groups below the cutovers that follow.
* Groups that cross registers go through a wave kernel with the same
  arithmetic. A wave takes every waiting group that names no register an
  earlier waiting group names, so groups sharing a register keep their
  list order, and buckets the wave by the widths of the rows each group
  merges and where its measured qubits sit in the merge. A bucket gets one
  product of cached gathers, one batched matmul, one draw and one listed
  remainder block. Below ``_BULK_GROUPS`` (32) waiting groups, or
  ``_BULK_BUCKET`` (8) groups in a bucket, one ``_measure`` each is
  cheaper: a wave and a bucket cost about as much as eight to ten such
  calls, and halving or doubling both cutovers moved the attack benchmark
  by under 1%.
  On that benchmark a two-party stack measures 512 and 128 such groups
  per call under intercept-resend in Z (one wave, one bucket), 389 and 204
  under intercept-resend in the Bell basis (two waves, 17 buckets in all),
  256 and 224 under a reordering receiver, and 953 in seven waves and 19
  buckets for an early-measuring sender's guessed pairings.

Every amplitude is float64: the resource states and the letter matrices of
:mod:`qka.pauli` are real, so every reachable state is, a bra is its ket and
a probability is an amplitude squared. Input with a nonzero imaginary part
is refused with ``ValueError`` before anything is drawn.

Bit-ordering convention, used everywhere: the first qubit listed in a
register is the most significant bit of the basis index. Bell states follow
|psi+-> = (|00> +- |11>)/sqrt(2) and |phi+-> = (|01> +- |10>)/sqrt(2).

Randomness is never ambient: every sampling operation takes a numpy
Generator, or the uniforms one drew, and identical seeds reproduce identical
outcome sequences and final stores. Every measurement uses exactly one
uniform; a vector measurement of m groups draws ``rng.random(m)``, which
yields the same values as m scalar draws, so bulk and one-by-one
measurement give the same outcomes. Bulk measurements return int64 index
arrays: a Bell outcome is its ``BellOutcome`` index.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .pauli import GroupElement

NORM_TOL = 1e-10
MAX_REGISTER_QUBITS = 12

# The bulk ops work through at most this many groups, and so rows, at a time,
# so a call over a whole large train keeps its temporaries small.
_ROWS_PER_PASS = 4096
# Groups that cross registers are measured in bulk only while this many
# wait, and only in buckets of at least this many; below either count one
# ``_measure`` each is cheaper.
_BULK_GROUPS = 32
_BULK_BUCKET = 8

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
        return BELL_LABELS[self]

    @property
    def x_bit(self) -> int:
        """1 iff the state carries a bit flip (phi family)."""
        return int(self) >> 1

    @property
    def z_bit(self) -> int:
        """1 iff the state carries a phase flip (minus sign)."""
        return int(self) & 1


_BELL_OUTCOMES = tuple(BellOutcome)  # by index, faster than BellOutcome(i)
# Each outcome's label and x bit, by index: a bulk measurement's rows are read through them.
BELL_LABELS = np.array(["psi+", "psi-", "phi+", "phi-"], dtype=object)
BELL_X_BITS = np.array([o.x_bit for o in BellOutcome], dtype=np.uint8)


class FourQubitState(Enum):
    OMEGA = "omega"
    CLUSTER = "cluster"


def four_qubit_vector(which: FourQubitState) -> np.ndarray:
    """Amplitudes of the named 4-qubit resource state, ±1/2 on four kets.

    ``which`` may be a state's name; anything else raises ValueError.
    """
    vec = np.zeros(16)
    if FourQubitState(which) is FourQubitState.OMEGA:
        terms = {0b0000: 0.5, 0b0110: 0.5, 0b1001: 0.5, 0b1111: -0.5}
    else:
        terms = {0b0000: 0.5, 0b0011: 0.5, 0b1100: 0.5, 0b1111: -0.5}
    for idx, amp in terms.items():
        vec[idx] = amp
    return vec


@dataclass
class StateRegister:
    """Ordered qubits plus their joint real amplitude vector (first qubit = MSB).

    The constructor checks distinct qubits and, by the state rule
    (``_checked_states``), the amplitudes, and stores them as float64: it is
    where a state enters from outside. Registers the store hands out skip it.
    """

    qubits: tuple[int, ...]
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.qubits = tuple(self.qubits)
        k = len(self.qubits)
        if len(set(self.qubits)) != k:
            raise ValueError("duplicate qubit in register")
        (self.amplitudes,) = _checked_states(np.reshape(self.amplitudes, (1, -1)))
        if self.amplitudes.size != 2**k:
            raise ValueError(f"{self.amplitudes.size} amplitudes given for {k} qubits")

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
    """Outside amplitudes or basis rows as float64.

    A nonzero imaginary part is refused, and so is a NaN or an infinity,
    which no later norm, orthonormality or mass check would catch.
    """
    values = np.asarray(values)
    if np.iscomplexobj(values):
        if np.any(values.imag):
            raise ValueError("amplitudes and basis rows must be real")
        values = values.real
    values = values.astype(np.float64, copy=False)
    if not np.isfinite(values).all():
        raise ValueError("amplitudes and basis rows must be finite")
    return values


def _checked_states(states) -> np.ndarray:
    """Outside states as float64 rows; the one home of the state rule.

    ``states`` must be an (r, 2^k) array of real, finite amplitudes, where
    k runs from 1 to ``MAX_REGISTER_QUBITS``, and every row must have norm 1
    within ``NORM_TOL``. Rows already float64 are returned as they are.
    """
    rows = _real(states)
    dim = rows.shape[-1] if rows.ndim == 2 else 0
    width = dim.bit_length() - 1
    if dim != 2**width or not 1 <= width <= MAX_REGISTER_QUBITS:
        raise ValueError(f"states of shape {rows.shape} are not rows of 2^k amplitudes")
    if (np.abs(np.add.reduce(np.square(rows), 1) - 1.0) > NORM_TOL).any():
        raise ValueError("every state's norm^2 must be 1")
    return rows


def _checked_basis(basis) -> np.ndarray:
    """Outside basis rows as float64; the one home of the basis rule.

    A basis must be real, finite, square and orthonormal within ``NORM_TOL``:
    then it resolves every state, and a register's mass under it is its norm.
    A constant basis (``constant_basis``) passed the rule once and is returned as it is.
    """
    if _CONSTANT_BASES.get(id(basis)) is basis:
        return basis
    basis = _real(basis)
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
        raise ValueError(f"a basis of shape {basis.shape} is not square: it does not resolve")
    gram = basis @ basis.T
    gram.ravel()[:: len(basis) + 1] -= 1.0  # minus the identity, in place
    if np.add.reduce(np.abs(gram, out=gram), axis=1).max() > NORM_TOL:
        raise ValueError("basis rows are not orthonormal: the basis does not resolve")
    return basis


# The states and bases the package builds itself, by id. Each was checked
# once, when it became a read-only constant, and the store takes it as it is;
# every other state or basis is checked on each call. The dicts keep the
# arrays alive, so no listed id is reused.
_CONSTANT_STATES: dict[int, np.ndarray] = {}
_CONSTANT_BASES: dict[int, np.ndarray] = {}


def _constant(values: np.ndarray, table: dict[int, np.ndarray]) -> np.ndarray:
    values = values.copy()
    values.flags.writeable = False
    table[id(values)] = values
    return values


def constant_state(vector) -> np.ndarray:
    """``vector`` checked once as a state, as a read-only constant the store takes unchecked."""
    return _constant(_checked_states(np.reshape(vector, (1, -1)))[0], _CONSTANT_STATES)


def constant_basis(basis) -> np.ndarray:
    """``basis`` checked once by the basis rule, as a read-only constant the store takes unchecked."""
    return _constant(_checked_basis(basis), _CONSTANT_BASES)


# Rows indexed by BellOutcome; columns over |00>, |01>, |10>, |11>.
BELL_VECTORS = constant_basis(
    [
        [_INV_SQRT2, 0.0, 0.0, _INV_SQRT2],
        [_INV_SQRT2, 0.0, 0.0, -_INV_SQRT2],
        [0.0, _INV_SQRT2, _INV_SQRT2, 0.0],
        [0.0, _INV_SQRT2, -_INV_SQRT2, 0.0],
    ]
)
# The computational basis; row b is also the state |b>.
Z_BASIS = constant_basis(np.eye(2))


def _sample_index(probs: np.ndarray, uniform: float, total: float | None = None) -> int:
    """Born-rule draw from one uniform in [0, 1); zero-probability outcomes are never selected.

    ``total`` is ``float(probs.sum())``, passed by a caller that has it already.
    The one-group routine draws this way: on one row, ``_sample_rows`` costs
    several times as much, in numpy's per-call overhead.
    """
    if total is None:
        total = float(probs.sum())
    u = uniform * total
    acc = 0.0
    last = 0
    for i, p in enumerate(probs.tolist()):
        if p <= 0.0:
            continue
        acc += p
        last = i
        if u < acc:
            return i
    return last  # float roundoff pushed u past the final bin


def _sample_rows(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """``_sample_index`` on every row of ``probs``, each with its own uniform.

    The running sum only grows at nonzero bins, so the first bin whose
    running sum exceeds the target is a nonzero one, as in the scalar loop.
    """
    targets = uniforms * np.add.reduce(probs, 1)
    outcomes = np.add.reduce(probs.cumsum(axis=1) <= targets[:, None], 1)
    over = outcomes == probs.shape[1]
    if over.any():
        for i in np.flatnonzero(over).tolist():
            nonzero = np.flatnonzero(probs[i] > 0.0)
            outcomes[i] = nonzero[-1] if nonzero.size else 0  # roundoff: last nonzero bin
    return outcomes


def _check_mass(probs: np.ndarray) -> None:
    """ValueError unless every row of ``probs`` sums to 1.

    Every basis the store measures in is complete, so a row whose mass is
    not 1 means the store's own state is corrupt.
    """
    if (np.abs(np.add.reduce(probs, 1) - 1.0) > 1e-9).any():
        raise ValueError("a register's probability mass deviates from 1")


def _check_cap(qubits: int) -> None:
    """RegisterCapacityError for a merge of more than ``MAX_REGISTER_QUBITS`` qubits."""
    if qubits > MAX_REGISTER_QUBITS:
        raise RegisterCapacityError(
            f"merge of {qubits} qubits exceeds the {MAX_REGISTER_QUBITS}-qubit cap"
        )


def _members(labels: np.ndarray):
    """(label, indices holding it) for each distinct label, in label order.

    The labels are ints, or the rows of a 2-D array, each yielded as a list.
    """
    if not len(labels):
        return
    if (labels == labels[0]).all():  # the common case: one block, or one position
        yield labels[0].tolist(), np.arange(len(labels))
        return
    if labels.ndim == 1:
        order = np.argsort(labels, kind="stable")
        ranked = labels[order]
        starts = ranked[1:] != ranked[:-1]
    else:
        order = np.lexsort(labels.T[::-1])  # stable, like the argsort
        ranked = labels[order]
        starts = (ranked[1:] != ranked[:-1]).any(axis=1)
    bounds = [0, *(np.flatnonzero(starts) + 1).tolist(), len(labels)]
    for lo, hi in zip(bounds, bounds[1:]):
        yield ranked[lo].tolist(), order[lo:hi]


def _ranks(keys: np.ndarray) -> np.ndarray:
    """Each entry's rank among the entries of ``keys`` equal to it: how many come before it."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    ordinal = np.arange(keys.size)
    starts = np.ones(keys.size, dtype=bool)
    starts[1:] = ranked[1:] != ranked[:-1]
    ranks = np.empty(keys.size, dtype=np.int64)
    ranks[order] = ordinal - np.maximum.accumulate(np.where(starts, ordinal, 0))
    return ranks


def _given_uniforms(uniforms, count: int, what: str) -> np.ndarray:
    """Given uniforms as float64, one in [0, 1) for each of ``count`` ``what``."""
    uniforms = np.asarray(uniforms, dtype=np.float64)
    if uniforms.shape != (count,):
        raise ValueError(f"{uniforms.size} uniforms given for {count} {what}")
    if not ((uniforms >= 0.0) & (uniforms < 1.0)).all():
        raise ValueError("uniforms must lie in [0, 1)")
    return uniforms


def _check_arity(element: "GroupElement", targets: int) -> None:
    """The one home of the arity rule: a word acts on one target per letter."""
    if element.arity != targets:
        raise ValueError(f"element arity {element.arity} does not match {targets} targets")


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
    _check_arity(element, len(targets))
    amplitudes = register.amplitudes.copy()
    for letter, qubit in zip(element.letters, targets):
        action = _letter_action(letter, register.size, register.position(qubit))
        if action is not None:
            perm, sign = action
            amplitudes = amplitudes[perm] if sign is None else amplitudes[perm] * sign
    return StateRegister._trusted(register.qubits, amplitudes)


@lru_cache(maxsize=256)
def _front_gather(width: int, front: tuple[int, ...]) -> tuple[np.ndarray, tuple[int, ...]]:
    """The gather that moves ``front`` to the most significant bits of a ``width``-qubit row.

    ``row[gather]`` lists the row with the qubits at ``front`` first, in that
    order, and the others after them in row order; returns the gather and
    those other positions.
    """
    rest = tuple(p for p in range(width) if p not in front)
    gather = np.arange(2**width).reshape((2,) * width).transpose(front + rest).reshape(-1)
    gather.flags.writeable = False  # shared through the cache
    return gather, rest


@lru_cache(maxsize=256)
def _merge_gathers(
    widths: tuple[int, ...], front: tuple[int, ...]
) -> tuple[tuple[np.ndarray, ...], tuple[int, ...]]:
    """``_front_gather`` of the Kronecker product of rows of ``widths``, in order.

    Returns one gather per row, such that the product of ``row_i[gather_i]``,
    left to right, is the merged register with the qubits at ``front``
    moved first, and the positions ``_front_gather`` leaves.
    """
    gather, rest = _front_gather(sum(widths), front)
    below = np.cumsum((0,) + widths[:0:-1])[::-1]  # merged bits below each row
    gathers = tuple((gather >> int(s)) & ((1 << w) - 1) for s, w in zip(below, widths))
    for g in gathers:
        g.flags.writeable = False  # shared through the cache
    return gathers, rest


@lru_cache(maxsize=None)
def _single_fronts(width: int) -> tuple[np.ndarray, np.ndarray]:
    """``_front_gather`` of each single position of a ``width``-qubit row.

    Returns the gathers as a (width, 2^width) array, and the positions each
    leaves as a (width, width - 1) array.
    """
    fronts = [_front_gather(width, (p,)) for p in range(width)]
    gathers = np.array([gather for gather, _ in fronts])
    rests = np.array([rest for _, rest in fronts], dtype=np.int64).reshape(width, width - 1)
    gathers.flags.writeable = rests.flags.writeable = False  # shared through the cache
    return gathers, rests


class _Block:
    """``live`` registers of one ``width``, one row each of ``amplitudes``.

    A block made by allocation (``ids`` None) holds the ids ``first +
    r*width`` onward in row r. Any other block is *listed*: ``ids`` is its
    (rows, width) id table, and the store's slot map gives each of its ids'
    flat index ``row*width + position`` there. ``views`` caches the
    register ``register_of`` hands out, by row.
    """

    __slots__ = ("first", "width", "ids", "amplitudes", "live", "views")

    def __init__(self, amplitudes: np.ndarray, width: int, first: int = -1, ids=None):
        self.amplitudes = amplitudes
        self.width = width
        self.first = first
        self.ids = ids
        self.live = len(amplitudes)
        self.views: dict[int, StateRegister] = {}

    def row_ids(self, row: int) -> tuple[int, ...]:
        if self.ids is not None:
            return tuple(self.ids[row].tolist())
        start = self.first + row * self.width
        return tuple(range(start, start + self.width))

    def id_table(self, rows: np.ndarray) -> np.ndarray:
        """The (len(rows), width) ids of ``rows``."""
        if self.ids is not None:
            return self.ids[rows]
        return (self.first + rows * self.width)[:, None] + np.arange(self.width)


def _grown(values: np.ndarray, size: int) -> np.ndarray:
    """``values`` at the front of a new array of ``size`` entries; the rest is unset."""
    grown = np.empty(size, dtype=values.dtype)
    grown[: values.size] = values
    return grown


class QubitStore:
    """Registry of live qubits; owns allocation, Pauli action and measurement.

    Confined to one protocol run: ids are never reused, and a measured qubit
    disappears permanently.
    """

    def __init__(self):
        self._blocks: list[_Block | None] = []  # spent blocks become None
        self._block_of = np.empty(0, dtype=np.int32)  # id -> block index, -1 once measured
        self._slot_of: np.ndarray | None = None  # id -> row*width + position, listed ids only
        self._next_id = 0

    # -- allocation ----------------------------------------------------

    def _new_block(self, amplitudes: np.ndarray, width: int) -> int:
        """Store fresh rows of ``width`` qubits under the next ids; return the first."""
        first, count = self._next_id, len(amplitudes) * width
        end = first + count
        if end > self._block_of.size:
            size = max(end, self._block_of.size * 5 // 4 + 64)
            self._block_of = _grown(self._block_of[:first], size)
            if self._slot_of is not None:
                self._slot_of = _grown(self._slot_of[:first], size)
        self._block_of[first:end] = len(self._blocks)
        self._blocks.append(_Block(amplitudes, width, first))
        self._next_id = end
        return first

    def _add_listed(self, amplitudes: np.ndarray, ids: np.ndarray, flat=None) -> None:
        """Store rows over the ids of an (rows, width) table as one listed block.

        ``flat`` may give the table's ids as a list, row after row, when the
        caller already holds one: a short remainder writes its few map
        entries one by one, cheaper than two fancy-index writes.
        """
        index = len(self._blocks)
        self._blocks.append(_Block(amplitudes, ids.shape[1], ids=ids))
        if self._slot_of is None:
            self._slot_of = np.empty(self._block_of.size, dtype=np.int32)
        if flat is None:
            self._block_of[ids] = index
            self._slot_of[ids] = np.arange(ids.size).reshape(ids.shape)
        else:
            block_of, slot_of = self._block_of, self._slot_of
            for slot, q in enumerate(flat):
                block_of[q] = index
                slot_of[q] = slot

    def new_bell(self, kind: BellOutcome) -> tuple[int, int]:
        """Allocate a fresh pair prepared in the named Bell state; ValueError for no Bell state."""
        kind = BellOutcome(kind)  # before the slice below: an index past the rows slices nothing
        first = self._new_block(BELL_VECTORS[kind : kind + 1].copy(), 2)
        return first, first + 1

    def new_four_qubit(self, which: FourQubitState) -> tuple[int, int, int, int]:
        """Allocate four fresh qubits in the named 4-qubit resource state."""
        first = self._new_block(four_qubit_vector(which).reshape(1, -1), 4)
        return first, first + 1, first + 2, first + 3

    def new_computational(self, bit: int) -> int:
        """Allocate one fresh qubit in |0> or |1>; ValueError for a bit other than 0 or 1."""
        if bit not in (0, 1):
            raise ValueError(f"a computational-basis qubit holds bit 0 or 1, not {bit!r}")
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
        if _CONSTANT_STATES.get(id(vector)) is vector:  # checked when it became a constant
            template = vector[None]
        else:
            template = _checked_states(np.reshape(vector, (1, -1)))
        return self._new_rows(np.repeat(template, count, axis=0))

    def new_states(self, states: np.ndarray) -> np.ndarray:
        """Allocate one register per row of ``states``, an (r, 2^k) array, as one block.

        Every row is checked by the state rule (``_checked_states``). Returns
        the (r, k) int64 id matrix: row i holds the ids the i-th of r
        one-register allocations would have returned.
        """
        return self._new_rows(_checked_states(states).copy())

    def _new_rows(self, rows: np.ndarray) -> np.ndarray:
        """Store checked (r, 2^k) rows as one allocated block; return their id matrix."""
        width = rows.shape[1].bit_length() - 1
        first = self._new_block(rows, width) if len(rows) else self._next_id
        return np.arange(first, first + len(rows) * width, dtype=np.int64).reshape(-1, width)

    # -- introspection ---------------------------------------------------

    def _indices(self, ids: np.ndarray) -> np.ndarray:
        """The block holding each id of an int64 array; UnknownQubitError for the first unknown."""
        if ids.size and (ids.min() < 0 or ids.max() >= self._next_id):
            raise UnknownQubitError(int(ids[(ids < 0) | (ids >= self._next_id)][0]))
        where = self._block_of[ids]
        if ids.size and where.min() < 0:
            raise UnknownQubitError(int(ids[where < 0][0]))
        return where

    def _checked_groups(self, groups: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
        """``groups`` as one (groups, size) int64 id array; the one home of the group rule.

        The groups must be nonempty, of one size, and name distinct live
        qubits. A 2-D integer array is taken as it is. The ids are looked up
        ``_ROWS_PER_PASS`` groups at a time, so that gather stays small.
        """
        if isinstance(groups, np.ndarray) and groups.ndim == 2 and groups.dtype.kind in "iu":
            targets = groups.astype(np.int64, copy=False)
        else:
            sizes = set(map(len, groups))
            if len(sizes) != 1:
                raise ValueError("every group must hold the same number of qubits")
            (size,) = sizes
            flat = itertools.chain.from_iterable(groups)
            targets = np.fromiter(flat, dtype=np.int64, count=len(groups) * size)
            targets = targets.reshape(len(groups), size)
        if not targets.shape[1]:
            raise ValueError("a group must name at least one qubit")
        ordered = np.sort(targets, axis=None)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("groups must name distinct qubits")
        for lo in range(0, len(targets), _ROWS_PER_PASS):
            self._indices(targets[lo : lo + _ROWS_PER_PASS])
        return targets

    def _row_of(self, qubit: int, block: _Block) -> int:
        """The row of ``block`` holding ``qubit``."""
        slot = qubit - block.first if block.ids is None else int(self._slot_of[qubit])
        return slot // block.width

    def _locate(self, ids: np.ndarray, block: _Block) -> tuple[np.ndarray, np.ndarray]:
        """Row and position of each id in ``block``, as int64."""
        slots = ids - block.first if block.ids is None else self._slot_of[ids].astype(np.int64)
        return np.divmod(slots, block.width)

    def _retire(self, b: int, rows: int) -> None:
        """Drop ``rows`` of block ``b`` from the count of live ones."""
        block = self._blocks[b]
        block.live -= rows
        if not block.live:
            self._blocks[b] = None

    def live_qubits(self) -> list[int]:
        return np.flatnonzero(self._block_of[: self._next_id] >= 0).tolist()

    def register_of(self, qubit: int) -> StateRegister:
        """The register holding ``qubit``: a view of its row, one object per register."""
        (b,) = self._indices(np.asarray([qubit]))
        block = self._blocks[b]
        row = self._row_of(qubit, block)
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

        The groups (``_checked_groups``) and the arity are checked before any
        amplitude changes. Then, for at most ``_ROWS_PER_PASS`` groups at a
        time, the qubits each letter hits change by one index permutation and
        sign per (block, position).
        """
        if not len(groups):
            return
        targets = self._checked_groups(groups)
        _check_arity(element, targets.shape[1])
        where = self._block_of[targets]
        for lo in range(0, len(targets), _ROWS_PER_PASS):
            for j, letter in enumerate(element.letters):
                ids = targets[lo : lo + _ROWS_PER_PASS, j]
                for b, sel in _members(where[lo : lo + _ROWS_PER_PASS, j]):
                    block = self._blocks[b]
                    rows, positions = self._locate(ids[sel], block)
                    for pos, at_pos in _members(positions):
                        action = _letter_action(letter, block.width, pos)
                        if action is None:
                            continue
                        perm, sign = action
                        chosen = rows[at_pos]
                        moved = block.amplitudes[np.ix_(chosen, perm)]
                        block.amplitudes[chosen] = moved if sign is None else moved * sign

    # -- measurement -----------------------------------------------------

    def _measure(self, qubits: list[int], basis: np.ndarray, draw) -> int:
        """Measure distinct live ``qubits``, checked by the caller, in the rows of ``basis``.

        The rows holding the qubits merge in first-seen order, built with the
        measured qubits in front from one cached gather per row (the products
        of the Kronecker product, in its order). Once the group is known
        to be measurable, ``draw()`` gives the uniform that picks the outcome;
        the measured qubits retire, and what remains of the merged register,
        renormalized, becomes a one-row listed block.
        """
        blocks, block_of = self._blocks, self._block_of
        touched: list[tuple[int, int]] = []  # (block index, row), first seen first
        widths: list[int] = []
        order: list[int] = []  # the merged register's qubits
        for q in qubits:
            b = int(block_of[q])
            block = blocks[b]
            row = self._row_of(q, block)
            if (b, row) not in touched:
                touched.append((b, row))
                widths.append(block.width)
                order.extend(block.row_ids(row))
        _check_cap(len(order))
        gathers, rest = _merge_gathers(tuple(widths), tuple(map(order.index, qubits)))
        (b, row), *others = touched
        amps = blocks[b].amplitudes[row][gathers[0]]
        for (b, row), gather in zip(others, gathers[1:]):  # the kron, measured qubits first
            amps = amps * blocks[b].amplitudes[row][gather]
        branches = basis @ amps.reshape(len(basis), -1)
        probs = np.add.reduce(np.square(branches), 1)
        total = float(np.add.reduce(probs))
        if abs(total - 1.0) > 1e-9:  # a complete basis: the state is at fault
            raise ValueError("the merged register's probability mass deviates from 1")
        outcome = _sample_index(probs, draw(), total)
        for q in qubits:
            block_of[q] = -1
        for b, _ in touched:
            self._retire(b, 1)
        if rest:
            post = branches[outcome : outcome + 1] / math.sqrt(probs[outcome])
            kept = [order[p] for p in rest]
            self._add_listed(post, np.array([kept], dtype=np.int64), kept)
        return outcome

    def measure_bell(self, a: int, b: int, rng: np.random.Generator) -> BellOutcome:
        """Projective Bell-basis measurement of qubits (a, b).

        Qubits living in different registers are merged first, so measuring
        across two entangled pairs performs entanglement swapping on the
        partners left behind. Both measured qubits are retired. The pair is
        checked here, in Python: through ``_checked_groups`` a one-pair check
        costs several numpy calls, and intercept-bell measures one pair per hit.
        """
        if a == b:
            raise ValueError("cannot Bell-measure a qubit against itself")
        for q in (a, b):
            if not (0 <= q < self._next_id and self._block_of[q] >= 0):
                raise UnknownQubitError(q)
        return _BELL_OUTCOMES[self._measure([a, b], BELL_VECTORS, rng.random)]

    def measure_z(self, qubit: int, rng: np.random.Generator) -> int:
        """Computational-basis measurement; the qubit is retired."""
        return int(self.measure_rows_in_basis([[qubit]], Z_BASIS, rng)[0])

    def measure_in_basis(
        self,
        qubits: Sequence[int],
        basis: np.ndarray,
        rng: np.random.Generator,
    ) -> int:
        """``measure_rows_in_basis`` of the one group ``qubits``; the row index as an int."""
        return int(self.measure_rows_in_basis([qubits], basis, rng)[0])

    def measure_rows_in_basis(
        self,
        groups: Sequence[Sequence[int]] | np.ndarray,
        basis: np.ndarray,
        rng: np.random.Generator | np.ndarray,
    ) -> np.ndarray:
        """Measure each group of m qubits, in list order, in the bra rows of ``basis``.

        ``basis`` is a (2^m, 2^m) orthonormal array over each group's qubit
        order. ``rng`` is a Generator, or the uniforms it would draw (see
        ``_measure_groups``). Returns each group's basis row index as an
        int64 array.
        """
        return self._measure_groups(groups, _checked_basis(basis), rng)

    def _places(self, ids: np.ndarray, chosen: np.ndarray) -> list:
        """(block, indices, rows, positions) for each block holding some ``ids[chosen]``.

        The indices are the entries of ``chosen`` whose ids lie in the block.
        """
        picked = ids[chosen]
        places = []
        for b, sel in _members(self._block_of[picked]):
            rows, positions = self._locate(picked[sel], self._blocks[b])
            places.append((b, chosen[sel], rows, positions))
        return places

    def _measure_rows(
        self, parts: list, width: int, basis: np.ndarray, uniforms: np.ndarray
    ) -> np.ndarray:
        """Measure one group in each of distinct ``width``-qubit rows, one uniform each.

        ``parts`` holds (block, indices, rows, positions) for each block: the
        group in row ``rows[i]`` is the whole row, in register order, when
        ``positions`` is None, and else the one qubit at ``positions[i]``. A
        run of consecutive ascending whole rows is read in place, as a decode
        reads its copies, and its ids retire as one slice of the id map;
        other whole rows are gathered, and one matmul scores them all. A
        one-qubit group's row is laid out as its two branches by one gather,
        the rest of the row in row order; one matmul applies the basis, and
        the remainders become one listed block. Since every basis is
        complete, a row whose mass is not 1 means the store's own state is
        corrupt; that raises ValueError before anything changes. Returns the
        outcomes in part order.
        """
        blocks, whole = self._blocks, parts[0][3] is None
        if whole:
            amps, dead = [], []  # each part's amplitudes and ids
            for b, _, rows, _ in parts:
                block, first, span = blocks[b], int(rows[0]), int(rows[-1]) - int(rows[0]) + 1
                in_place = span == rows.size and (rows[1:] > rows[:-1]).all()
                amps.append(block.amplitudes[slice(first, first + span) if in_place else rows])
                at = block.first + first * width
                dead.append(slice(at, at + span * width) if in_place else block.id_table(rows))
            probs = np.square((amps[0] if len(amps) == 1 else np.concatenate(amps)) @ basis.T)
        else:
            table = np.concatenate([blocks[b].id_table(rows) for b, _, rows, _ in parts])
            positions = np.concatenate([positions for _, _, _, positions in parts])
            picked = np.arange(positions.size)
            gathers, rests = _single_fronts(width)
            front = gathers[positions].reshape(picked.size, 2, -1).transpose(1, 0, 2)
            amps = np.concatenate([blocks[b].amplitudes[rows] for b, _, rows, _ in parts])
            laid = amps[picked[None, :, None], front]
            branches = (basis @ laid.reshape(2, -1)).reshape(2, picked.size, -1)
            probs = np.add.reduce(np.square(branches), 2).T
        _check_mass(probs)
        outcomes = _sample_rows(probs, uniforms)
        for ids in dead if whole else [table[picked, positions]]:
            self._block_of[ids] = -1
        for b, _, rows, _ in parts:
            self._retire(b, rows.size)
        if not whole and width > 1:
            post = branches[outcomes, picked] / np.sqrt(probs[picked, outcomes])[:, None]
            self._add_listed(post, table[picked[:, None], rests[positions]])
        return outcomes

    def _measure_groups(
        self,
        groups: Sequence[Sequence[int]] | np.ndarray,
        basis: np.ndarray,
        rng: np.random.Generator | np.ndarray,
    ) -> np.ndarray:
        """Measure every group in ``basis``, drawing all uniforms at once.

        The groups (``_checked_groups``) and that the basis fits their size
        are checked before the one draw of ``rng.random(len(groups))``; group
        i uses uniform i, the value the i-th of as many scalar measurements
        would draw. ``rng`` may instead be those uniforms, one in [0, 1) per group,
        checked after the ids; a caller that stacks runs, each with its own
        generator, draws each run's share itself. Then ``_measure_rows``
        measures, pass by pass, the groups that are whole rows of an
        allocated block, in register order, across blocks. Groups of one
        qubit go through it next in waves: wave k takes the k-th qubit named
        in each register, and its qubits in registers of one width are
        measured together. Every other group goes through
        ``_measure_crossing``: waves of groups on disjoint registers, each
        wave bucketed by the shape of its merges, with ``_measure`` for the
        groups below its cutovers. The only refusal left after the draw is
        the 12-qubit cap, should such a merge outgrow it; no engine reaches
        it, as ``check_adversary`` refuses five-party intercept-bell. It is
        checked for a whole wave before the wave measures, so when it fires
        the groups already measured are the earlier waves', which need not
        be a prefix of the list. Returns the outcome indices as an int64
        array.
        """
        if not len(groups):
            return np.empty(0, dtype=np.int64)
        targets = self._checked_groups(groups)
        m = targets.shape[1]
        if basis.shape[1] != 2**m:
            raise ValueError("basis row length must be 2^(number of measured qubits)")
        if isinstance(rng, np.random.Generator):
            uniforms = rng.random(len(targets))
        else:
            uniforms = _given_uniforms(rng, len(targets), "groups")
        outcomes = np.empty(len(groups), dtype=np.int64)
        left = np.ones(len(groups), dtype=bool)
        for lo in range(0, len(targets), _ROWS_PER_PASS):
            # A group is a whole row if it lists, in register order, every
            # qubit of one row of a block made by allocation.
            chunk = targets[lo : lo + _ROWS_PER_PASS]
            firsts = chunk[:, 0]
            consecutive = (chunk[:, 1:] == chunk[:, :-1] + 1).all(axis=1)
            parts = []
            for b, sel in _members(self._block_of[firsts]):
                block = self._blocks[b]
                if block.ids is not None or block.width != m:
                    continue
                rows, positions = np.divmod(firsts[sel] - block.first, m)
                whole = (positions == 0) & consecutive[sel]
                if not whole.all():
                    sel, rows = sel[whole], rows[whole]
                if sel.size:
                    parts.append((b, sel + lo, rows, None))
            if parts:
                at = np.concatenate([sel for _, sel, _, _ in parts])
                outcomes[at] = self._measure_rows(parts, m, basis, uniforms[at])
                left[at] = False
        rest = np.flatnonzero(left)
        if m == 1 and rest.size:
            ids = targets[:, 0]
            places = self._places(ids, rest)
            # Wave k takes the k-th qubit named in each register, in list order.
            key = np.concatenate([(b << 32) | rows for b, _, rows, _ in places])
            at = np.concatenate([chosen for _, chosen, _, _ in places])
            wave = np.full(ids.size, -1)
            wave[at] = _ranks(key)
            last = int(wave.max())
            if last:  # the first wave keeps each register's first qubit
                places = [
                    (b, chosen[first], rows[first], positions[first])
                    for b, chosen, rows, positions in places
                    for first in [wave[chosen] == 0]
                ]
            for k in range(last + 1):
                if k:
                    places = self._places(ids, np.flatnonzero(wave == k))
                by_width: dict[int, list] = {}
                for place in places:
                    by_width.setdefault(self._blocks[place[0]].width, []).append(place)
                for width, parts in by_width.items():
                    at = np.concatenate([chosen for _, chosen, _, _ in parts])
                    outcomes[at] = self._measure_rows(parts, width, basis, uniforms[at])
            return outcomes
        if rest.size:
            self._measure_crossing(targets, rest, basis, uniforms, outcomes)
        return outcomes

    def _measure_crossing(
        self,
        targets: np.ndarray,
        pending: np.ndarray,
        basis: np.ndarray,
        uniforms: np.ndarray,
        outcomes: np.ndarray,
    ) -> None:
        """Measure the groups ``targets[pending]``, in list order, into ``outcomes``.

        While at least ``_BULK_GROUPS`` groups wait, they go in waves. A wave
        takes every waiting group that names no register named by an earlier
        waiting group, so groups that share a register keep their list
        order, and the wave's groups touch disjoint registers. It buckets
        them by the widths of the rows they merge and where the measured
        qubits sit in the merge; a bucket of at least ``_BULK_BUCKET`` groups
        is measured by ``_measure_bucket``, and the others go one by one.
        Whatever still waits then goes one by one through ``_measure``. Every
        group uses its own uniform, so the outcomes are those of
        ``_measure`` in list order.
        """
        m = targets.shape[1]
        while pending.size and pending.size >= _BULK_GROUPS:
            ids = targets[pending]
            where = self._block_of[ids].astype(np.int64)
            present, inverse = np.unique(where, return_inverse=True)
            blocks = [self._blocks[b] for b in present.tolist()]
            inverse = inverse.reshape(where.shape)
            width = np.array([block.width for block in blocks])[inverse]
            slots = ids - np.array([block.first for block in blocks])[inverse]
            listed = np.array([block.ids is not None for block in blocks])[inverse]
            if listed.any():
                slots[listed] = self._slot_of[ids[listed]]
            rows, positions = np.divmod(slots, width)
            register = (where << 32) | rows
            # Each group's first name in each of its registers; a group joins
            # the wave if it is the first waiting group to name every one.
            opener = (register[:, :, None] == register[:, None, :]).argmax(axis=2)
            opens = opener == np.arange(m)
            taken = np.ones(pending.size, dtype=bool)
            taken[np.nonzero(opens)[0][_ranks(register[opens]) > 0]] = False
            chosen, pending = pending[taken], pending[~taken]
            where, rows, positions, width, opener, opens = (
                a[taken] for a in (where, rows, positions, width, opener, opens)
            )
            # The merge: each group's registers in first-seen order, measured qubits first.
            opened = np.where(opens, width, 0)  # widths where first seen
            offset = np.cumsum(opened, axis=1) - opened
            front = offset[np.arange(chosen.size)[:, None], opener] + positions
            _check_cap(int(np.add.reduce(opened, 1).max()))
            for shape, sel in _members(np.concatenate((opened, front), axis=1)):
                at = chosen[sel]
                if at.size < _BULK_BUCKET:
                    self._one_by_one(targets, at, basis, uniforms, outcomes)
                else:
                    outcomes[at] = self._measure_bucket(
                        targets[at], (where[sel], rows[sel]), shape, basis, uniforms[at]
                    )
        self._one_by_one(targets, pending, basis, uniforms, outcomes)

    def _one_by_one(self, targets, chosen, basis, uniforms, outcomes) -> None:
        """``_measure`` of each group ``targets[chosen]``, in that order, with its uniform."""
        draw = iter(uniforms[chosen].tolist()).__next__
        for i in chosen.tolist():
            outcomes[i] = self._measure(targets[i].tolist(), basis, draw)

    def _measure_bucket(
        self,
        ids: np.ndarray,
        block_rows: tuple[np.ndarray, np.ndarray],
        shape: list[int],
        basis: np.ndarray,
        uniforms: np.ndarray,
    ) -> np.ndarray:
        """``_measure`` of each group of ``ids``, all merging rows alike, at once.

        ``ids[i, j]`` lies in row ``rows[i, j]`` of block ``where[i, j]``, for
        ``where, rows = block_rows``, and the groups touch disjoint registers.
        ``shape`` is the bucket key: per column, the width of the register it
        opens (0 if an earlier column opened it), then each qubit's place in
        the merge. The rows merge by one ``_merge_gathers`` product, in
        ``_measure``'s order; one batched matmul applies the basis, one
        ``_sample_rows`` draw picks the outcomes, and the remainders become
        one listed block. Returns the outcomes.
        """
        m = ids.shape[1]
        opens = [j for j in range(m) if shape[j]]
        gathers, rest = _merge_gathers(tuple(shape[j] for j in opens), tuple(shape[m:]))
        where, rows = block_rows
        amps, tables = None, []
        for j, gather in zip(opens, gathers):
            row_amps, table = self._rows(where[:, j], rows[:, j])
            amps = row_amps[:, gather] if amps is None else amps * row_amps[:, gather]
            tables.append(table)
        branches = basis @ amps.reshape(len(ids), len(basis), -1)
        probs = np.add.reduce(np.square(branches), 2)
        _check_mass(probs)
        outcomes = _sample_rows(probs, uniforms)
        self._block_of[ids] = -1
        for b, sel in _members(where[:, opens].ravel()):
            self._retire(b, sel.size)
        if rest:
            picked = np.arange(len(ids))
            post = branches[picked, outcomes] / np.sqrt(probs[picked, outcomes])[:, None]
            self._add_listed(post, np.concatenate(tables, axis=1)[:, rest])
        return outcomes

    def _rows(self, where: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The amplitudes and id table of row ``rows[i]`` of block ``where[i]``, for each i.

        The blocks share one width; the rows are gathered block by block.
        """
        parts = [(self._blocks[b], sel) for b, sel in _members(where)]
        if len(parts) == 1:
            return parts[0][0].amplitudes[rows], parts[0][0].id_table(rows)
        amps = np.empty((rows.size, parts[0][0].amplitudes.shape[1]))
        table = np.empty((rows.size, parts[0][0].width), dtype=np.int64)
        for block, sel in parts:
            amps[sel] = block.amplitudes[rows[sel]]
            table[sel] = block.id_table(rows[sel])
        return amps, table
