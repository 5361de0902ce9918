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

A Pauli letter maps each basis ket to one ket times a sign, so every letter
but the identity (skipped) is a column permutation, a sign or both per
(block, position), applied to all the rows it hits in a pass of at most
``_ROWS_PER_PASS`` groups. Bad input is refused before anything changes,
each rule in one home: groups of distinct live ids (``_checked_groups``),
states (``_checked_states``) and real, square, orthonormal bases
(``_checked_basis``), which resolve every state. The group rule first looks
for a *lattice* (``_lattice``): every group in one intact row of one
allocated block, column j always at position ``pos[j]``, no row named
twice. That test takes a dozen numpy calls, each over one column or once
over the ids, and no sort; what it finds, ``(block, rows, pos)``, goes
straight to the Pauli and whole-row kernels, which then look nothing up.
Any other input is sorted to show its ids distinct and looked up once,
and the kernels reuse that lookup. The states and bases the package
builds itself (``BELL_VECTORS``, ``Z_BASIS`` and the protocols' resource
states and decode bases) are checked once, by ``constant_state`` and
``constant_basis``, and taken as they are afterwards. Measurement has
one bulk entry, ``measure_rows_in_basis``, and three routines;
``measure_z`` and ``measure_in_basis`` measure one group through it.

* Groups that are whole rows, in register order, of allocated blocks are
  read in place, whatever blocks they lie in: one matmul per pass, then
  one inverse-CDF draw that runs outcome-major, each numpy call over the
  whole pass (``_sample_rows``). An honest run measures nothing else. A
  lattice at positions ``range(width)`` is such a call as it stands; other
  input is sorted into whole rows block by block, from its one lookup.
* Every other group, of one qubit or many, goes through one merge kernel
  in waves. A wave takes every waiting group that names no register an
  earlier waiting group names, so groups sharing a register keep their
  list order (a register named k times waits k waves), and buckets the
  wave by the widths of the rows each group merges. Each group's rows
  merge with its measured qubits in front, by the cached gathers of its
  front; a bucket gets one 2-D matmul, one draw and one listed remainder
  block. Below ``_BULK_GROUPS`` (32) waiting groups, or ``_BULK_BUCKET``
  (8) groups in a bucket, one ``_measure`` each is cheaper, one-qubit
  groups included. On the attack benchmark, intercept-resend in Z
  measures a 64-lane two-party stack's 2,048 hit qubits in two waves of
  one bucket each (1,536 on Bell rows, then 512 on what they left), and
  the 512 Bell pairs of its decoy check and 1,024 of its decode in one
  wave and one bucket each. Under intercept-resend in the Bell basis such
  a call takes two waves and three buckets, under a reordering receiver
  two and two, and an early-measuring sender's 953 guessed pairs seven
  and 13.
* The one-group routine, ``_measure``, merges the rows its group touches
  (a Kronecker product in first-seen order, capped at 12 qubits; anything
  larger fails loudly), built with the measured qubits in front from one
  cached gather per row, samples one outcome and stores what remains as
  a one-row listed block. Measuring across two entangled pairs this way
  is what performs entanglement swapping. It serves the scalar
  ``measure_bell`` and the groups below the cutovers.

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
# A numpy fact, not a tuning knob: ``np.add.reduce`` adds a contiguous row of
# fewer terms in order, as ``cumsum`` does; from this many up it adds pairwise.
_PAIRWISE_FROM = 8

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
    """``_sample_index`` on every row of ``probs``, each with its own uniform; writes no input.

    Outcome-major, each numpy call over all rows at once: on a copy of
    ``probs.T``, d - 1 whole-row additions build the running sums in
    ``cumsum``'s order, bit for bit ``probs.cumsum(axis=1)``, and below
    ``_PAIRWISE_FROM`` outcomes the last is the row total ``np.add.reduce``
    gives. The running sum only grows at nonzero bins, so the first bin whose
    running sum exceeds the target is a nonzero one, as in the scalar loop.
    """
    d = probs.shape[1]
    running = probs.T.copy()  # (outcome, row), C-contiguous
    for i in range(1, d):
        np.add(running[i - 1], running[i], out=running[i])
    totals = running[-1] if d < _PAIRWISE_FROM else np.add.reduce(probs, 1)
    outcomes = np.add.reduce(running <= uniforms * totals, 0)
    over = outcomes == d
    if over.any():
        for i in np.flatnonzero(over).tolist():
            nonzero = np.flatnonzero(probs[i] > 0.0)
            outcomes[i] = nonzero[-1] if nonzero.size else 0  # roundoff: last nonzero bin
    return outcomes


def _check_mass(probs: np.ndarray) -> None:
    """ValueError unless every row of ``probs`` sums to 1 within 1e-9, a NaN row included.

    Every basis the store measures in is complete, so a row whose mass is
    not 1 means the store's own state is corrupt. A tolerance check needs
    no exact bits, so the row sums are one matvec.
    """
    if not (np.abs(probs @ np.ones(probs.shape[1]) - 1.0) <= 1e-9).all():
        raise ValueError("a register's probability mass deviates from 1")


def _check_cap(qubits: int) -> None:
    """RegisterCapacityError for a merge of more than ``MAX_REGISTER_QUBITS`` qubits."""
    if qubits > MAX_REGISTER_QUBITS:
        raise RegisterCapacityError(
            f"merge of {qubits} qubits exceeds the {MAX_REGISTER_QUBITS}-qubit cap"
        )


def _members(labels: np.ndarray):
    """(label, indices holding it) for each distinct int label, in label order."""
    if not len(labels):
        return
    if (labels == labels[0]).all():  # the common case: one block, or one position
        yield labels[0].tolist(), np.arange(len(labels))
        return
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    bounds = [0, *(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist(), len(labels)]
    for lo, hi in zip(bounds, bounds[1:]):
        yield ranked[lo].tolist(), order[lo:hi]


def _code(columns: np.ndarray) -> np.ndarray:
    """Each column of an (m, n) array of ints below 16 as one int, row j its j-th hex digit."""
    code = columns[0]
    for j in range(1, len(columns)):
        code = code + (columns[j] << 4 * j)
    return code


def _digits(code: int, m: int) -> tuple[int, ...]:
    """The m hex digits of ``code``, lowest first: a column ``_code`` folded."""
    return tuple(code >> 4 * j & 15 for j in range(m))


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
def _letter_action(
    letter, width: int, pos: int
) -> tuple[np.ndarray | None, np.ndarray | None] | None:
    """How one letter acts at ``pos`` of a ``width``-qubit amplitude row.

    Every Pauli letter maps each basis ket to one ket times a sign, so the
    new row is ``old[perm] * sign``. Returns (perm, sign), with perm None
    when it moves nothing and sign None when it is all ones, or None for
    the identity.
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
    trivial_perm, trivial_sign = np.array_equal(perm, index), bool(np.all(sign == 1))
    if trivial_perm and trivial_sign:
        return None
    perm.flags.writeable = sign.flags.writeable = False  # shared through the cache
    return (None if trivial_perm else perm), (None if trivial_sign else sign)


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
            amplitudes = amplitudes if perm is None else amplitudes[perm]
            amplitudes = amplitudes if sign is None else amplitudes * sign
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


class _Block:
    """``live`` registers of one ``width``, one row each of ``amplitudes``.

    A block made by allocation (``ids`` None) holds the ids ``first +
    r*width`` onward in row r. Any other block is *listed*: ``ids`` is its
    (rows, width) id table, and the store's slot map gives each of its ids'
    flat index ``row*width + position`` there. ``views`` caches the
    read-only register ``register_of`` hands out, by row.
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
            return self.ids.take(rows, axis=0)
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
        kind = BellOutcome(kind)  # first: the index below would take -1 as the last row
        return tuple(self.new_train(BELL_VECTORS[kind], 1)[0].tolist())

    def new_four_qubit(self, which: FourQubitState) -> tuple[int, int, int, int]:
        """Allocate four fresh qubits in the named 4-qubit resource state."""
        return tuple(self.new_train(four_qubit_vector(which), 1)[0].tolist())

    def new_computational(self, bit: int) -> int:
        """Allocate one fresh qubit in |0> or |1>; ValueError for a bit other than 0 or 1."""
        if bit not in (0, 1):
            raise ValueError(f"a computational-basis qubit holds bit 0 or 1, not {bit!r}")
        return int(self.new_states(Z_BASIS[int(bit) : int(bit) + 1])[0, 0])

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
        """Store checked (r, 2^k) rows as one allocated block under the next ids.

        Returns the (r, k) int64 id matrix; r = 0 allocates nothing.
        """
        width = rows.shape[1].bit_length() - 1
        first, end = self._next_id, self._next_id + len(rows) * width
        if len(rows):
            if end > self._block_of.size:
                size = max(end, self._block_of.size * 5 // 4 + 64)
                self._block_of = _grown(self._block_of[:first], size)
                if self._slot_of is not None:
                    self._slot_of = _grown(self._slot_of[:first], size)
            self._block_of[first:end] = len(self._blocks)
            self._blocks.append(_Block(rows, width, first))
            self._next_id = end
        return np.arange(first, end, dtype=np.int64).reshape(-1, width)

    # -- introspection ---------------------------------------------------

    def _indices(self, ids: np.ndarray) -> np.ndarray:
        """The block holding each id of an int64 array; UnknownQubitError for the first unknown."""
        if ids.size and (ids.min() < 0 or ids.max() >= self._next_id):
            raise UnknownQubitError(int(ids[(ids < 0) | (ids >= self._next_id)][0]))
        where = self._block_of[ids]
        if ids.size and where.min() < 0:
            raise UnknownQubitError(int(ids[where < 0][0]))
        return where

    def _checked_groups(
        self, groups: Sequence[Sequence[int]] | np.ndarray
    ) -> tuple[np.ndarray, tuple | np.ndarray]:
        """``groups`` as one (groups, size) int64 id array; the one home of the group rule.

        The groups must be nonempty, of one size, and name distinct live
        qubits. A 2-D integer array is taken as it is. Returns the array and
        what locates its ids: ``(block, rows, pos)`` for a lattice
        (``_lattice``), as every group an honest run names is but a decoy
        check over trains of several allocations, or else the block index of
        every id, looked up once after a sort over all ids has shown them
        distinct.
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
        lattice = self._lattice(targets)
        if lattice is not None:
            return targets, lattice
        ordered = np.sort(targets, axis=None)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("groups must name distinct qubits")
        return targets, self._indices(targets)

    def _lattice(self, targets: np.ndarray) -> tuple[int, np.ndarray, tuple[int, ...]] | None:
        """``(block, rows, pos)`` if the groups form a lattice, else None; never raises.

        In a lattice every group lies in one intact row of one allocated
        block, ``rows[i]`` for group i, no row is named twice, and column j
        always sits at position ``pos[j]``, the positions distinct. Then the
        ids are distinct and live, so the group rule holds. Two facts make
        the test cheap, with no sort and no gather of every id:

        * a row of an allocated block is intact (every qubit of it live and
          still there) exactly when its first id still maps to the block:
          every measurement that touches an allocated row retires the
          measured qubits and moves every survivor to a listed block
          (``_measure_rows``, ``_measure``, ``_measure_bucket``);
        * distinct rows, with distinct positions that stay constant per
          column, mean distinct ids; a bincount over the rows tests the
          first, whatever their order.
        """
        q = int(targets[0, 0])
        if not 0 <= q < self._next_id:  # first: numpy would wrap a negative id
            return None
        b = int(self._block_of[q])
        block = self._blocks[b] if b >= 0 else None
        if block is None or block.ids is not None:
            return None
        width, first = block.width, block.first
        start = q - (q - first) % width  # of the first group's row
        pos = tuple([x - start for x in targets[0].tolist()])
        if len(set(pos)) != len(pos) or min(pos) < 0 or max(pos) >= width:
            return None
        rows = (targets[:, 0] - first) // width
        if np.minimum.reduce(rows) < 0 or np.maximum.reduce(rows) >= len(block.amplitudes):
            return None
        starts = rows * width + first
        if not np.equal(targets, starts[:, None] + np.array(pos)).all():
            return None
        if np.maximum.reduce(np.bincount(rows)) > 1:
            return None
        if not np.logical_and.reduce(self._block_of[starts] == b):
            return None
        return b, rows, pos

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
        """The register holding ``qubit``: a read-only view of its row, one object per register."""
        (b,) = self._indices(np.asarray([qubit]))
        block = self._blocks[b]
        row = self._row_of(qubit, block)
        view = block.views.get(row)
        if view is None:
            view = StateRegister._trusted(block.row_ids(row), block.amplitudes[row])
            view.amplitudes.flags.writeable = False  # the store writes through the block
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
        time, the qubits each letter other than the identity hits change by
        a column permutation, a sign or both per (block, position). A
        lattice names that (block, ``pos[j]``) for letter j itself, so its
        rows are changed with no lookup; other groups are sorted by the
        block of each id and then by position.
        """
        if not len(groups):
            return
        targets, found = self._checked_groups(groups)
        _check_arity(element, targets.shape[1])
        from .pauli import PauliLetter  # here, not at the top: pauli imports this module

        # Identity letters change nothing: each five-party encoding word is one letter and Is.
        letters = [(j, x) for j, x in enumerate(element.letters) if x is not PauliLetter.I]
        for lo in range(0, len(targets), _ROWS_PER_PASS):
            hi = lo + _ROWS_PER_PASS
            for j, letter in letters:
                if isinstance(found, tuple):
                    b, rows, pos = found
                    self._apply_letter(self._blocks[b], letter, pos[j], rows[lo:hi])
                    continue
                ids = targets[lo:hi, j]
                for b, sel in _members(found[lo:hi, j]):
                    block = self._blocks[b]
                    rows, positions = self._locate(ids[sel], block)
                    for pos, at_pos in _members(positions):
                        self._apply_letter(block, letter, pos, rows[at_pos])

    @staticmethod
    def _apply_letter(block: _Block, letter, pos: int, rows: np.ndarray) -> None:
        """One letter at ``pos`` of each of ``rows``, distinct rows of ``block``."""
        perm, sign = _letter_action(letter, block.width, pos)
        moved = block.amplitudes.take(rows, axis=0)
        if perm is not None:
            moved = moved[:, perm]
        if sign is not None:
            moved *= sign
        block.amplitudes[rows] = moved

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
        if not abs(total - 1.0) <= 1e-9:  # a complete basis: the state is at fault; NaN too
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

    def _measure_rows(
        self, parts: list, width: int, basis: np.ndarray, uniforms: np.ndarray
    ) -> np.ndarray:
        """Measure whole ``width``-qubit rows of allocated blocks, one uniform each.

        ``parts`` holds (block, rows) for each block, distinct intact rows
        whose groups list each row whole, in register order: a lattice
        (``_lattice``) with positions ``range(width)`` is one such part. A
        run of consecutive ascending rows is read in place, as a decode
        reads its copies, and its ids retire as one slice of the id map;
        other rows are gathered, and one matmul scores them all. Since every
        basis is complete, a row whose mass is not 1 means the store's own
        state is corrupt; that raises ValueError before anything changes.
        Returns the outcomes in part order.
        """
        amps, dead = [], []  # each part's amplitudes and ids
        for b, rows in parts:
            block, first, span = self._blocks[b], int(rows[0]), int(rows[-1]) - int(rows[0]) + 1
            in_place = span == rows.size and (rows[1:] > rows[:-1]).all()
            held = block.amplitudes
            amps.append(held[first : first + span] if in_place else held.take(rows, axis=0))
            at = block.first + first * width
            dead.append(slice(at, at + span * width) if in_place else block.id_table(rows))
        probs = np.square((amps[0] if len(amps) == 1 else np.concatenate(amps)) @ basis.T)
        _check_mass(probs)
        outcomes = _sample_rows(probs, uniforms)
        for ids in dead:
            self._block_of[ids] = -1
        for b, rows in parts:
            self._retire(b, rows.size)
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
        allocated block, in register order, across blocks. A lattice needs
        no whole-row detection: at positions ``range(m)`` of an m-qubit
        block its rows are the one part of each pass, and otherwise none of
        its groups is a whole row. Every other
        group, one qubit or many, goes through ``_measure_crossing``: waves
        of groups on disjoint registers, each wave bucketed by the widths of
        the rows it merges, with ``_measure`` for the groups below its
        cutovers. Two refusals are left after the draw: a probability mass
        other than 1, only in a corrupt store, checked for each pass, bucket
        or group before it retires anything, and the 12-qubit cap, checked
        for a whole wave before the wave measures; no engine reaches the
        cap, as ``check_adversary`` refuses five-party intercept-bell. So
        when either fires, the groups already measured need not be a prefix
        of the list. Returns the outcome indices as an int64 array.
        """
        if not len(groups):
            return np.empty(0, dtype=np.int64)
        targets, found = self._checked_groups(groups)
        n, m = targets.shape
        if basis.shape[1] != 2**m:
            raise ValueError("basis row length must be 2^(number of measured qubits)")
        if isinstance(rng, np.random.Generator):
            uniforms = rng.random(n)
        else:
            uniforms = _given_uniforms(rng, n, "groups")
        outcomes = np.empty(n, dtype=np.int64)
        if isinstance(found, tuple):  # a lattice: every group is a whole row, or none is
            b, rows, pos = found
            if self._blocks[b].width != m or pos != tuple(range(m)):
                self._measure_crossing(targets, np.arange(n), basis, uniforms, outcomes)
                return outcomes
            for lo in range(0, n, _ROWS_PER_PASS):
                at = slice(lo, lo + _ROWS_PER_PASS)
                outcomes[at] = self._measure_rows([(b, rows[at])], m, basis, uniforms[at])
            return outcomes
        left = np.ones(n, dtype=bool)
        for lo in range(0, n, _ROWS_PER_PASS):
            # A group is a whole row if it lists, in register order, every
            # qubit of one row of a block made by allocation.
            chunk = targets[lo : lo + _ROWS_PER_PASS]
            firsts = chunk[:, 0]
            consecutive = (chunk[:, 1:] == chunk[:, :-1] + 1).all(axis=1)
            parts, at = [], []
            for b, sel in _members(found[lo : lo + _ROWS_PER_PASS, 0]):
                block = self._blocks[b]
                if block.ids is not None or block.width != m:
                    continue
                rows, positions = np.divmod(firsts[sel] - block.first, m)
                whole = (positions == 0) & consecutive[sel]
                if not whole.all():
                    sel, rows = sel[whole], rows[whole]
                if sel.size:
                    parts.append((b, rows))
                    at.append(sel + lo)
            if parts:
                at = np.concatenate(at)
                outcomes[at] = self._measure_rows(parts, m, basis, uniforms[at])
                left[at] = False
        rest = np.flatnonzero(left)
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
        order, and the wave's groups touch disjoint registers: a register
        that k one-qubit groups name takes k waves. It buckets them by the
        widths of the rows they merge; a bucket of at least ``_BULK_BUCKET``
        groups is measured by ``_measure_bucket``, the others one by one.
        Whatever still waits then goes one by one through ``_measure``. Every
        group uses its own uniform, so the outcomes are those of
        ``_measure`` in list order.
        """
        m = targets.shape[1]
        while pending.size and pending.size >= _BULK_GROUPS:
            # Column j of the groups as row j: numpy is far faster on a few
            # long rows than on many short ones, and ``take`` than indexing.
            ids = targets.T.take(pending, axis=1)
            where = self._block_of[ids].astype(np.int64)
            present = np.flatnonzero(np.bincount(where.ravel()))
            # By block index: each block's width, first id (-1 if listed) and
            # first register, numbering the rows of the blocks present in order.
            blocks = [self._blocks[b] for b in present.tolist()]
            sizes = [len(block.amplitudes) for block in blocks]
            known = np.zeros((3, present[-1] + 1), dtype=np.int64)
            known[0, present] = [block.width for block in blocks]
            known[1, present] = [block.first for block in blocks]
            known[2, present] = list(itertools.accumulate(sizes[:-1], initial=0))
            width, first, register = known.take(where, axis=1)
            slots, listed = ids - first, first < 0
            if listed.any():
                slots[listed] = self._slot_of[ids[listed]]
            rows, positions = np.divmod(slots, width)
            register += rows
            # ``seen``: the column of each qubit's group that first names its
            # register, negative if an earlier group names it. A group joins
            # the wave if it is the first to name each of its registers.
            order = np.arange(0, ids.size, m) + np.arange(m)[:, None]  # place in the list
            earliest = np.full(sum(sizes), ids.size)
            np.minimum.at(earliest, register.ravel(), order.ravel())
            seen = earliest[register] - order[0]
            taken = seen.min(axis=0) >= 0
            chosen = np.flatnonzero(taken)
            opened = np.where(seen == np.arange(m)[:, None], width, 0)  # widths where first seen
            keys = _code(opened)[chosen]
            buckets = [(_digits(key, m), chosen[sel]) for key, sel in _members(keys)]
            _check_cap(max(sum(widths) for widths, _ in buckets))
            for widths, at in buckets:
                picked = pending[at]
                if at.size < _BULK_BUCKET:
                    self._one_by_one(targets, picked, basis, uniforms, outcomes)
                else:
                    places = [a.take(at, axis=1) for a in (where, rows, seen, positions)]
                    outcomes[picked] = self._measure_bucket(
                        targets.take(picked, axis=0), places, widths, basis, uniforms[picked]
                    )
            pending = pending[~taken]
        self._one_by_one(targets, pending, basis, uniforms, outcomes)

    def _one_by_one(self, targets, chosen, basis, uniforms, outcomes) -> None:
        """``_measure`` of each group ``targets[chosen]``, in that order, with its uniform."""
        draw = iter(uniforms[chosen].tolist()).__next__
        for i in chosen.tolist():
            outcomes[i] = self._measure(targets[i].tolist(), basis, draw)

    def _measure_bucket(
        self,
        ids: np.ndarray,
        places: list,
        opened: tuple[int, ...],
        basis: np.ndarray,
        uniforms: np.ndarray,
    ) -> np.ndarray:
        """``_measure`` of each group of ``ids``, all merging rows of the same widths, at once.

        The groups touch disjoint registers. ``places`` holds four arrays
        shaped like ``ids.T``, column j of the groups in row j: each qubit's
        block, row and position there, and the column of its group that
        first names its register. ``opened`` is the bucket key: per column,
        the width of the register it opens, or 0. Each distinct front (where
        the measured qubits sit in the merge) takes its gathers from
        ``_merge_gathers``, so the rows merge in ``_measure``'s order, laid
        out as (outcome, group, rest) for one 2-D matmul with the basis; one
        ``_sample_rows`` draw picks the outcomes, and the remainders become
        one listed block. Returns the outcomes.
        """
        where, rows, seen, positions = places
        (n, m), d = ids.shape, len(basis)
        opens = [j for j, width in enumerate(opened) if width]
        offsets = np.array(list(itertools.accumulate(opened[:-1], initial=0)))
        fronts = list(_members(_code(offsets[seen] + positions)))
        widths = tuple(opened[j] for j in opens)
        merges = [_merge_gathers(widths, _digits(front, m)) for front, _ in fronts]
        kind = np.empty(n, dtype=np.int64)  # each group's front, by its index in ``merges``
        for k, (_, sel) in enumerate(fronts):
            kind[sel] = k
        picked = np.arange(n)
        laid, tables = None, []
        for j, gathers in zip(opens, zip(*(gathers for gathers, _ in merges))):
            amps, at, table = self._rows(where[j], rows[j])
            index = np.array(gathers).take(kind, axis=0).reshape(n, d, -1).transpose(1, 0, 2)
            part = amps.ravel().take(index + (at * amps.shape[1])[:, None])
            laid = part if laid is None else laid * part
            tables.append(table)
        branches = (basis @ laid.reshape(d, -1)).reshape(d, n, -1)
        chance = np.add.reduce(np.square(branches), 2)  # by outcome, then group
        # C-ordered, so each row totals pairwise from 8 outcomes up, as ``_measure``'s does.
        probs = np.ascontiguousarray(chance.T)
        _check_mass(probs)
        outcomes = _sample_rows(probs, uniforms)
        self._block_of[ids] = -1
        retired = np.bincount(where[opens].ravel())
        for b in np.flatnonzero(retired).tolist():
            self._retire(b, int(retired[b]))
        rests = np.array([rest for _, rest in merges], dtype=np.int64).reshape(len(merges), -1)
        if rests.size:
            flat = outcomes * n + picked
            post = branches.reshape(d * n, -1).take(flat, axis=0)
            post /= np.sqrt(chance.take(flat))[:, None]
            table = np.concatenate(tables, axis=1)
            kept = rests.take(kind, axis=0) + (picked * table.shape[1])[:, None]
            self._add_listed(post, table.ravel().take(kept))
        return outcomes

    def _rows(self, where: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """Where to read row ``rows[i]`` of block ``where[i]``, for each i, and its ids.

        The blocks share one width. Returns (amps, at, table): the row is
        ``amps[at[i]]`` and its ids are ``table[i]``. Rows of one block are
        read in place; rows of several are gathered block by block.
        """
        parts = [(self._blocks[b], sel) for b, sel in _members(where)]
        if len(parts) == 1:
            return parts[0][0].amplitudes, rows, parts[0][0].id_table(rows)
        at = np.empty(rows.size, dtype=np.int64)
        at[np.concatenate([sel for _, sel in parts])] = np.arange(rows.size)
        amps = np.concatenate([block.amplitudes.take(rows[sel], axis=0) for block, sel in parts])
        table = np.concatenate([block.id_table(rows[sel]) for block, sel in parts])
        return amps, at, table.take(at, axis=0)
