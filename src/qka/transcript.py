"""Ordered, digestible event log of a protocol run.

Every quantum send, state preparation and classical message lands here in
execution order. Serialized events carry a SHA-256 digest of their payload
instead of the payload itself, plus the two accounting fields the resource
tally needs: ``qubit_count`` for preparations/sends and ``counted_bits``
for classical bits that pay for decoding (eavesdropping-check traffic
carries zero).

A stack of runs (*lanes*) keeps one ``EventTable`` and logs each event once,
for the lanes it reaches; a payload value may hold one row per lane. Each
run's ``Transcript`` is a view of its lane's events: they become
``TranscriptEvent``s, numbered in the lane's own order, only when read, and
the resource tally reads the lane's table rows instead. A ``Transcript`` made
on its own owns a table, and ``Transcript.log`` logs one event for it.

Payload values are JSON data or int64 arrays (qubit ids, permutations,
decoy pairs). The log keeps each array as a read-only snapshot, so a later
change to the array it came from (a transit attack rewriting the train's
slots) never reaches the record, and the digest serializes an array as the
list it holds, so digests are those of the equal list payload.

A digest is the SHA-256 of ``json.dumps(payload, sort_keys=True,
separators=(",", ":"))`` with arrays as their lists. The payload is hashed
value by value, after the cached ``{"key":`` or ``,"key":`` prefix of each
key. A nonnegative 1-D or 2-D integer array is rendered by one gather from
``_DECIMALS``, a module-level table of ``",digits"`` words that
``_decimals_covering`` grows by doubling, and one ``bytes.translate`` that
drops their zero padding, which gives the bytes json would write. Plain
ints and strings are spelled directly, and every other value goes through
json itself. ``Transcript.to_dict()`` takes the digests, so they cost nothing
until a JSON result is written.

The classical channel this models is authenticated, ordered and lossless;
logging an event is the delivery.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, count, repeat
from operator import itemgetter
from json.encoder import encode_basestring_ascii

import numpy as np

SCHEMA = "qka.transcript/1"

# Classical message kinds.
ACK = "ack"
FULL_PERMUTATION_DISCLOSURE = "full-permutation-disclosure"
DECOY_POSITIONS_DISCLOSURE = "decoy-positions-disclosure"
MESSAGE_ORDER_DISCLOSURE = "message-order-disclosure"
KEY_ANNOUNCEMENT = "key-announcement"
ABORT = "abort"

# Non-message event kinds.
STATE_PREPARATION = "state-preparation"
QUANTUM_SEND = "quantum-send"


# The canonical encoder; ``json.dumps`` with these arguments builds the same one.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist)


def payload_digest(payload: dict) -> str:
    """SHA-256 of the payload's canonical JSON, arrays written as their lists."""
    digest = hashlib.sha256()
    if type(payload) is dict and all(type(key) is str for key in payload):
        first = True
        for key in sorted(payload):
            digest.update(_key_prefix(key, first))
            digest.update(_value_json(payload[key]))
            first = False
        digest.update(b"}" if payload else b"{}")
    else:
        digest.update(_ENCODER.encode(payload).encode())
    return digest.hexdigest()


def _value_json(value) -> bytes:
    """One payload value's canonical JSON; plain ints and strings skip the encoder."""
    if type(value) is int:
        return b"%d" % value
    if type(value) is str:
        return encode_basestring_ascii(value).encode()
    text = _int_array_json(value)
    return text if text is not None else _ENCODER.encode(value).encode()


@lru_cache(maxsize=256)
def _key_prefix(key: str, first: bool) -> bytes:
    """``{"key":`` for a payload's first key, ``,"key":`` for every later one."""
    return (b"{" if first else b",") + encode_basestring_ascii(key).encode() + b":"


# Below this many ints json's own encoder is as fast as the gather (timed on
# a 2-vCPU x86-64 host with numpy 2.4).
_GATHER_MIN_SIZE = 32
# Every table word holds a comma and at most 7 digits, so the table stops
# below 10**7; its 2**20 words take 8 MB at most.
_TABLE_BOUND = 2**20
_TABLE_START = 2**12
_COMMA = np.uint64(ord(","))


_NEXT_ROW = np.frombuffer(b"],[".ljust(8, b"\0"), dtype="<u8")[0]


def _decimal_words(size: int) -> np.ndarray:
    """``",digits"`` of 0 .. size - 1 (size at most 10**7) as zero-padded little-endian words."""
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint64)
    block = _COMMA | digits << np.uint64(8)  # the one-digit numbers
    blocks, count, width = [block], block.size, 1
    while count < size:
        # the next block's numbers are 10q + r, q from this block: r's digit follows q's
        width += 1
        heads = block[1:] if width == 2 else block
        heads = heads[: -(-(size - count) // 10)]
        block = (heads[:, None] | digits << np.uint64(8 * width)).ravel()
        blocks.append(block)
        count += block.size
    return np.concatenate(blocks)[:size].astype("<u8", copy=False)


# ``",0"``, ``",1"``, ... as 8-byte words, grown by doubling up to ``_TABLE_BOUND``.
_DECIMALS = np.empty(0, dtype="<u8")


def _decimals_covering(top: int) -> np.ndarray | None:
    """The decimal table if it holds a word for ``top``, grown as needed; None above the bound."""
    global _DECIMALS
    if top < _DECIMALS.size:
        return _DECIMALS
    if top >= _TABLE_BOUND:
        return None
    size = max(_DECIMALS.size, _TABLE_START)
    while size <= top:
        size *= 2
    _DECIMALS = _decimal_words(size)
    _DECIMALS.flags.writeable = False
    return _DECIMALS


def _int_array_json(value) -> bytes | None:
    """Compact JSON of a nonnegative 1-D or 2-D integer array; None for any other value.

    Each int becomes its ``",digits"`` word and the first of each row drops
    its comma (the comma is the word's low byte); a 2-D array's rows each
    start with a ``"],["`` word. One ``bytes.translate`` removes the zero
    padding, and the outer brackets go on as bytes.
    """
    if not (
        type(value) is np.ndarray
        and value.dtype.kind in "iu"
        and value.ndim in (1, 2)
        and value.size >= _GATHER_MIN_SIZE
    ):
        return None
    if value.dtype.kind == "i":
        value = value.astype(np.int64, copy=False)
        top = value.view(np.uint64).max()  # a negative reads as huge
    else:
        top = value.max()
    table = _decimals_covering(int(top))
    if table is None:
        return None
    # The gather indexes with ``value`` itself: int64 indices take numpy's
    # fast path, the uint64 view does not.
    if value.ndim == 1:
        words = table[value]
        words[0] -= _COMMA
        return b"[" + words.tobytes().translate(None, b"\0") + b"]"
    words = np.empty((len(value), value.shape[1] + 1), dtype="<u8")
    words[:, 0] = _NEXT_ROW
    words[:, 1:] = table[value]
    words[:, 1] -= _COMMA
    # "],[a,b],[c,d" loses its leading "],": "[" + "[a,b],[c,d" + "]]"
    return b"[" + words.tobytes().translate(None, b"\0")[2:] + b"]]"


def _snapshot(value):
    """A read-only array stays as it is; any other array is copied read-only."""
    if isinstance(value, np.ndarray) and value.flags.writeable:
        value = value.copy()
        value.flags.writeable = False
    return value


@dataclass
class TranscriptEvent:
    index: int
    step: str
    actor: str
    kind: str
    payload: dict
    qubit_count: int = 0
    counted_bits: int = 0
    purpose: str = ""

    def to_dict(self) -> dict:
        out = {
            "index": self.index,
            "step": self.step,
            "actor": self.actor,
            "kind": self.kind,
            "digest": payload_digest(self.payload),
        }
        if self.qubit_count:
            out["qubit_count"] = self.qubit_count
        if self.counted_bits:
            out["counted_bits"] = self.counted_bits
        if self.purpose:
            out["purpose"] = self.purpose
        return out


class EventTable:
    """The events of a stack of runs (*lanes*), each logged once for all the lanes it reaches.

    ``rows`` holds one tuple per event: its lanes (a map from lane to row),
    step, actor, kind, payload, the payload keys whose values hold one
    entry per row, and its ``qubit_count``, ``counted_bits`` and
    ``purpose``. A lane's events are the rows that name it, in log order.
    """

    def __init__(self):
        self.rows: list[tuple] = []
        self._last: tuple[tuple[int, ...], dict[int, int]] = ((), {})

    def log(
        self, lanes: tuple[int, ...], step: str, actor: str, kind: str,
        payload: dict | None = None, by_lane: tuple[str, ...] = (), *,
        qubit_count: int = 0, counted_bits: int = 0, purpose: str = "",
    ) -> None:
        """Log one event for ``lanes``; under a ``by_lane`` key, row i of the value is lane i's.

        The table keeps ``payload`` itself, so the caller hands over a dict
        whose arrays are read-only (``Transcript.log`` snapshots them). Events
        logged with the same ``lanes`` tuple in a row share one row map.
        """
        if lanes is not self._last[0]:
            self._last = (lanes, {lane: row for row, lane in enumerate(lanes)})
        self.rows.append((self._last[1], step, actor, kind, payload or {}, by_lane,
                          qubit_count, counted_bits, purpose))


class Transcript:
    """One lane's events, a view of an ``EventTable``; a transcript made alone owns its table.

    ``events`` become ``TranscriptEvent``s on first access, numbered in the
    lane's own order; later reads return the same list, extended by any
    event logged since.
    """

    def __init__(
        self, protocol: str, key_bits: int, table: EventTable | None = None, lane: int = 0
    ):
        self.protocol = protocol
        self.key_bits = key_bits
        self.aborted = False
        self._table = table if table is not None else EventTable()
        self._lane = lane
        self._picks: list[int] = []  # the table index of each of the lane's events
        self._scanned = 0  # table events looked at so far
        self._events: list[TranscriptEvent] = []

    def _indices(self) -> list[int]:
        """The table index of each of this lane's events, in order."""
        rows, seen = self._table.rows, self._scanned
        named = map(dict.__contains__, map(itemgetter(0), rows[seen:]), repeat(self._lane))
        self._picks += compress(count(seen), named)
        self._scanned = len(rows)
        return self._picks

    @property
    def events(self) -> list[TranscriptEvent]:
        picks, events, rows = self._indices(), self._events, self._table.rows
        for index in range(len(events), len(picks)):
            lanes, step, actor, kind, payload, keys, qubits, bits, purpose = rows[picks[index]]
            row = lanes[self._lane]
            payload = {key: value[row] if key in keys else value
                       for key, value in payload.items()}
            events.append(TranscriptEvent(  # positional arguments are cheaper
                index, step, actor, kind, payload, qubits, bits, purpose
            ))
        return events

    def tally_columns(self) -> tuple[tuple, tuple, tuple, tuple]:
        """The kind, purpose, qubit_count and counted_bits of each event, as four columns."""
        rows = self._table.rows
        picked = [rows[i] for i in self._indices()]
        columns = (3, 8, 6, 7)  # where a row holds kind, purpose, qubit_count, counted_bits
        return tuple(tuple(map(itemgetter(column), picked)) for column in columns)

    def log(
        self, step: str, actor: str, kind: str, payload: dict | None = None, **counts
    ) -> TranscriptEvent:
        """Log one event for this lane alone, its arrays as read-only snapshots, and return it.

        ``counts`` are ``EventTable.log``'s ``qubit_count``, ``counted_bits``
        and ``purpose``.
        """
        snapshot = {key: _snapshot(value) for key, value in payload.items()} if payload else {}
        self._table.log((self._lane,), step, actor, kind, snapshot, **counts)
        return self.events[-1]

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "protocol": self.protocol,
            "key_bits": self.key_bits,
            "aborted": self.aborted,
            "events": [e.to_dict() for e in self.events],
        }
