"""Ordered, digestible event log of a protocol run.

Every quantum send, state preparation and classical message lands here in
execution order. Serialized events carry a SHA-256 digest of their payload
instead of the payload itself, plus the two accounting fields the resource
tally needs: ``qubit_count`` for preparations/sends and ``counted_bits``
for classical bits that pay for decoding (eavesdropping-check traffic
carries zero).

Payload values are JSON data or int64 arrays (qubit ids, permutations,
decoy pairs). The log keeps each array as a read-only snapshot, so a later
change to the array it came from (a transit attack rewriting the train's
slots) never reaches the record, and the digest serializes an array as the
list it holds, so digests are those of the equal list payload.

A digest is the SHA-256 of ``json.dumps(payload, sort_keys=True,
separators=(",", ":"))`` with arrays as their lists. The payload is hashed
value by value; a nonnegative 1-D or 2-D integer array is rendered by one
gather from a table of ``",digits"`` words, which gives the bytes json would
write, and every other value goes through json itself.

The classical channel this models is authenticated, ordered and lossless;
logging an event is the delivery.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

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
        separator = b"{"
        for key in sorted(payload):
            digest.update(separator + _ENCODER.encode(key).encode() + b":")
            value = payload[key]
            text = _int_array_json(value)
            digest.update(text if text is not None else _ENCODER.encode(value).encode())
            separator = b","
        digest.update(b"}" if payload else b"{}")
    else:
        digest.update(_ENCODER.encode(payload).encode())
    return digest.hexdigest()


# Below this many ints json's own encoder is as fast as the gather (timed on
# a 2-vCPU x86-64 host with numpy 2.4).
_GATHER_MIN_SIZE = 32
# Every table word holds a comma and at most 7 digits, so the table stops
# below 10**7; its 2**20 words take 8 MB at most.
_TABLE_BOUND = 2**20
_TABLE_START = 2**12
_COMMA = np.uint64(ord(","))


def _word(text: bytes) -> np.uint64:
    return np.frombuffer(text.ljust(8, b"\0"), dtype="<u8")[0]


_OPEN, _CLOSE = _word(b"["), _word(b"]")
_OPEN_ROWS, _NEXT_ROW, _CLOSE_ROWS = _word(b"[["), _word(b"],["), _word(b"]]")


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


class _DecimalTable:
    """``",0"``, ``",1"``, ... as 8-byte words, grown by doubling up to ``_TABLE_BOUND``."""

    def __init__(self):
        self.words = np.empty(0, dtype="<u8")

    def covering(self, top: int) -> np.ndarray | None:
        """The table if it holds a word for ``top``, grown as needed; None above the bound."""
        words = self.words
        if top < words.size:
            return words
        if top >= _TABLE_BOUND:
            return None
        size = max(words.size, _TABLE_START)
        while size <= top:
            size *= 2
        words = _decimal_words(size)
        words.flags.writeable = False
        self.words = words
        return words


_DECIMALS = _DecimalTable()


def _int_array_json(value) -> bytes | None:
    """Compact JSON of a nonnegative 1-D or 2-D integer array; None for any other value.

    Each int becomes its ``",digits"`` word and the first of each row drops
    its comma (the comma is the word's low byte). Bracket words go around
    the rows, and one ``bytes.translate`` removes the zero padding.
    """
    if not (
        type(value) is np.ndarray
        and value.dtype.kind in "iu"
        and value.ndim in (1, 2)
        and value.size >= _GATHER_MIN_SIZE
    ):
        return None
    if value.dtype.kind == "i":
        value = value.astype(np.int64, copy=False).view(np.uint64)  # negatives read as huge
    table = _DECIMALS.covering(int(value.max()))
    if table is None:
        return None
    if value.ndim == 1:
        words = np.empty(value.size + 2, dtype="<u8")
        words[0], words[-1] = _OPEN, _CLOSE
        words[1:-1] = table[value]
        words[1] -= _COMMA
    else:
        rows, cols = value.shape
        words = np.empty(rows * (cols + 1) + 1, dtype="<u8")
        grid = words[:-1].reshape(rows, cols + 1)
        grid[:, 0] = _NEXT_ROW
        grid[0, 0], words[-1] = _OPEN_ROWS, _CLOSE_ROWS
        grid[:, 1:] = table[value]
        grid[:, 1] -= _COMMA
    return words.tobytes().translate(None, b"\0")


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


@dataclass
class Transcript:
    protocol: str
    key_bits: int
    events: list[TranscriptEvent] = field(default_factory=list)
    aborted: bool = False

    def log(
        self,
        step: str,
        actor: str,
        kind: str,
        payload: dict | None = None,
        *,
        qubit_count: int = 0,
        counted_bits: int = 0,
        purpose: str = "",
    ) -> TranscriptEvent:
        event = TranscriptEvent(
            index=len(self.events),
            step=step,
            actor=actor,
            kind=kind,
            payload={key: _snapshot(value) for key, value in (payload or {}).items()},
            qubit_count=qubit_count,
            counted_bits=counted_bits,
            purpose=purpose,
        )
        self.events.append(event)
        return event

    def kinds(self) -> list[str]:
        return [e.kind for e in self.events]

    def first_index(self, kind: str) -> int:
        """Index of the first event of the given kind; -1 when absent."""
        for event in self.events:
            if event.kind == kind:
                return event.index
        return -1

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "protocol": self.protocol,
            "key_bits": self.key_bits,
            "aborted": self.aborted,
            "events": [e.to_dict() for e in self.events],
        }
