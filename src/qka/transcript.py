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


def payload_digest(payload: dict) -> str:
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)
