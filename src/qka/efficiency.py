"""Resource accounting and qubit efficiency in exact rational arithmetic.

Qubit efficiency is eta = c / (q + b): key bits produced per qubit used
plus classical decoding bit exchanged. eta is kept as an exact Fraction;
percentages are rendered, never stored.

Counting conventions (deliberately reproduced from the source analysis
rather than re-derived): every coordinate disclosure or key announcement
costs one classical bit per message qubit it orders, even though a
permutation of n items would compress below n bits; classical traffic that
only serves the eavesdropping check is free; the five-party qubit count
covers the 4n state qubits per party and leaves its decoy pairs out,
whereas the two- and three-party counts include decoys.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction

from .transcript import STATE_PREPARATION, Transcript

TWO_PARTY = "two-party"
THREE_PARTY = "three-party"
FIVE_PARTY = "five-party"
PPGV = "ppgv"

#: Table order for reports.
PROTOCOLS = (TWO_PARTY, THREE_PARTY, FIVE_PARTY, PPGV)


@dataclass(frozen=True)
class ResourceCount:
    """c key bits produced, q qubits used, b classical decoding bits."""

    c: int
    q: int
    b: int

    def __post_init__(self):
        if self.c < 0 or self.q <= 0 or self.b < 0:
            raise ValueError("counts must be nonnegative with q > 0")


@dataclass(frozen=True)
class EfficiencyReport:
    eta: Fraction
    eta_percent: str
    breakdown: dict

    def to_dict(self) -> dict:
        return {
            "eta_fraction": f"{self.eta.numerator}/{self.eta.denominator}",
            "eta_percent": self.eta_percent,
            "breakdown": self.breakdown,
        }


def render_percent(eta: Fraction) -> str:
    return f"{float(eta) * 100:.2f}%"


def qubit_efficiency(rc: ResourceCount) -> EfficiencyReport:
    """Exact eta = c/(q+b)."""
    eta = Fraction(rc.c, rc.q + rc.b)
    return EfficiencyReport(
        eta=eta,
        eta_percent=render_percent(eta),
        breakdown={"c": rc.c, "q": rc.q, "b": rc.b},
    )


# The closed-form (q, b) of each protocol, as multiples of the key length n.
_PRESET_FACTORS = {
    TWO_PARTY: (4, 3),
    THREE_PARTY: (15, 9),
    FIVE_PARTY: (20, 50),
    PPGV: (4, 2),
}


def preset_counts(protocol: str, n: int) -> ResourceCount:
    """Closed-form resource counts for an n-bit key under each protocol."""
    if n <= 0:
        raise ValueError("n must be positive")
    try:
        q, b = _PRESET_FACTORS[protocol]
    except KeyError:
        raise ValueError(f"unknown protocol {protocol!r}") from None
    return ResourceCount(n, q * n, b * n)


def count_from_transcript(t: Transcript) -> ResourceCount:
    """Tally (c, q, b) from a completed run and cross-check the preset.

    Raises ValueError on an aborted transcript or when the tally disagrees
    with the closed-form counts (a counting-convention bug, not a protocol
    failure).
    """
    if t.aborted:
        raise ValueError("cannot count resources of an aborted run")
    kinds, purposes, qubit_counts, counted_bits = t.tally_columns()
    q_message = 0
    q_decoy = 0
    for kind, purpose, qubits in zip(kinds, purposes, qubit_counts):
        if kind == STATE_PREPARATION:
            if purpose == "decoy":
                q_decoy += qubits
            else:
                q_message += qubits
    b = sum(counted_bits)
    q = q_message if t.protocol == FIVE_PARTY else q_message + q_decoy
    tally = ResourceCount(t.key_bits, q, b)
    preset = preset_counts(t.protocol, t.key_bits)
    if tally != preset:
        raise ValueError(
            f"transcript tally {tally} disagrees with preset {preset} for {t.protocol}"
        )
    return tally


def efficiency_rows(n: int = 2) -> list[dict]:
    """The four-protocol comparison table; eta is independent of n."""
    rows = []
    for protocol in PROTOCOLS:
        rc = preset_counts(protocol, n)
        report = qubit_efficiency(rc)
        rows.append(
            {
                "protocol": protocol,
                "c": rc.c,
                "q": rc.q,
                "b": rc.b,
                "eta_fraction": f"{report.eta.numerator}/{report.eta.denominator}",
                "eta_percent": report.eta_percent,
            }
        )
    return rows


def efficiency_table_csv(n: int = 2) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=["protocol", "c", "q", "b", "eta_fraction", "eta_percent"]
    )
    writer.writeheader()
    for row in efficiency_rows(n):
        writer.writerow(row)
    return buf.getvalue()


def efficiency_table_json(n: int = 2) -> str:
    return json.dumps({"schema": "qka.efficiency/1", "rows": efficiency_rows(n)},
                      sort_keys=True, indent=2)


def efficiency_table_text(n: int = 2) -> str:
    rows = efficiency_rows(n)
    header = f"{'protocol':<12} {'c':>6} {'q':>6} {'b':>6} {'eta':>8} {'percent':>8}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['protocol']:<12} {row['c']:>6} {row['q']:>6} {row['b']:>6} "
            f"{row['eta_fraction']:>8} {row['eta_percent']:>8}"
        )
    return "\n".join(lines)
