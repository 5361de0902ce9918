"""Resource presets, exact rational efficiency, transcript tallies."""

import csv
import io
import json
from fractions import Fraction

import pytest

from qka.efficiency import (
    FIVE_PARTY,
    PPGV,
    THREE_PARTY,
    TWO_PARTY,
    ResourceCount,
    count_from_transcript,
    efficiency_rows,
    efficiency_table_csv,
    efficiency_table_json,
    preset_counts,
    qubit_efficiency,
)
from qka.protocols import ProtocolConfig, run_five_party, run_three_party, run_two_party
from qka.transcript import Transcript


class TestQubitEfficiency:
    @pytest.mark.parametrize(
        "counts,eta,percent",
        [
            ((6, 24, 18), Fraction(1, 7), "14.29%"),
            ((6, 90, 54), Fraction(1, 24), "4.17%"),
            ((6, 120, 300), Fraction(1, 70), "1.43%"),
            ((6, 24, 12), Fraction(1, 6), "16.67%"),
        ],
    )
    def test_known_fractions(self, counts, eta, percent):
        report = qubit_efficiency(ResourceCount(*counts))
        assert report.eta == eta
        assert report.eta_percent == percent

    def test_exact_rational_no_float(self):
        report = qubit_efficiency(ResourceCount(1, 4, 3))
        assert isinstance(report.eta, Fraction)
        assert report.eta == Fraction(1, 7)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            ResourceCount(-1, 4, 3)
        with pytest.raises(ValueError):
            ResourceCount(1, 0, 0)


class TestPresets:
    @pytest.mark.parametrize(
        "protocol,n,expected",
        [
            (TWO_PARTY, 1, (1, 4, 3)),
            (TWO_PARTY, 16, (16, 64, 48)),
            (THREE_PARTY, 2, (2, 30, 18)),
            (THREE_PARTY, 4, (4, 60, 36)),
            (FIVE_PARTY, 2, (2, 40, 100)),
            (PPGV, 6, (6, 24, 12)),
        ],
    )
    def test_counts(self, protocol, n, expected):
        assert preset_counts(protocol, n) == ResourceCount(*expected)

    def test_ppgv_eta(self):
        report = qubit_efficiency(preset_counts(PPGV, 6))
        assert report.eta == Fraction(1, 6)
        assert report.eta_percent == "16.67%"

    @pytest.mark.parametrize("n", [2, 10, 64, 1000])
    def test_eta_independent_of_n(self, n):
        expected = {
            TWO_PARTY: Fraction(1, 7),
            THREE_PARTY: Fraction(1, 24),
            FIVE_PARTY: Fraction(1, 70),
            PPGV: Fraction(1, 6),
        }
        for protocol, eta in expected.items():
            assert qubit_efficiency(preset_counts(protocol, n)).eta == eta

    def test_eta_decreases_with_party_count(self):
        etas = [
            qubit_efficiency(preset_counts(p, 8)).eta
            for p in (TWO_PARTY, THREE_PARTY, FIVE_PARTY)
        ]
        assert etas[0] > etas[1] > etas[2]

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            preset_counts("four-party", 2)

    @pytest.mark.parametrize("n", [0, -2])
    def test_key_length_must_be_positive(self, n):
        with pytest.raises(ValueError, match="n must be positive"):
            preset_counts(TWO_PARTY, n)


class TestTranscriptTally:
    def test_two_party_tally(self):
        r = run_two_party(ProtocolConfig(key_bits=16, seed=1))
        assert count_from_transcript(r.transcript) == ResourceCount(16, 64, 48)

    def test_three_party_tally(self):
        r = run_three_party(ProtocolConfig(key_bits=4, party_count=3, seed=1))
        assert count_from_transcript(r.transcript) == ResourceCount(4, 60, 36)

    def test_five_party_tally(self):
        r = run_five_party(ProtocolConfig(key_bits=2, party_count=5, seed=1))
        assert count_from_transcript(r.transcript) == ResourceCount(2, 40, 100)

    def test_tally_matches_preset_across_random_runs(self):
        for run_index in range(100):
            r = run_two_party(ProtocolConfig(key_bits=8, seed=2, run_index=run_index))
            assert count_from_transcript(r.transcript) == preset_counts(TWO_PARTY, 8)
        for run_index in range(100):
            r = run_three_party(
                ProtocolConfig(key_bits=6, party_count=3, seed=3, run_index=run_index)
            )
            assert count_from_transcript(r.transcript) == preset_counts(THREE_PARTY, 6)
        for run_index in range(100):
            r = run_five_party(
                ProtocolConfig(key_bits=4, party_count=5, seed=4, run_index=run_index)
            )
            assert count_from_transcript(r.transcript) == preset_counts(FIVE_PARTY, 4)

    def test_aborted_transcript_rejected(self):
        t = Transcript(TWO_PARTY, 4)
        t.aborted = True
        with pytest.raises(ValueError):
            count_from_transcript(t)

    def test_mismatched_tally_surfaces(self):
        r = run_two_party(ProtocolConfig(key_bits=4, seed=5))
        doctored = r.transcript
        doctored.log("extra", "Alice", "key-announcement", {"key": "00"}, counted_bits=4)
        with pytest.raises(ValueError, match="disagrees"):
            count_from_transcript(doctored)


class TestTables:
    def test_rows_reproduce_comparison(self):
        rows = {row["protocol"]: row for row in efficiency_rows(2)}
        assert rows[TWO_PARTY]["eta_fraction"] == "1/7"
        assert rows[TWO_PARTY]["eta_percent"] == "14.29%"
        assert rows[THREE_PARTY]["eta_fraction"] == "1/24"
        assert rows[THREE_PARTY]["eta_percent"] == "4.17%"
        assert rows[FIVE_PARTY]["eta_fraction"] == "1/70"
        assert rows[FIVE_PARTY]["eta_percent"] == "1.43%"
        assert rows[PPGV]["eta_fraction"] == "1/6"
        assert rows[PPGV]["eta_percent"] == "16.67%"

    def test_csv_emission(self):
        table = efficiency_table_csv(2)
        parsed = list(csv.DictReader(io.StringIO(table)))
        assert len(parsed) == 4
        assert parsed[0]["protocol"] == TWO_PARTY
        assert parsed[0]["eta_fraction"] == "1/7"

    def test_json_emission(self):
        payload = json.loads(efficiency_table_json(2))
        assert payload["schema"] == "qka.efficiency/1"
        fractions = {row["protocol"]: row["eta_fraction"] for row in payload["rows"]}
        assert fractions == {
            TWO_PARTY: "1/7",
            THREE_PARTY: "1/24",
            FIVE_PARTY: "1/70",
            PPGV: "1/6",
        }
