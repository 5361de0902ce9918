"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its stated tolerance and time budget."""

import itertools
import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from qka.adversaries import AdversaryKind, AdversaryModel
from qka.cli import main
from qka.efficiency import preset_counts, qubit_efficiency
from qka.pauli import (
    GroupElement,
    PauliLetter,
    canonical_order,
    check_disjoint,
    dense_coding_orthogonal,
    group_g1,
    group_g2,
    mul,
    standard_subgroups_g2,
    validate_scheme,
)
from qka.protocols import (
    ProtocolConfig,
    run_five_party,
    run_three_party,
    run_two_party,
    xor_bits,
)
from qka.registers import (
    BellOutcome,
    FourQubitState,
    QubitStore,
    StateRegister,
    apply_element,
    four_qubit_vector,
    inner_product,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"[criterion {number:2d}] {name}: FAIL")
        raise
    print(f"[criterion {number:2d}] {name}: PASS")


def binomial_band(p, trials, sigmas=3.0):
    sigma = math.sqrt(p * (1 - p) / trials)
    return p - sigmas * sigma, min(1.0, p + sigmas * sigma)


def test_criterion_1_efficiency_reproduction(capsys):
    with criterion(1, "efficiency table reproduces the exact fractions"):
        start = time.perf_counter()
        code = main(["efficiency", "--table", "--format", "json"])
        out = capsys.readouterr().out
        elapsed = time.perf_counter() - start
        assert code == 0
        rows = {r["protocol"]: r for r in json.loads(out)["rows"]}
        expected = {
            "two-party": (Fraction(1, 7), "14.29%"),
            "three-party": (Fraction(1, 24), "4.17%"),
            "ppgv": (Fraction(1, 6), "16.67%"),
            "five-party": (Fraction(1, 70), "1.43%"),
        }
        for protocol, (eta, percent) in expected.items():
            num, den = rows[protocol]["eta_fraction"].split("/")
            assert Fraction(int(num), int(den)) == eta
            assert rows[protocol]["eta_percent"] == percent
            rc = preset_counts(protocol, 8)
            assert qubit_efficiency(rc).eta == eta
        assert elapsed < 1.0


def test_criterion_2_encoding_table_by_simulation():
    with criterion(2, "encoding table reproduced by simulation, zero tolerance"):
        I, X, Z = PauliLetter.I, PauliLetter.X, PauliLetter.Z
        rows = [
            ((I, I), (I, I), BellOutcome.PSI_PLUS),
            ((I, I), (I, Z), BellOutcome.PSI_MINUS),
            ((I, X), (I, I), BellOutcome.PHI_PLUS),
            ((I, X), (I, Z), BellOutcome.PHI_MINUS),
        ]
        for first, second, expected in rows:
            for seed in range(100):
                store = QubitStore()
                a, b = store.new_bell(BellOutcome.PSI_PLUS)
                store.apply_pauli(GroupElement.of(*first), (a, b))
                store.apply_pauli(GroupElement.of(*second), (a, b))
                outcome = store.measure_bell(a, b, np.random.default_rng(seed))
                assert outcome is expected


def test_criterion_3_two_party_agreement():
    with criterion(3, "two-party agreement: 1000 runs at n=128"):
        start = time.perf_counter()
        for i in range(1000):
            r = run_two_party(ProtocolConfig(key_bits=128, seed=1000, run_index=i))
            assert not r.aborted
            truth = xor_bits(r.private_keys["Alice"], r.private_keys["Bob"])
            assert np.array_equal(r.derived_keys["Alice"], truth)
            assert np.array_equal(r.derived_keys["Bob"], truth)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0


def test_criterion_4_three_party_agreement():
    with criterion(4, "three-party agreement: 500 runs at n=64"):
        start = time.perf_counter()
        for i in range(500):
            r = run_three_party(
                ProtocolConfig(key_bits=64, party_count=3, seed=2000, run_index=i)
            )
            assert not r.aborted
            truth = xor_bits(*r.private_keys.values())
            assert all(np.array_equal(key, truth) for key in r.derived_keys.values())
        elapsed = time.perf_counter() - start
        assert elapsed < 20.0


def test_criterion_5_five_party_construction():
    with criterion(5, "five-party scheme selection and 5-way agreement"):
        subs = standard_subgroups_g2()
        omega = StateRegister((0, 1, 2, 3), four_qubit_vector(FourQubitState.OMEGA))
        accepted = set()
        multisets = list(itertools.combinations_with_replacement(range(6), 4))
        assert len(multisets) == 126
        for combo in multisets:
            if validate_scheme(tuple(subs[i] for i in combo), omega, (0, 2)):
                accepted.add(combo)
        assert accepted == {(0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 5)}

        quadruples = ("1234", "1256", "3456")
        for state in ("omega", "cluster"):
            for i in range(100):
                r = run_five_party(
                    ProtocolConfig(
                        key_bits=16, party_count=5, seed=3000, run_index=i,
                        five_party_state=state,
                        five_party_rounds=quadruples[i % 3],
                    )
                )
                assert not r.aborted
                truth = xor_bits(*r.private_keys.values())
                assert all(np.array_equal(key, truth) for key in r.derived_keys.values())


def test_criterion_6_dense_coding_orthogonality():
    with criterion(6, "dense-coding Gram matrices are the identity"):
        elements = canonical_order(group_g2())
        for kind in (FourQubitState.OMEGA, FourQubitState.CLUSTER):
            reg = StateRegister((0, 1, 2, 3), four_qubit_vector(kind))
            outputs = [apply_element(reg, u, (0, 2)) for u in elements]
            gram = np.array(
                [[inner_product(a, b) for b in outputs] for a in outputs]
            )
            np.testing.assert_allclose(gram, np.eye(16), atol=1e-10)
            assert dense_coding_orthogonal(reg, (0, 2), elements)


def test_criterion_7_eavesdropping_detection():
    with criterion(7, "intercept-resend detection rate within 3 sigma"):
        start = time.perf_counter()
        adversary = AdversaryModel(kind=AdversaryKind.INTERCEPT_RESEND_Z, fraction=1.0)
        trials = 2000
        aborts = 0
        for i in range(trials):
            r = run_two_party(
                ProtocolConfig(key_bits=16, seed=4000, run_index=i), adversary
            )
            aborts += r.aborted
        elapsed = time.perf_counter() - start
        low, high = binomial_band(1.0 - 0.5**8, trials)
        assert low <= aborts / trials <= high
        assert elapsed < 30.0


def test_criterion_8_insider_attack_failure():
    with criterion(8, "reordering insider succeeds only at (1/2)^k"):
        trials = 2000
        adversary = AdversaryModel(kind=AdversaryKind.DISHONEST_BOB_REORDER, swap_count=4)
        hits = 0
        for i in range(trials):
            r = run_two_party(
                ProtocolConfig(key_bits=32, seed=5000, run_index=i), adversary
            )
            assert not r.aborted
            hits += r.attack_report["alice_key_matches_target"]
        low, high = binomial_band(0.5**4, trials)
        assert low <= hits / trials <= high

        single = AdversaryModel(
            kind=AdversaryKind.DISHONEST_BOB_REORDER, swap_pairs=((0, 1),)
        )
        marginals = [Counter(), Counter()]
        swap_trials = 10_000
        for i in range(swap_trials):
            r = run_two_party(
                ProtocolConfig(key_bits=2, seed=6000, run_index=i), single
            )
            labels = r.outcome_records["Alice"]
            marginals[0][labels[0]] += 1
            marginals[1][labels[1]] += 1
        for counter in marginals:
            for label in ("psi+", "psi-", "phi+", "phi-"):
                assert abs(counter[label] / swap_trials - 0.25) < 0.03


def test_criterion_9_group_algebra_exhaustive():
    with criterion(9, "exhaustive group algebra checks"):
        # letter table against the raw matrix-product oracle
        matrices = {
            PauliLetter.I: np.eye(2, dtype=complex),
            PauliLetter.X: np.array([[0, 1], [1, 0]], dtype=complex),
            PauliLetter.IY: 1j * np.array([[0, -1j], [1j, 0]], dtype=complex),
            PauliLetter.Z: np.array([[1, 0], [0, -1]], dtype=complex),
        }
        for a in PauliLetter:
            for b in PauliLetter:
                prod = matrices[a] @ matrices[b]
                got = mul(GroupElement.of(a), GroupElement.of(b)).letters[0]
                ref = matrices[got]
                r, c = np.argwhere(np.abs(ref) > 0.5)[0]
                phase = prod[r, c] / ref[r, c]
                assert abs(abs(phase) - 1.0) < 1e-12
                np.testing.assert_allclose(prod, phase * ref, atol=1e-12)

        g1, g2 = group_g1(), group_g2()
        for a, b in itertools.product(g1, repeat=2):
            assert mul(a, b) in g1 and mul(a, b) == mul(b, a)
        for a, b, c in itertools.product(g1, repeat=3):
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
        for a, b in itertools.product(g2, repeat=2):
            assert mul(a, b) in g2 and mul(a, b) == mul(b, a)

        subs = standard_subgroups_g2()
        assert all(
            check_disjoint(x, y) for x, y in itertools.combinations(subs, 2)
        )


def test_criterion_10_deterministic_transcripts():
    with criterion(10, "identical seeds give byte-identical transcripts"):
        configs = [
            ProtocolConfig(key_bits=16, seed=42),
            ProtocolConfig(key_bits=8, party_count=3, seed=42),
            ProtocolConfig(key_bits=4, party_count=5, seed=42,
                           five_party_state="cluster", five_party_rounds="1256"),
        ]
        runners = {2: run_two_party, 3: run_three_party}
        for config in configs:
            runner = runners.get(config.party_count, run_five_party)
            first = runner(config)
            second = runner(config)
            assert first.to_json().encode() == second.to_json().encode()
            assert (
                json.dumps(first.transcript.to_dict(), sort_keys=True).encode()
                == json.dumps(second.transcript.to_dict(), sort_keys=True).encode()
            )
