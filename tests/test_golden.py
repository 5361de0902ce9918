"""Golden bytes: SHA-256 of ``qka`` stdout for fixed configurations.

The digests pin the exact output, keys, outcomes and transcript digests
included, so any change to the random stream or to what a run computes
shows up here. A change that alters the stream on purpose updates the
digests and records why in CHANGES.md. ``verify-groups`` and the
``efficiency`` table are pinned the same way.
"""

import hashlib

import pytest

from qka.adversaries import AdversaryKind, AdversaryModel
from qka.cli import main
from qka.protocols import ProtocolConfig, run_protocol

TWO, THREE, FIVE = "two-party", "three-party", "five-party"


def _run(protocol, n, seed, *flags):
    return ("run", "--protocol", protocol, "--key-bits", str(n), "--seed", str(seed), *flags)


FULL_INTERCEPT_Z = ("--adversary", "intercept-z", "--attack-fraction", "1", "--threshold", "1")

CASES = {
    **{
        f"{protocol}-n64-seed{seed}": _run(protocol, 64, seed)
        for protocol in (TWO, THREE, FIVE)
        for seed in range(3)
    },
    **{
        f"five-party-{state}-{rounds}": _run(
            FIVE, 16, 1, "--five-party-state", state, "--five-party-rounds", rounds
        )
        for state in ("omega", "cluster")
        for rounds in ("1234", "1256", "3456")
    },
    "batch-intercept-z": _run(TWO, 16, 2, "--trials", "40", "--adversary", "intercept-z"),
    "batch-intercept-bell": _run(
        TWO, 16, 2, "--trials", "40", "--adversary", "intercept-bell", "--attack-fraction", "0.5"
    ),
    "batch-dishonest-bob": _run(
        TWO, 32, 2, "--trials", "30", "--adversary", "dishonest-bob", "--swap-count", "4"
    ),
    "batch-dishonest-alice": _run(TWO, 16, 2, "--trials", "30", "--adversary", "dishonest-alice"),
    "batch-three-party-intercept-bell": _run(
        THREE, 16, 2, "--trials", "40", "--adversary", "intercept-bell", "--attack-fraction", "0.25"
    ),
    "three-party-intercept-bell": _run(
        THREE, 16, 5, "--adversary", "intercept-bell", "--attack-fraction", "0.5",
        "--threshold", "1",
    ),
    "five-party-intercept-z": _run(
        FIVE, 16, 5, "--adversary", "intercept-z", "--attack-fraction", "0.3", "--threshold", "1"
    ),
    "two-party-dishonest-bob": _run(TWO, 16, 5, "--adversary", "dishonest-bob"),
    "two-party-text": _run(TWO, 16, 5, "--format", "text"),
    **{f"{protocol}-n1024": _run(protocol, 1024, 3) for protocol in (TWO, THREE, FIVE)},
    # Single attacked runs that finish: their decode measures across registers.
    "two-party-intercept-z": _run(
        TWO, 16, 6, "--adversary", "intercept-z", "--attack-fraction", "0.5", "--threshold", "1"
    ),
    "two-party-intercept-bell": _run(
        TWO, 16, 6, "--adversary", "intercept-bell", "--attack-fraction", "0.5",
        "--threshold", "1",
    ),
    "two-party-dishonest-alice": _run(
        TWO, 16, 6, "--adversary", "dishonest-alice", "--threshold", "1"
    ),
    "three-party-intercept-z": _run(
        THREE, 16, 6, "--adversary", "intercept-z", "--attack-fraction", "0.5",
        "--threshold", "1",
    ),
    "batch-text": _run(THREE, 16, 4, "--trials", "12", "--format", "text"),
    # Attacked batches that never abort: each decode measures the attacked
    # copies across registers, off the bulk path.
    "batch-five-party-intercept-z": _run(
        FIVE, 16, 7, "--trials", "8", "--adversary", "intercept-z", "--attack-fraction", "0.3",
        "--threshold", "1",
    ),
    "batch-three-party-intercept-z": _run(
        THREE, 16, 7, "--trials", "8", "--adversary", "intercept-z", "--attack-fraction", "0.5",
        "--threshold", "1",
    ),
    # Fully attacked runs that finish: both qubits of every decoy pair are
    # hit, and each decode measures what the hits left of the kept copies.
    **{
        f"{protocol}-intercept-z-f1": _run(protocol, 16, 8, *FULL_INTERCEPT_Z)
        for protocol in (TWO, THREE, FIVE)
    },
    "batch-intercept-z-f1": _run(TWO, 16, 8, "--trials", "8", *FULL_INTERCEPT_Z),
    # Batches the ring engine runs as stacks of trials: the five-party-n16
    # benchmark shape, an honest three-party batch of several stacks, and a
    # five-party batch whose trials abort at different checks.
    **{
        f"batch-five-party-{state}-{rounds}": _run(
            FIVE, 16, seed, "--trials", "4", "--format", "json",
            "--five-party-state", state, "--five-party-rounds", rounds,
        )
        for state in ("omega", "cluster")
        for rounds, seed in (("1234", 1234), ("1256", 1256), ("3456", 3456))
    },
    "batch-three-party": _run(THREE, 16, 9, "--trials", "80", "--format", "json"),
    "batch-five-party-intercept-z-aborts": _run(
        FIVE, 16, 7, "--trials", "12", "--adversary", "intercept-z", "--attack-fraction", "0.3",
        "--threshold", "0.25",
    ),
    "verify-groups": ("verify-groups",),
    **{
        f"efficiency-table-{fmt}": ("efficiency", "--table", "--format", fmt)
        for fmt in ("text", "json", "csv")
    },
}

# The first 24 were generated from the output of the per-register
# implementation; the n=1024, attacked single-run and text-batch cases from
# the batched-train store that kept the per-register path beside it; the
# verify-groups and efficiency cases from the code that still checked the
# letter products against a copy of the phase-stripping algorithm; the
# attacked batches from the engine whose rings decoded through a function;
# the fully attacked (f1) cases from the store whose intercept-z measured
# and resent one slot at a time; the stacked batches (batch-five-party-*,
# batch-three-party) from the engine that ran a batch's trials one by one.
DIGESTS = {
    "batch-five-party-cluster-1234": "b0b7a4136e210b2e90ef1003588b245eecbc699c8fa7db37c5678f010b9b78a2",
    "batch-five-party-cluster-1256": "b70b06ffa907c145126ce9c641019143c53105de6cca39c4b28dd5186d5b74e6",
    "batch-five-party-cluster-3456": "836da7a7ea4611b1221b7c83f319a74f7da227bcd597996aa0b2266335ff54f0",
    "batch-five-party-intercept-z-aborts": "5d9b0f7a7453e151d6cce7bc7c28a4f74ca5d1acf199ab01756db1ea48454179",
    "batch-five-party-omega-1234": "b9d3c3708f0ae62e556b75fa1375e822c64c7163a9f633b8f6fa3f3a3636ed83",
    "batch-five-party-omega-1256": "4cbc3a2972233616f9edca8a2f0740c65bb21bb5c97698f60ea5491de4e02680",
    "batch-five-party-omega-3456": "33e91be874bf1523a96ae199ff637df0c8d5d5b6be5ca9a7390aad6165f5ed75",
    "batch-three-party": "6c56cc4cb64d71daed7125699e23d17a45e41d18810ddc6c0e466a0e263bbb37",
    "batch-dishonest-alice": "11df56a2b63dc4514e60cd5985569f2e5f7ee4470e893561062c8d98af2ae5bc",
    "batch-dishonest-bob": "04a94f44b0002022623585b66e674107e11ff3b9060d3fb29e10409fb1fb459f",
    "batch-five-party-intercept-z": "21fe7b7c281cb27b23ecc80176284626916f0891439dfbdf42db377284557aa7",
    "batch-intercept-bell": "d6ac84f403897fa877a8c02bbc124f4eee67f73b4d4a53152b8370710eed2776",
    "batch-intercept-z-f1": "28a60b0fcc36553910c41882969e1b7084df0a3fd5d32d80a8227821095dce6c",
    "batch-intercept-z": "930d56d5edd5c3685e6a9962f5024ac79f4f31aa54d0799fce6173affadddc57",
    "batch-text": "bd7814c9907c0e848a96778e2e7e1e78c782fc56e40fe452d1c7224384fe95e4",
    "batch-three-party-intercept-bell": "34b112cfd14e99a31f7a2043a04913120c2c8d2096466a74524589273f519a1b",
    "batch-three-party-intercept-z": "76665a699c7a0fa49c8179a44b685e0d4f8daf42c61abe888f37ac645abac9a7",
    "efficiency-table-csv": "9a6da73e1251755b6e82c878e1b3a9d9082f87a10bae4b4d26bbba7b1d38e168",
    "efficiency-table-json": "32de63cb45bc24138fd6e83ceeb8fe2c0fe28a5457375062b4d7868d8192d61d",
    "efficiency-table-text": "ea4651fc31c11f5a3027a5c75646e56a0e49d78e323492296f679072b831431b",
    "five-party-cluster-1234": "f3fb85b07edd0b7ba6368fc8c1834719ad4e5d81297c6d4f7d1f5b06ee03cebd",
    "five-party-cluster-1256": "a130365445a92ae65ba7a3ff501b885d3bd6f6b24e8fe1c67168c0b5f374664d",
    "five-party-cluster-3456": "e5fc925fb145d74bbdeb46de6693f04035f7ac6d0baddf05ca775602bebd3b8c",
    "five-party-intercept-z": "b7159cdc40b2fd4f86a36b8e92ad73fe4c12d9012ee91d3100c29824d7881c49",
    "five-party-intercept-z-f1": "a4f6b72e4ae2332e5d27ed8ae7d773b6684228dfcd8896afec593d20a6f036e9",
    "five-party-n1024": "b27ccfe09b9fc0568462783e500aedb384ab25f7bbd6128c646733b3b6a634e0",
    "five-party-n64-seed0": "78f6a6d8b846f3d7e7ad2c4b6e5e47b116365f49cc7fe7e7a134cf2914d45dbc",
    "five-party-n64-seed1": "5f9672b65cc65aa5341f1ef667bf68f96ddec8e5af5d5debb045264974ffee4e",
    "five-party-n64-seed2": "3d84d69215983a04295f9484062fa991636d4a537df96e0d65b5b3910425c858",
    "five-party-omega-1234": "f3fb85b07edd0b7ba6368fc8c1834719ad4e5d81297c6d4f7d1f5b06ee03cebd",
    "five-party-omega-1256": "a130365445a92ae65ba7a3ff501b885d3bd6f6b24e8fe1c67168c0b5f374664d",
    "five-party-omega-3456": "e5fc925fb145d74bbdeb46de6693f04035f7ac6d0baddf05ca775602bebd3b8c",
    "three-party-intercept-bell": "7567f320c12a58443ec909364ba6e84887302749c723932e63f5d77249a8ed53",
    "three-party-intercept-z": "90e77519f15f4d8f998708e3ddaa85870e622ec660cdd2d622e893eca7dff2bf",
    "three-party-intercept-z-f1": "96e79124a079c732390f9567bb3b2196d5ff89abecc59ad7403a242814c81b04",
    "three-party-n1024": "647d59972594723f1121128e77a9c35913ac5b6bd476320a7333e4900833a360",
    "three-party-n64-seed0": "89a9c3c645747845110fc9c568f0c1f3de330c07c9493cacbf84d3cb08062037",
    "three-party-n64-seed1": "d26a97c0c847001839c8d969fcd90ca5be353134a13379412e831fb53645332c",
    "three-party-n64-seed2": "c58f7f8f1febe220e8699a91f9350f700c54c13cccabae86f5d4d10630087344",
    "two-party-dishonest-alice": "93adcba0d2c4fd5690c54d336520ef69dd015cdadeb71eebded389377f06c8fe",
    "two-party-dishonest-bob": "52e3da6353be7f783aed00f26168d077f77da7eddf26b0d04d81b875b7ff2428",
    "two-party-intercept-bell": "7e8e45786e4ccb9b3f9dd7a8479481658a3d88f55559da04181578c0fd7557ea",
    "two-party-intercept-z": "71d6a2d3d476c81f2678f5bebda256f3ea63ad9a5c531cab91192498f2bcafe5",
    "two-party-intercept-z-f1": "73a8a4dd3b448c9f58ff3ba5664c1608b064998bc9f988fc7a98c71494be86f3",
    "two-party-n1024": "8c190085e6acd4bf54ad09a02b42cab53dcdca26f260871ad1d4b6b221331fbe",
    "two-party-n64-seed0": "95efe839cab5ce1528f6d44d9e41f3a45ee683f19d96b9dd5f4f84aa0fac3d54",
    "two-party-n64-seed1": "1c652fea16b00ab3ec22487b99de8c79174db17d76126e31adbc3c478d6c6c3d",
    "two-party-n64-seed2": "257b45b16ce2082b2960a7a71a66350589e03989f0674a4f42a80cc1dd41e7e8",
    "two-party-text": "c9145b0ebae90b698126936e607573303fbef2c20525e5da2cce8eeafa039b28",
    "verify-groups": "641fc6fb37905a824c24588f93a0bc40b1ac7ea56474b3069ac53ce8d8f07a30",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_digest(name, capsys):
    assert main(list(CASES[name])) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[name]


# Runs that abort at a later party's check, which pins the order of each
# party's disclosure, check and abort within a hop: ``ProtocolResult.to_json()``
# of n=16 runs under intercept-z at fraction 1 and threshold 0, seed 0, on
# the transmission (parties, index). Generated from the engine that checked
# one party at a time.
ABORT_DIGESTS = {
    (3, 1): "9014e0a6668d447e578d71333dea1868241ae507521124a51e9b997409c36045",
    (3, 2): "ecbbece73a8598ba82e7994ed27d6db0d338646aab1777032f303cecc5b86d14",
    (3, 4): "890d72d8ef0752b828fd16e95e1673d2bba2d834d3816d89ca700140d5ee8533",
    (5, 3): "2db13f9cafb510be0cc1061c8307584e598ae692e657ae87bc51b81a4397ceb8",
    (5, 8): "c69aa2cd7f47aca9a5e829f71b58878268e60973f37d0922bdc4774e4d39fbbf",
}


@pytest.mark.parametrize("parties, index", sorted(ABORT_DIGESTS))
def test_later_party_abort_digest(parties, index):
    config = ProtocolConfig(key_bits=16, party_count=parties, seed=0, error_threshold=0.0)
    adversary = AdversaryModel(
        kind=AdversaryKind.INTERCEPT_RESEND_Z, fraction=1.0, transmission_index=index
    )
    result = run_protocol(config, adversary)
    assert result.aborted and len(result.checks) == index + 1
    digest = hashlib.sha256(result.to_json().encode()).hexdigest()
    assert digest == ABORT_DIGESTS[(parties, index)]


def _fixed_keys(parties, n):
    return tuple(tuple((i * (2 * j + 3) // 5 + j) % 2 for i in range(n)) for j in range(parties))


# Library runs whose keys come from ``ProtocolConfig.fixed_keys``, the one key
# source no CLI call reaches: ``ProtocolResult.to_json()`` at n=16, seed 4.
# The attacked runs pass threshold 1, so decode reads the attacked copies.
# Generated from the engine that still held every key as a tuple of ints.
FIXED_KEY_CASES = {
    "two-party": (2, AdversaryKind.NONE),
    "three-party": (3, AdversaryKind.NONE),
    "five-party": (5, AdversaryKind.NONE),
    "five-party-intercept-z": (5, AdversaryKind.INTERCEPT_RESEND_Z),
    "two-party-dishonest-bob": (2, AdversaryKind.DISHONEST_BOB_REORDER),
    "two-party-dishonest-alice": (2, AdversaryKind.DISHONEST_ALICE_EARLY_MEASURE),
}
FIXED_KEY_DIGESTS = {
    "two-party": "3b5e59cfadccad59436ffafb0335ab00777fc41b9b5f6360108c8d9baded49e0",
    "three-party": "177224a6859948f061b49b9f1ead95e8df3298030fe69bd63f1181ee1a351eec",
    "five-party": "d7392ea25fd053763655e17501b03b4825dac05ebe8605bcd818faf4d97c88bb",
    "five-party-intercept-z": "3712d7de0d9e414fb5fca5e0dc600d91d557404e77acc73ed31879c267de0a2f",
    "two-party-dishonest-bob": "2bda358d2a7a910599d64a12b5360195ce73a463b4b1c2376629044c97a13a3e",
    "two-party-dishonest-alice": "93c3f8c2e51683c31386f90b8381dd577e7df3c1342c08c17372c415fd166672",
}


@pytest.mark.parametrize("name", sorted(FIXED_KEY_CASES))
def test_fixed_keys_digest(name):
    parties, kind = FIXED_KEY_CASES[name]
    config = ProtocolConfig(
        key_bits=16, party_count=parties, seed=4, fixed_keys=_fixed_keys(parties, 16),
        error_threshold=0.0 if kind is AdversaryKind.NONE else 1.0,
    )
    adversary = AdversaryModel(kind=kind, fraction=0.5, swap_count=3)
    digest = hashlib.sha256(run_protocol(config, adversary).to_json().encode()).hexdigest()
    assert digest == FIXED_KEY_DIGESTS[name]
