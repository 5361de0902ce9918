"""Orthogonal-state quantum key agreement: simulator and analysis toolkit.

Exact small-register statevector simulation, phase-free Pauli group
algebra, two-/three-/five-party key agreement engines with decoy-based
disturbance checks, pluggable adversary models, and exact-rational
resource accounting.
"""

__version__ = "0.1.0"

from .adversaries import AdversaryKind, AdversaryModel, attack_transit
from .efficiency import (
    EfficiencyReport,
    ResourceCount,
    count_from_transcript,
    preset_counts,
    qubit_efficiency,
)
from .pauli import (
    GroupElement,
    PauliLetter,
    Subgroup,
    check_disjoint,
    dense_coding_orthogonal,
    mul,
    product_set,
    standard_subgroups_g2,
    validate_scheme,
)
from .protocols import (
    InvalidSchemeError,
    PermutationRecord,
    ProtocolConfig,
    ProtocolResult,
    encode_key,
    insert_decoys_and_permute,
    run_batch,
    run_five_party,
    run_protocol,
    run_three_party,
    run_two_party,
    verify_decoys,
)
from .registers import (
    BellOutcome,
    FourQubitState,
    QubitStore,
    RegisterCapacityError,
    StateRegister,
    UnknownQubitError,
    inner_product,
)

__all__ = [
    "AdversaryKind",
    "AdversaryModel",
    "BellOutcome",
    "EfficiencyReport",
    "FourQubitState",
    "GroupElement",
    "InvalidSchemeError",
    "PauliLetter",
    "PermutationRecord",
    "ProtocolConfig",
    "ProtocolResult",
    "QubitStore",
    "RegisterCapacityError",
    "ResourceCount",
    "StateRegister",
    "Subgroup",
    "UnknownQubitError",
    "attack_transit",
    "check_disjoint",
    "count_from_transcript",
    "dense_coding_orthogonal",
    "encode_key",
    "inner_product",
    "insert_decoys_and_permute",
    "mul",
    "preset_counts",
    "product_set",
    "qubit_efficiency",
    "run_batch",
    "run_five_party",
    "run_protocol",
    "run_three_party",
    "run_two_party",
    "standard_subgroups_g2",
    "validate_scheme",
    "verify_decoys",
]
