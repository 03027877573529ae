"""ringbreak: attack laboratory for broadcast-free multiparty protocols.

Run locally-defined protocols on a message-passing engine, splice honest
parties into large offline rings to pre-commit their outputs, classify which
functions survive (dominance), and double-check the matching upper bound
(a threshold-oracle wrapper that converts abort into the dominated value).
"""

from .coinflip import (
    BiasAttackResult,
    BiasReport,
    BiasVerdict,
    bias_attack,
    measure_bias,
    pilot_polarity,
    verify_no_nontrivial_bias,
)
from .compiler import (
    ComparisonReport,
    HybridAdversary,
    IdealDecision,
    WrappedProtocol,
    always_abort_adversary,
    coin_abort_adversary,
    compare_real_ideal,
    enumerate_decisions,
    forcing_inputs,
    full_ideal_exec,
    never_abort_adversary,
    simulate_ideal,
    wrap_dominated,
)
from .core import (
    BOT,
    BitInput,
    CoinStream,
    ConfigError,
    FusedInput,
    InputDomain,
    JointEntry,
    JointInput,
    PartyProgram,
    ProtocolSpec,
    RUNNING,
    RawInput,
    RoundBound,
    SpecViolation,
    TopologyViolation,
    derive_seed,
    outcome_repr,
)
from .dominance import (
    Classification,
    CollapseVerdict,
    COMPUTABLE,
    CONDITIONAL,
    DominanceProfile,
    DominanceWitness,
    FunctionTable,
    NOT_COMPUTABLE,
    and_table,
    classify,
    constant_table,
    dominance_profile,
    forced_value,
    is_k_dominated,
    is_weakly_k_dominated,
    or_table,
    pair_and_or_table,
    table_from_fn,
    threshold_table,
    verify_weak_implies_strong,
    xor_table,
)
from .netsim import (
    AdversaryStrategy,
    ConsistencyReport,
    ExecutionResult,
    ValidationReport,
    check_consistency,
    estimate_consistency,
    result_fingerprint,
    run_honest,
    run_with_adversary,
    validate_spec,
)
from .ring import (
    AttackAdversary,
    AttackPhase1Result,
    NPartyAttack,
    NeighborEmbeddingAdversary,
    Partition,
    RingNetwork,
    VirtualRing,
    attack_n_party,
    attack_ring_size,
    embedding_family,
    fuse_parties,
    partition_to_three,
    phase1_expected,
    phase1_strict,
    ring_distance,
)
from .stats import proportion_sigma, statistical_distance, wilson_interval
from .zoo import ZOO, make_spec

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
