"""Exact tooling for periodic orbits of one-dimensional cellular automata.

The package computes with two closed classes of configurations -- spatially
periodic and eventually periodic -- on which a cellular automaton can be
iterated exactly, and layers on top of that engine the classification of
additive rules over Z_m (surjectivity, the sensitivity dichotomy, CRT
factorisation, the boundary-index trichotomy) together with searches for
strictly temporally periodic points: configurations that return to
themselves in time without being periodic in space.
"""

from .additive import (
    ClassificationReport,
    FactorClass,
    FactorReport,
    PermutativePowerCert,
    PrimePowerFactor,
    StpVerdict,
    boundary_indices,
    classify_additive,
    classify_prime_power,
    crt_join_letter,
    decompose_crt,
    enumerate_additive_rules,
    is_surjective_additive,
    permutative_power,
    prime_power_factorization,
    report_to_dict,
    report_to_json,
)
from .configs import (
    Config,
    ConfigSpecError,
    CyclicConfig,
    EpConfig,
    is_spatially_periodic,
    parse_config,
    primitive_root,
    render_config,
    shift,
)
from .engine import (
    CycleResult,
    CycleTimeout,
    SpaceTimeTrace,
    ascii_render,
    pgm_render,
    space_time,
    step,
    temporal_cycle,
)
from .oracles import (
    EquicontinuityCert,
    OracleUnknown,
    equicontinuity_oracle,
    surjectivity_oracle,
)
from .periodicity import (
    BlockingCert,
    BlockingMiss,
    BlockingStatus,
    DegenerateUError,
    JpCensus,
    ScanBounds,
    ScanResult,
    StpWitness,
    WitnessMiss,
    blocking_word_search,
    jointly_periodic_points,
    product_witness_scan,
    stp_empty_scan,
    stp_witness,
    stp_witness_additive,
)
from .rules import (
    AdditiveRule,
    NotSurjectiveError,
    ResourceCapError,
    RuleSpecError,
    TableRule,
    canonicalize_table,
    compose_additive,
    compose_table,
    parse_rule_spec,
    power_additive,
    product_rule,
    render_rule_spec,
    table_from_additive,
)

__version__ = "0.1.0"
