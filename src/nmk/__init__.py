"""Non-Markovianity measures, free-operation simulation and communication
cost ledgers for tripartite quantum states."""

__version__ = "0.1.0"

from .registers import Party, Register, RegisterLayout, layout
from .states import (
    BlockState,
    ChannelMap,
    DensityState,
    PureState,
    apply_channel,
    dim_budget,
    fidelity,
    partial_trace,
    purify,
    tensor,
    trace_distance,
)
from .rand import sample
from .entropy import (
    EntropyReport,
    conditional_entropy,
    cqmi,
    entropy,
    entropy_report,
    mutual_info,
    nonmarkovianity,
    party_partition,
)
from .markov import (
    MarkovComponents,
    MarkovEntry,
    MarkovScore,
    build_markov,
    markov_score,
    petz_recover,
    preparation_script,
)
from .steps import (
    CostLedger,
    Scenario,
    ScriptClass,
    Step,
    StepKind,
    apply_step,
    classify_script,
    dilution_conversion_cost,
    run_script,
)
from .witness import (
    Witness,
    WitnessGroups,
    ab_ensemble_from_witness,
    baseline_witnesses,
    check_witness,
    continuity_bound,
    markov_witness,
    objective,
    witness_from_ab_ensemble,
    witness_from_isometry,
    witness_local_channel,
    witness_mix,
    witness_regroup,
    witness_relabeled,
    witness_tensor,
    witness_transport_e,
)
from .nmf import EstimateConfig, NmfEstimate, estimate, two_copy_bracket
from .csquashed import (
    EsqcConfig,
    EsqcEstimate,
    esqc_objective,
    estimate_esqc,
    extension_crosscheck,
)
from .zoo import ZooScript, zoo

__all__ = [name for name in dir() if not name.startswith("_")]
