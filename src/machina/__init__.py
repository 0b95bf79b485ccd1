"""Classical and quantum models of finite stochastic processes, compared by
majorization of their stationary memory distributions."""

from .distributions import (
    ALPHA_GRID,
    ComparisonReport,
    Distribution,
    LorenzCurve,
    MajorizationVerdict,
    TransferOp,
    apply_transfer,
    chain_to_doubly_stochastic,
    compare,
    lorenz_curve,
    pad_to,
    renyi_entropy,
    renyi_negentropy,
    replay_chain,
    transfer_chain,
    validate_distribution,
)
from .hmm import (
    FinitePredictiveModel,
    models_equal,
    parse_model,
    renyi_memory,
    serialize_model,
    split_state,
    stationary,
    word_distribution,
    word_probability,
)
from .minimize import (
    StatePartition,
    is_epsilon_machine,
    merge,
    refine_partition,
    strong_minimality_report,
)
from .quantum import (
    PureStateQuantumModel,
    build_qmachine,
    classical_equivalent,
    completeness_residual,
    embed_states,
    gram_fixed_point,
    memory_spectrum,
    parse_quantum_model,
    serialize_quantum_model,
    spectrum,
    stationary_density,
    strong_advantage_report,
)
from .qubit_family import (
    CandidateModel2D,
    candidate,
    counterexample_report,
    frame_residual,
    uniqueness_sweep,
)

__version__ = "0.1.0"
