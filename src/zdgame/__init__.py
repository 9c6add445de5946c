"""Discounted repeated prisoner's dilemma with zero-determinant strategies.

Expected payoffs in determinant form, enforcer (ZD) strategy construction
and validation, analytic payoff gradients, and gradient-ascent adaptation
of the opponent.
"""

from .adaptive import (
    AdaptingPath,
    PathResult,
    PathStep,
    SimConfig,
    fd_gradient,
    initial_strategy,
    run_path,
    step,
    sweep,
)
from .errors import (
    DegenerateError,
    DomainError,
    InfeasibleError,
    MaxStepsError,
    NotRelayError,
    NumericalError,
)
from .game import (
    PayoffParams,
    StateDistribution,
    Strategy,
    initial_distribution,
    transition_matrix,
    validate_delta,
    validate_payoffs,
)
from .gradients import (
    FactorDecomposition,
    Gradient,
    RelayClassification,
    TerminalClassification,
    classify_relay,
    classify_terminal,
    common_factor,
    gradient_factorized,
    gradient_quotient,
    minor_dets,
    q0_reduction_vector,
    reduced_det_q0,
    reduced_dets,
    row_reduction_vector,
    zero_gradient_condition,
)
from .payoffs import (
    PayoffPair,
    payoff_determinant,
    payoff_inverse,
    payoff_series,
    series_horizon,
    state_determinant,
)
from .tables import (
    CellReport,
    applicable_tables,
    corner_table,
    table_report,
    verify_tables,
)
from .zd import (
    NotZD,
    PcZDReport,
    ZDParams,
    critical_discount,
    feasible_phi_interval,
    is_pczd,
    make_zd,
    recover_zd,
    sample_pczd,
    verify_linear_relation,
    zd_consistency_residual,
)

__version__ = "0.1.0"
