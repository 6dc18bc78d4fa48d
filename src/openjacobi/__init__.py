"""Simulation and verification lab for open-market growth optimality under
hybrid Jacobi market-weight dynamics."""

from .boundary import (
    BoundaryQuery,
    FrequencyTable,
    mc_hit_frequency,
    nameset_avoids_zero,
    rank_avoids_zero,
    rank_pushed_only,
)
from .invariant import (
    ErgodicReport,
    SampleResult,
    SamplerStallError,
    density_p,
    density_q,
    ergodic_compare,
    make_statistic,
    normalizer,
    sample_invariant,
)
from .pdlimit import (
    PDConfig,
    PDSample,
    convergence_experiment,
    limit_growth_rate,
    make_schedule,
    moment_recursion,
    pd_power_sums,
    pd_sample,
    power_sum,
    tilted_estimator,
)
from .portfolio import (
    ExpLinearGenerator,
    GrowthReport,
    WealthLedger,
    WealthObserver,
    expand_open,
    foc_residual,
    generated_theta,
    growth_exists,
    growth_optimal_theta,
    master_formula,
    optimal_rank_holdings,
    robust_growth_rate,
    shift_self_financing,
    wealth,
)
from .sde import (
    BatchResult,
    HitObserver,
    OccupationObserver,
    SimPath,
    TimeAverageObserver,
    drift,
    run_paths,
    simulate,
    simulate_given_noise,
)
from .simplex import (
    DivergentIntegralError,
    InvalidModelError,
    ModelParams,
    ParamReport,
    QuadratureError,
    SimplexError,
    as_ranked,
    as_simplex,
    diffusion_c,
    monomial_integral,
    monomial_integral_finite,
    ranking_order,
    ranks_of_names,
    tail_sums,
    validate_params,
)

__version__ = "0.1.0"
