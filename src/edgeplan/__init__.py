"""Channel-adaptive planning for early-exit edge inference.

A closed-form accuracy model for quantized angular features, latency/EPR
system model, a rate-maximizing (bit-width, depth) planner, and a Monte
Carlo simulator that validates the model end to end.
"""

from .accuracy import (
    FeatureProfile,
    QuantizerSpec,
    accuracy_erf_approx,
    accuracy_model,
    accuracy_of_kappa,
    error_scaling,
    grad_energy,
    kappa_bar,
    kappa_distorted,
    min_depth_for_accuracy,
    quant_variance,
)
from .circstats import (
    KAPPA_MAX,
    AngularSampleSet,
    KappaResult,
    VonMisesParams,
    bessel_ratio,
    bessel_ratio_inv,
    estimate_kappa,
    estimate_kappa_pooled,
    vm_sample,
    wrap_angle,
    wrapped_gaussian_kappa,
)
from .config import ConfigError, MonteCarloConfig, RunConfig, load_config, parse_config
from .fitting import AffineFit, DepthSeries, ExponentialFit, fit_affine, fit_exponential
from .optimizer import ExitSet, Plan, brute_force, solve_cr, solve_discrete
from .rng import derive_seed, make_rng
from .simulator import (
    AccuracyEstimate,
    AngularDataset,
    BatchSummary,
    SweepRow,
    TaskRecord,
    classify_map,
    distort,
    empirical_accuracy,
    generate_dataset,
    run_algorithm1,
    sweep,
)
from .system import (
    ComputeProfile,
    LinkState,
    comm_latency,
    comp_latency,
    epr,
    max_bitwidth_continuous,
    max_bitwidth_discrete,
    shannon_rate,
    snr_db_to_linear,
    snr_linear_to_db,
)

__version__ = "0.1.0"
