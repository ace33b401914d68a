"""pefkit: perfect erasure functions over finite categorical distributions.

Construct erasure maps that remove a concept variable from categorical
representations with zero analytic information leakage, verify the utility
outer bound H(X|A) and the funnel envelope, and measure runs empirically.
"""

from .dist import (
    Categorical,
    DataConstraintError,
    DistError,
    FunnelCurve,
    GroupedData,
    Permutation,
    PicSpectrum,
    check_permutation_equal,
    conditional_entropy_x_given_a,
    entropy,
    erasure_feasible,
    funnel_bounds,
    mutual_information_ax,
    pic_spectrum,
)
from .coupling import (
    Coupling,
    CouplingError,
    InstanceTooLarge,
    PgdResult,
    conditional_rows,
    coupling_entropy,
    greedy_mec,
    mec_oracle,
    pgd_solve,
)
from .qopt import (
    BoConfig,
    QCandidate,
    bayes_opt_q,
    default_out_size,
    objective_j,
    output_support,
    scan_stationary,
    select_q,
)
from .pef import (
    ErasureFunction,
    ErasureReport,
    Sample,
    analyze,
    apply,
    as_samples,
    build_deterministic_pef,
    build_pef,
    build_stochastic_pef,
    default_tol,
    grouped_from_samples,
    load_function_json,
    read_erased_csv,
    read_samples_csv,
    run_algorithm1,
    save_function_json,
    write_erased_csv,
    write_samples_csv,
)
from .synth import SynthConfig, bell_profile, generate
from .evaluate import (
    AlignmentError,
    JointCounts,
    TradeoffPoint,
    emit_tradeoff_csv,
    empirical_dist,
    evaluate_run,
    plugin_mi,
    tv_distance,
)

__version__ = "0.1.0"
