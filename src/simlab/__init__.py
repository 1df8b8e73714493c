"""simlab: shape-invariant-model simulation and Bayesian inference."""

__version__ = "0.1.0"

from .fourier import (
    FourierSeries,
    evaluate,
    h1_norm,
    is_phase_normalized,
    project,
    rotate,
    sobolev_s_norm,
)
from .shifts import (
    Discrete,
    FourierDensity,
    GridDensity,
    ShiftDistribution,
    discretize,
    fourier_coeff,
    sample,
    sobolev_radius,
    tv_density,
    wasserstein1,
)
from .model import ObservationSet, load, save, simulate
from .mixture import (
    MixtureLaw,
    gaussian_density,
    girsanov_log_ratio,
    log_likelihood,
)
from .distances import (
    DistanceEstimate,
    check_sandwich,
    e1_bound,
    e3_bound,
    hellinger_point_shift,
    mc_distance,
    tv_bound_f,
    tv_bound_g,
    tv_gaussians,
)
from .priors import (
    DirichletPriorConfig,
    SievePriorConfig,
    SmoothPriorConfig,
    j_operator,
    lambda_pmf,
    psi,
    sample_dp,
    sample_f,
    sample_smooth,
)
from .posterior import (
    ContractionConfig,
    GibbsSampler,
    PosteriorEnsemble,
    PriorConfig,
    ball_mass,
    contraction_experiment,
    gibbs_posterior,
    importance_posterior,
)
from .nets import (
    FanoNet,
    bracketing_net,
    fano_f_net,
    fano_g_net,
    fano_tv_certificate,
    finite_mixture_match,
    g_separation,
    identifiability_probe,
    make_fano_net,
)
from .special import a_n, a_n_quadrature, bessel_i, normal_cdf
