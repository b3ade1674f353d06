"""Bias-corrected predictive criteria for Bayesian models.

Computes the posterior-averaging information criterion (PAIC) together with
BPIC, WAIC2, DIC, the expected-deviance penalized loss, and exact
leave-one-out cross-validation, for a normal location model with conjugate
(or flat) prior and a hierarchical binomial-logit random-effects model.
Includes replication harnesses that calibrate every bias estimator against
an independent out-of-sample oracle.
"""

from ._version import __version__
from .calculus import GradientCheckReport, check_gradient, grad_fd, hess_fd
from .criteria import (
    ClosedFormBias,
    CriterionReport,
    GridSummary,
    PointwiseLogLik,
    bpic,
    closed_form_bias_estimators,
    closed_form_insample_loglik,
    dic,
    grid_summary,
    loo_exact,
    mean_insample_loglik,
    paic,
    pointwise_loglik,
    popt_closed_form,
    waic2,
)
from .exceptions import (
    ExperimentError,
    GridBorderError,
    IllConditionedError,
    ImproperPriorError,
    NonConvergenceError,
    NotPositiveDefiniteError,
    NumericalError,
    PaicError,
    SingularHessianError,
    UnsupportedModelError,
    ValidationError,
)
from .experiments import (
    ExperimentResult,
    LogitExperimentConfig,
    NormalExperimentConfig,
    run_logit_experiment,
    run_normal_bias_experiment,
    true_bias_normal,
    true_predictive_loglik_exact,
)
from .infomat import (
    InfoMatrixPair,
    TraceCorrection,
    compute_hess_info,
    compute_score_info,
    info_matrix_pair,
    trace_correction,
)
from .mcmc import (
    Diagnostics,
    PosteriorDraws,
    SamplerBudget,
    ess,
    rhat,
    sample_conjugate_normal,
    sample_hier_logit,
)
from .models import (
    ConjugateNormalModel,
    HierLogitModel,
    ModelDefinition,
    ObservationSet,
    conjugate_posterior,
    loglik_total,
    logpost_unnorm,
)
from .optimize import (
    LaplaceApprox,
    ModeResult,
    find_posterior_mode,
    laplace_approx,
    posterior_mode,
)
from .rng import substream
