"""Bell regression for overdispersed counts, with restricted, pretest, and
James-Stein shrinkage estimation plus their asymptotic risk theory."""

from .asymptotics import LocalAlternative, asymptotic_amse, asymptotic_bias
from .bell_dist import BellParam
from .bell_glm import Dataset, FittedModel, aic, fit, loglik
from .shrinkage import EstimatorSet, LinearRestriction, compute_all, load_restriction
from .special_fn import (
    NoncentralChiSq,
    inv_moment,
    lambert_w0,
    log_bell,
    noncentral_chisq_cdf,
    truncated_inv_moment,
)

__all__ = [
    "BellParam",
    "Dataset",
    "EstimatorSet",
    "FittedModel",
    "LinearRestriction",
    "LocalAlternative",
    "NoncentralChiSq",
    "aic",
    "asymptotic_amse",
    "asymptotic_bias",
    "compute_all",
    "fit",
    "inv_moment",
    "lambert_w0",
    "loglik",
    "load_restriction",
    "log_bell",
    "noncentral_chisq_cdf",
    "truncated_inv_moment",
]

__version__ = "0.1.0"
