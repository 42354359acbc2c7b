"""Stabilized local explanations for black-box models.

The package explains a single prediction by fitting a locally weighted
sparse linear model on synthetic perturbations, and stabilizes the selected
feature set by testing, at every step of the selection path, whether the
choice would survive regenerating the perturbations: when it would not, the
sample is grown adaptively until it would (or a budget is hit).
"""

from .errors import (DegenerateInputError, ModelQueryError, SingularityError,
                     SlimeError, ValidationError)
from .explainer import (Explanation, ExplainerConfig, lime_explain,
                        slime_explain)
from .models import BatchFileModel, LinearModel, MarsModel, parse_model_spec
from .sampling import InstanceSpec, build_dataset, extend_dataset
from .stability_testing import (entry_test, product_covariance,
                                required_sample_size)
from .bench import repeat_explanations
from .weighted_lars import (DesignMatrix, lars_lasso_path, refit_least_squares,
                            standardize)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SlimeError", "ValidationError", "DegenerateInputError",
    "SingularityError", "ModelQueryError",
    # explainers
    "ExplainerConfig", "Explanation", "slime_explain", "lime_explain",
    "repeat_explanations",
    # inputs and models
    "InstanceSpec", "build_dataset", "extend_dataset", "MarsModel",
    "LinearModel", "BatchFileModel", "parse_model_spec",
    # solver and entry test
    "DesignMatrix", "standardize", "lars_lasso_path",
    "refit_least_squares", "product_covariance", "entry_test",
    "required_sample_size",
]
