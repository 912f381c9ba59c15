"""Long-run covariance estimation for stationary functional time series.

The pipeline: curves observed on a shared uniform midpoint grid go through a
kernel lag-window estimator of the long-run covariance surface, bandwidth can
be chosen by a plug-in rule minimizing the asymptotic mean squared error, the
estimated surface is eigendecomposed into functional principal components
with normal-approximation confidence intervals, and a seeded Monte Carlo
harness checks the distributional approximations on processes whose long-run
covariance is known exactly.
"""

# each module's __all__ is the one list of its public names
from . import errors, grid, kernels, estimator, fpca, simulate, mc
from .errors import *
from .grid import *
from .kernels import *
from .estimator import *
from .fpca import *
from .simulate import *
from .mc import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__, *grid.__all__, *kernels.__all__, *estimator.__all__,
    *fpca.__all__, *simulate.__all__, *mc.__all__, "__version__",
]
