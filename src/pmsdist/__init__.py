"""Finite-sample and large-sample distributions of post-model-selection
estimators in Gaussian linear regression: exact formulas, limit formulas,
plug-in estimators, Monte Carlo checks, and scripted experiments.

Each public module's ``__all__`` declares its part of the API; the package
re-exports those lists and nothing else."""

from . import (cdf_estimators, dist_exact, dist_limit, errors, experiments, fixtures,
               montecarlo, regression_core, selection)
from .cdf_estimators import *
from .dist_exact import *
from .dist_limit import *
from .errors import *
from .experiments import *
from .fixtures import *
from .montecarlo import *
from .regression_core import *
from .selection import *

__version__ = "0.1.0"

__all__ = [name for module in (cdf_estimators, dist_exact, dist_limit, errors, experiments,
                               fixtures, montecarlo, regression_core, selection)
           for name in module.__all__]
