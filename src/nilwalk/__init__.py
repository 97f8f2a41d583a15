"""Random walks on nilpotent Lie groups with finite isometric twists.

The package is organized around a handful of small, composable pieces:

- :mod:`nilwalk.algebra` -- structure tensors, filtrations, validation
- :mod:`nilwalk.bch` -- exact Baker-Campbell-Hausdorff products up to step 6
- :mod:`nilwalk.norms` -- homogeneous gauges adapted to a filtration
- :mod:`nilwalk.groups` -- finite orthogonal matrix groups and Cayley tables
- :mod:`nilwalk.semidirect` -- step distributions twisted by a finite group
- :mod:`nilwalk.rng` -- counter-based Philox substreams and alias sampling
- :mod:`nilwalk.walker` -- deterministic single-threaded Monte Carlo driver
- :mod:`nilwalk.stats` -- concentration exponents, tail fits, growth checks
- :mod:`nilwalk.splitting` -- affine isometry splittings and defect scans
- :mod:`nilwalk.presets` -- named algebras, walk laws and scan groups
- :mod:`nilwalk.manifest` -- deterministic CSV and manifest artifacts
- :mod:`nilwalk.errors` -- the exceptions behind the exit codes
- :mod:`nilwalk.cli` -- the ``nilwalk`` command line front end
"""

from .algebra import (Filtration, NilpotentAlgebra, algebra_from_json,
                      lower_central_filtration, lower_central_series,
                      validate_algebra, weighted_filtration)
from .bch import bch, dynkin_table
from .errors import (NumericalValidationError, ResourceCeilingError,
                     SchemaError)
from .norms import HomogeneousNorm, build_gauge, gauge_descriptor
from .semidirect import (FiniteActionGroup, StepDistribution, abelianized_mean,
                         conjugate_distribution, distribution_from_json,
                         finite_group)
from .splitting import Lift, big_delta, delta, delta_ratio_scan
from .stats import fit_alpha, lil_diagnostic, tail_curve
from .walker import SampleMatrix, WalkConfig, monte_carlo

__version__ = "0.1.0"

__all__ = [
    "Filtration",
    "FiniteActionGroup",
    "HomogeneousNorm",
    "Lift",
    "NilpotentAlgebra",
    "NumericalValidationError",
    "ResourceCeilingError",
    "SampleMatrix",
    "SchemaError",
    "StepDistribution",
    "WalkConfig",
    "abelianized_mean",
    "algebra_from_json",
    "bch",
    "dynkin_table",
    "big_delta",
    "build_gauge",
    "conjugate_distribution",
    "delta",
    "delta_ratio_scan",
    "distribution_from_json",
    "finite_group",
    "fit_alpha",
    "gauge_descriptor",
    "lil_diagnostic",
    "lower_central_filtration",
    "lower_central_series",
    "monte_carlo",
    "tail_curve",
    "validate_algebra",
    "weighted_filtration",
    "__version__",
]
