"""Exact ED degrees and homotopy continuation for weighted structured
low-rank approximation.

Modules
    polyarith   sparse polynomials: exact int or float/complex coefficients
    chow        localization engine for determinantal ED degrees
    eddegree    closed-form sectional ED degree calculators
    structured  matrix families, weights, instances, datasets
    systems     critical-point polynomial system builders
    solver      homotopy continuation, classification, reconciliation
    cli         command-line interface (eddeg / solve / make-instance /
                reproduce)
"""

from .chow import ed_generic_determinantal
from .eddegree import (EDDegreeQuery, conjectured_corank1_unit, ed_degree,
                       hankel_ed_generic, sectional_ed_corank1,
                       sectional_ed_rank1, segre_polar_classes,
                       sylvester_ed_generic)
from .solver import SolutionSet, TrackerConfig, reconcile, solve
from .structured import (Instance, WeightMatrix, load_dataset, load_instance,
                         save_instance)

__all__ = [
    "EDDegreeQuery", "Instance", "SolutionSet", "TrackerConfig",
    "WeightMatrix", "conjectured_corank1_unit", "ed_degree",
    "ed_generic_determinantal", "hankel_ed_generic", "load_dataset",
    "load_instance", "reconcile", "save_instance", "sectional_ed_corank1",
    "sectional_ed_rank1", "segre_polar_classes", "solve",
    "sylvester_ed_generic",
]

__version__ = "0.1.0"
