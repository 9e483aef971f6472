"""Experiment harness: cache designs, runner, figure drivers, DSE."""

from ..policies import make_policy
from .configs import CacheDesign, build_hierarchy, system_for
from .dse import DseResult, run_dse
from .figures import FIGURES, FigureResult
from .runner import ExperimentContext, geomean

__all__ = [
    "CacheDesign",
    "DseResult",
    "ExperimentContext",
    "FIGURES",
    "FigureResult",
    "build_hierarchy",
    "geomean",
    "make_policy",
    "run_dse",
    "system_for",
]
