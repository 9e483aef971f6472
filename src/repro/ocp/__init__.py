"""Off-chip predictors evaluated by the paper (POPET, HMP, TTP)."""

from .base import OffChipPredictor
from .hmp import HmpPredictor
from .popet import PopetPredictor
from .ttp import TtpPredictor


def make_ocp(name: str, **kwargs) -> OffChipPredictor:
    """Instantiate an off-chip predictor by registry name.

    Keyword arguments map onto the predictor's constructor (e.g.
    ``ttp``'s ``capacity_lines``); unknown names/options raise
    :exc:`ValueError` via the unified component registry.
    """
    from ..api.registry import registry

    return registry.create("ocp", name, **kwargs)


__all__ = [
    "HmpPredictor",
    "OffChipPredictor",
    "PopetPredictor",
    "TtpPredictor",
    "make_ocp",
]
