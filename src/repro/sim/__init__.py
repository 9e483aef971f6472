"""Trace-driven timing simulator substrate (ChampSim analogue)."""

from .cache import Cache
from .cpu import CoreModel
from .dram import MainMemory
from .hierarchy import CacheHierarchy
from .params import (
    CacheParams,
    CoreParams,
    DramParams,
    SystemParams,
    default_system,
    scaled_system,
)
from .region import SimulationResult
from .simulator import Simulator
from .stats import EpochTelemetry, SimStats

__all__ = [
    "Cache",
    "CacheHierarchy",
    "CacheParams",
    "CoreModel",
    "CoreParams",
    "DramParams",
    "EpochTelemetry",
    "MainMemory",
    "SimStats",
    "SimulationResult",
    "Simulator",
    "SystemParams",
    "default_system",
    "scaled_system",
]
