"""Prefetcher-OCP coordination policies."""

from typing import Optional

from .athena import AthenaPolicy
from .base import (
    CoordinationAction,
    CoordinationPolicy,
    FixedPolicy,
    NaivePolicy,
    enumerate_actions,
)
from .hpac import HpacPolicy, HpacThresholds
from .mab import MabPolicy
from .tlp import TlpPolicy


def make_policy(name: str, **kwargs) -> Optional[CoordinationPolicy]:
    """Instantiate a coordination policy by registry name.

    Keyword arguments are forwarded to the policy's constructor — for
    ``athena`` they become :class:`~repro.core.config.AthenaConfig` fields
    (e.g. ``seed=7``, ``alpha=0.4``), for the other policies they map onto
    the constructor parameters (e.g. MAB's ``discount``).  Unknown names
    and unsupported options raise :exc:`ValueError` from the component
    registry (imported lazily: this package sits below the api layer).
    """
    from ..api.registry import registry

    return registry.create("policy", name, **kwargs)


__all__ = [
    "AthenaPolicy",
    "CoordinationAction",
    "CoordinationPolicy",
    "FixedPolicy",
    "HpacPolicy",
    "HpacThresholds",
    "MabPolicy",
    "NaivePolicy",
    "TlpPolicy",
    "enumerate_actions",
    "make_policy",
]
