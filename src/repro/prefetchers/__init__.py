"""Hardware data prefetchers evaluated by the paper (Table 8)."""

from .base import Prefetcher
from .berti import BertiPrefetcher
from .ipcp import IpcpPrefetcher
from .mlop import MlopPrefetcher
from .pythia import PythiaPrefetcher
from .sms import SmsPrefetcher
from .spp_ppf import SppPpfPrefetcher
from .streamer import StreamPrefetcher


def make_prefetcher(name: str, **kwargs) -> Prefetcher:
    """Instantiate a prefetcher by registry name.

    Keyword arguments map onto the prefetcher's constructor parameters
    (e.g. ``streamer``'s ``table_size``, ``pythia``'s ``seed``); unknown
    names and unsupported options raise :exc:`ValueError`, exactly like
    :func:`repro.policies.make_policy`.  Validation lives in the unified
    :class:`repro.api.registry.ComponentRegistry`.
    """
    from ..api.registry import registry

    return registry.create("prefetcher", name, **kwargs)


__all__ = [
    "BertiPrefetcher",
    "IpcpPrefetcher",
    "MlopPrefetcher",
    "Prefetcher",
    "PythiaPrefetcher",
    "SmsPrefetcher",
    "SppPpfPrefetcher",
    "StreamPrefetcher",
    "make_prefetcher",
]
