"""State measurement and quantization (paper §4.1, §5.2).

:class:`FeatureTracker` is Athena's measurement unit: a
:class:`~repro.sim.hierarchy.CacheHierarchy` feeds it its events (the
hierarchy's ``tracker`` slot) and it maintains

* the set of lines prefetched this epoch, for prefetcher accuracy
  (§5.2.1),
* two counters for OCP accuracy (§5.2.2), and
* the set of lines a prefetch evicted from the LLC this epoch, plus a
  counter, for prefetch-induced LLC pollution (§5.2.3),

all reset at the end of every epoch, when the run's measured region
closes the tracker's epoch (:meth:`FeatureTracker.close_epoch`) and
freezes the epoch's features for the agent.  A tracker is a pure
function of the hierarchy's events, so every policy riding one run
reads the same frozen features.  Bandwidth-usage features come from
the DRAM bus-occupancy telemetry the simulator already computes.

The paper's hardware keeps the two sets in 4096-bit, 2-hash Bloom
filters (Table 4).  The simulator needs only their membership answers,
so it keeps exact sets, and the filters' budget lives only in
:meth:`FeatureTracker.storage_bits`.

:class:`StateQuantizer` turns the measured feature vector into the integer
state the QVStore hashes (paper Figure 6, stage 1: concatenate feature
values into a 32-bit state vector).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..sim.stats import CANDIDATE_FEATURES, EpochTelemetry

#: Paper Table 4: each of the two tracker filters is 4096 bits (0.5 KB).
FILTER_BITS = 4096


class FeatureTracker:
    """Exact-set epoch feature measurement, fed by one hierarchy."""

    def __init__(self) -> None:
        #: the features of the last closed epoch (empty before the first)
        self.features: Dict[str, float] = {}
        self._prefetched = set()
        self._prefetch_victims = set()
        self._prefetches_issued = 0
        self._prefetch_hits = 0
        self._ocp_predictions = 0
        self._ocp_correct = 0
        self._pollution_hits = 0
        self._demand_misses = 0

    # -- events (called by the hierarchy) ---------------------------------------

    def on_prefetch_issued(self, line_addr: int) -> None:
        self._prefetched.add(line_addr)
        self._prefetches_issued += 1

    def on_demand_load(self, pc: int, line_addr: int, went_offchip: bool) -> None:
        if line_addr in self._prefetched:
            self._prefetch_hits += 1

    def on_ocp_request(self, line_addr: int) -> None:
        self._ocp_predictions += 1

    def on_ocp_correct(self, line_addr: int) -> None:
        self._ocp_correct += 1

    def on_prefetch_eviction(self, line_addr: int) -> None:
        self._prefetch_victims.add(line_addr)

    def on_llc_demand_miss(self, line_addr: int) -> None:
        self._demand_misses += 1
        if line_addr in self._prefetch_victims:
            self._pollution_hits += 1

    # -- epoch boundary -----------------------------------------------------------

    def epoch_features(self, telemetry: EpochTelemetry) -> Dict[str, float]:
        """Measured feature values for the epoch just ended."""
        pf_acc = (
            min(1.0, self._prefetch_hits / self._prefetches_issued)
            if self._prefetches_issued
            else 0.0
        )
        ocp_acc = (
            self._ocp_correct / self._ocp_predictions
            if self._ocp_predictions
            else 0.0
        )
        pollution = (
            min(1.0, self._pollution_hits / self._demand_misses)
            if self._demand_misses
            else 0.0
        )
        return {
            "prefetcher_accuracy": pf_acc,
            "ocp_accuracy": ocp_acc,
            "bandwidth_usage": telemetry.bandwidth_usage,
            "cache_pollution": pollution,
            "prefetch_bandwidth": telemetry.prefetch_bandwidth_share,
            "ocp_bandwidth": telemetry.ocp_bandwidth_share,
            "demand_bandwidth": telemetry.demand_bandwidth_share,
        }

    def close_epoch(self, telemetry: EpochTelemetry) -> None:
        """End the epoch: freeze its :meth:`epoch_features` into
        ``features``, then reset."""
        self.features = self.epoch_features(telemetry)
        self.reset_epoch()

    def reset_epoch(self) -> None:
        """Reset sets and counters (end of every epoch, §5.2)."""
        self._prefetched.clear()
        self._prefetch_victims.clear()
        self._prefetches_issued = 0
        self._prefetch_hits = 0
        self._ocp_predictions = 0
        self._ocp_correct = 0
        self._pollution_hits = 0
        self._demand_misses = 0

    @staticmethod
    def storage_bits() -> int:
        """Paper Table 4: two 4096-bit filters plus six 16-bit counters."""
        return 2 * FILTER_BITS + 6 * 16


class StateQuantizer:
    """Quantize the feature vector into per-plane state integers.

    The QVStore's planes provide generalization only if *similar* states
    collide in at least some planes (paper §5.1).  Plain hashing of one
    concatenated state vector cannot do that, so the quantizer produces a
    distinct state per plane with *shifted bin boundaries* (tile coding):
    plane ``p`` offsets every feature by ``p / (planes * bins)`` before
    binning.  Two feature vectors that differ by less than one bin width
    then share most of their per-plane states, while distant vectors share
    none — exactly the generalization/resolution balance the paper
    describes.
    """

    def __init__(self, features: Sequence[str], bins: int = 8) -> None:
        unknown = set(features) - set(CANDIDATE_FEATURES)
        if unknown:
            raise ValueError(f"unknown features: {sorted(unknown)}")
        if bins < 2 or bins & (bins - 1):
            raise ValueError("bins must be a power of two >= 2")
        self.features = tuple(features)
        self.bins = bins
        self._bits_per_feature = bins.bit_length() - 1

    def quantize_value(self, value: float, shift: float = 0.0) -> int:
        """Map a [0, 1] feature value to its (possibly shifted) bin."""
        clamped = min(1.0, max(0.0, value))
        return min(self.bins - 1, int((clamped + shift) * self.bins))

    def state_vector(self, feature_values: Dict[str, float],
                     shift: float = 0.0) -> int:
        """Paper Figure 6 stage 1: concatenated quantized feature bits."""
        state = 0
        for name in self.features:
            state = (state << self._bits_per_feature) | self.quantize_value(
                feature_values.get(name, 0.0), shift
            )
        return state

    def plane_states(self, feature_values: Dict[str, float],
                     num_planes: int) -> List[int]:
        """One tiled state integer per QVStore plane.

        Plane 0 is the *bias tiling*: a single tile covering the whole
        feature space, so every state shares it.  It learns the global
        value of each action within a handful of epochs, and the finer
        shifted tilings of the remaining planes refine per-state.  (A
        coarse-to-fine tiling pyramid is the standard tile-coding recipe;
        the paper's "similar states collide in at least some planes" is
        this property.)
        """
        states = [0]
        for p in range(1, num_planes):
            states.append(
                self.state_vector(feature_values, p / (num_planes * self.bins))
            )
        return states

    @property
    def state_bits(self) -> int:
        return self._bits_per_feature * len(self.features)
