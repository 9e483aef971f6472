"""Athena's RL core: QVStore, feature measurement, reward, SARSA agent."""

from .agent import AgentDecision, AthenaAgent
from .config import AthenaConfig, PAPER_CONFIG, RewardWeights
from .features import FeatureTracker, StateQuantizer
from .qvstore import QVStore
from .reward import CompositeReward, IpcOnlyReward

__all__ = [
    "AgentDecision",
    "AthenaAgent",
    "AthenaConfig",
    "CompositeReward",
    "FeatureTracker",
    "IpcOnlyReward",
    "PAPER_CONFIG",
    "QVStore",
    "RewardWeights",
    "StateQuantizer",
]
