"""Athena's RL core: QVStore, feature measurement, reward, SARSA agent."""
