"""Experiment harness: cache designs, runner, figure drivers, DSE."""
