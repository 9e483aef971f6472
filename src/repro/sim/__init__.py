"""Trace-driven timing simulator substrate (ChampSim analogue)."""
