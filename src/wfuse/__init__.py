"""Simulator and resource planner for loss-free fusion of polarization W states."""

__version__ = "0.1.0"
