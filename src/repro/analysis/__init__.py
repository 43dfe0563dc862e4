"""Shared analysis utilities: rate estimation, time-series binning."""
