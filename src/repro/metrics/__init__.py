"""Evaluation metrics: fidelity (Eqs. 13–14), mutual consistency, series."""
