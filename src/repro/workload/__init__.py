"""Workload generation: the client load generator (Poisson arrivals,
Zipf object choice, one self-rescheduling pump per edge proxy) and the
proxy failure/recovery schedules of the ``failure_churn`` family."""
