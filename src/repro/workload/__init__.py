"""Workload generation: the client load generator (Poisson arrivals,
Zipf object choice, one self-rescheduling pump per edge proxy) and the
scenario workload families (surges, diurnal modulation, failure
schedules)."""
