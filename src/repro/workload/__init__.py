"""Client workload generation: arrivals, popularity, request streams,
and the scenario workload families (surges, diurnal modulation,
failure schedules)."""
