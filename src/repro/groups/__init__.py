"""Related-object management: dependency graphs, extraction, registry."""
