"""Origin server substrate: objects, HTTP handling, trace feeding."""
