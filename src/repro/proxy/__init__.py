"""The proxy cache: storage, refresh scheduling, client request path."""
