"""RL301 fixture: the proxy taken from the one construction site."""

from repro.api.runs import build_stack


def stand_up(traces):
    _kernel, _server, proxy = build_stack(traces)
    return proxy
