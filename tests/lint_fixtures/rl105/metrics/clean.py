"""RL105 fixture: scheduling routed through the kernel seam."""

from repro.sim.kernel import make_scheduler


def earliest(entries):
    scheduler = make_scheduler("wheel")
    for when, sequence, item in entries:
        scheduler.push((when, sequence, item))
    return scheduler.peek()
