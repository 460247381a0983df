"""A fixed pure-Python kernel that measures how fast the host runs right now.

On a shared machine the speed of the same single-threaded Python code
drifts by up to 1.9x (CPU time drifts with wall time, so this is not
descheduling), and it drifts on every time scale: samples of a ~8 ms
kernel correlate 0.90 at 8 ms apart, 0.73 at 80 ms, 0.55 at 0.8 s and
not at all at 8 s.  Host milliseconds of the same run then spread by
30-36 % between benchmark runs.

``Sampler`` therefore runs one short slice of the kernel from a SIGALRM
timer every ``PERIOD`` seconds while a measurement is in progress, so
the slices sample the host's speed inside the very runs they calibrate.
A run's host time minus the slices inside it, divided by the mean slice
time of its pass, is the run's cost in *yardsticks* (one yardstick is one
slice).  On the 2-vCPU virtual machine this was written on, the
off-chain ``chain_tree(128)`` run read 1.38-1.49 s in five passes of
one process and 920-930 yardsticks.

The kernel uses only the stdlib and mixes what graftsim does: small
objects, attribute access, dict and list building, sorting, JSON
encoding and SHA-256.  It must never change: every yardstick figure
compares against it.  SIGALRM makes the sampler POSIX-only.
"""

from __future__ import annotations

import hashlib
import json
import signal
import time

SLICE_ROUNDS = 12
PERIOD = 0.01
# Host seconds of one yardstick at the typical speed of the machine the
# benchmark was written on; converts a cost in yardsticks back to seconds.
NOMINAL_S = 0.0015


class _Item:
    __slots__ = ("number", "name")

    def __init__(self, number: int, name: str) -> None:
        self.number, self.name = number, name

    def key(self):
        return (self.name, self.number)


def _kernel(rounds: int) -> int:
    total = 0
    for r in range(rounds):
        items = [_Item(i, f"n{(i * 7919 + r) % 101}") for i in range(60)]
        index = {}
        for item in items:
            index.setdefault(item.name, []).append(item.number)
        ordered = sorted(items, key=_Item.key)
        total += sum(len(v) for v in index.values()) + ordered[0].number
        blob = json.dumps({"r": r, "keys": sorted(index)[:8]}, sort_keys=True)
        total += len(hashlib.sha256(blob.encode("utf-8")).hexdigest())
    return total


class Sampler:
    """While active, spends one kernel slice every ``PERIOD`` host seconds
    and keeps the total time and count of the slices."""

    def __init__(self) -> None:
        self.spent = 0.0
        self.slices = 0
        self._busy = False
        self._previous = None

    def sample(self, *_signal) -> None:
        """Time one slice (also the SIGALRM handler)."""
        if self._busy:   # a signal that lands inside a slice must not nest
            return
        self._busy = True
        start = time.perf_counter()
        _kernel(SLICE_ROUNDS)
        self.spent += time.perf_counter() - start
        self.slices += 1
        self._busy = False

    def slice_since(self, spent: float, slices: int) -> float:
        """Mean slice time since the sampler read ``spent`` and ``slices``;
        times one more slice if none ran since."""
        if self.slices == slices:
            self.sample()
        return (self.spent - spent) / (self.slices - slices)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
