"""Machine-speed sampling: a fixed pure-Python reference kernel, timed
while the benchmark runs, that scales its timings to one reference speed.

A shared host runs this VM at two speeds that swap every few seconds and
sometimes for minutes: in the slow one the same code takes 1.7-1.9 times
as long, and the kernel and crown's own functions slow down by the same
factor.  So every timed stretch carries samples of the kernel's time
``K`` taken during it, and its time at the reference speed is

    t_ref = t_wall * mean(REF_NS / K)

(work done is the integral of speed over wall time, and speed is
``REF_NS / K``).  The kernel imports nothing from ``crown``, so a change
to the library never moves it; it does the kinds of work the library does
(exact Fractions, dict and set graph walks, sorting tuples, formatting).

While an item runs, a ``SIGALRM`` handler in the benchmark's own thread
times one kernel run every ``INTERVAL_S`` of wall time; the time spent in
the handler is taken out of the item's time.  One kernel run before and
one after every timed stretch cover stretches too short for the timer.
``REF_NS`` is about the kernel's time in the fast state of the 2-vCPU
x86-64 VM the benchmark was tuned on, so scaled times read close to wall
times there when the host is quiet.
"""

import importlib
import signal
from fractions import Fraction
from time import perf_counter_ns

REF_NS = 700_000  # kernel nanoseconds at the reference speed
INTERVAL_S = 0.025  # wall seconds between samples while an item runs

_N = 160
_EDGES = tuple((i, (i * 37 + 11) % _N) for i in range(_N)) + tuple((i, (i + 1) % _N) for i in range(_N))


def kernel():
    """One fixed unit of interpreter work; returns a checksum."""
    adj = {v: set() for v in range(_N)}
    for a, b in _EDGES:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    order, seen, stack = [], {0}, [0]
    while stack:
        v = stack.pop()
        order.append(v)
        for u in sorted(adj[v]):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    total = Fraction(0)
    for i, v in enumerate(order):
        total += Fraction(v + 1, 64 * (i % 7 + 1))
    rows = sorted((len(adj[v]), -v, f"v{v:03d}") for v in order)
    return total.numerator % 1_000_003 + len(rows[-1][2]) + len(order)


CHECKSUM = kernel()


def kernel_ns():
    """Nanoseconds of one kernel run."""
    start = perf_counter_ns()
    if kernel() != CHECKSUM:
        raise RuntimeError("reference kernel gave another checksum")
    return perf_counter_ns() - start


def scale(wall_ns, samples):
    """``wall_ns`` at the reference speed, from kernel times taken during it."""
    return wall_ns * sum(REF_NS / k for k in samples) / len(samples)


class Sampler:
    """Times ``fn(arg)`` and scales the time to the reference speed."""

    def __init__(self):
        self._samples = None
        self._spent = 0

    def _on_alarm(self, signum, frame):
        start = perf_counter_ns()
        self._samples.append(kernel_ns())
        self._spent += perf_counter_ns() - start

    def time(self, fn, arg):
        """(result or raised exception, wall ns, ns at the reference speed)."""
        self._samples, self._spent = [kernel_ns()], 0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = perf_counter_ns()
        try:
            out = fn(arg)
        except Exception as exc:  # an unexpected raise is a failed item
            out = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            wall = perf_counter_ns() - start  # after any handler still pending
            signal.signal(signal.SIGALRM, previous)
        wall -= self._spent
        self._samples.append(kernel_ns())
        return out, wall, scale(wall, self._samples)


def time_import(name):
    """(wall ns, reference ns) of importing ``name``; run in a fresh interpreter."""
    kernel_ns()  # the kernel's own first run is slower
    out, wall, ref = Sampler().time(importlib.import_module, name)
    if isinstance(out, Exception):
        raise out
    return wall, ref
