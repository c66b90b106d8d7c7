"""A clock in seconds at a fixed reference speed of the machine.

Shared virtual machines change speed by up to 1.7x from one tenth of a second
to the next, for reasons outside the guest (a busy sibling hardware thread,
say). Wall time alone then measures the host as much as the program. This
clock samples the machine's speed all through a run: a timer signal
interrupts the process every SAMPLE_EVERY_S, and the handler times one small
fixed kernel. Between two samples the clock advances by the wall time that
passed, times REFERENCE_KERNEL_S over the two samples' mean kernel time; the
kernel's own time is left out. One reference second is thus the time in
which the kernel runs 1 / REFERENCE_KERNEL_S times. A program that gets
slower or faster moves its reference time as much as its wall time; a phase
of the machine moves the program and the kernel alike, and cancels.

The kernel mixes the three kinds of work the program does: interpreter loops
(generator sums, dict updates), small numpy calls on one model row, and
arithmetic on numpy vectors of a thousand floats. The machine's phases slow
each kind differently, and each of the program's techniques leans on a
different mix; on the 2-core VM of README.md's reference figures, the
experiments' wall times followed this mix more closely than any one part of
it. The kernel must never change: it is the yardstick every figure is
measured against.
"""

import gc
import signal
import time

import numpy as np

SAMPLE_EVERY_S = 0.02
REFERENCE_KERNEL_S = 0.0006   # the kernel's time at the reference speed, by definition


def kernel(table, x):
    acc = 0.0
    counts = {}
    for i in range(100):
        acc += sum(j * 0.5 for j in range(24))
        counts[i % 16] = counts.get(i % 16, 0) + 1
    state = 0
    for i in range(32):
        p = table[state]
        acc += float(-(p * np.log(p)).sum())
        state = (int(p.argmax()) + i) % 16
    for _ in range(12):
        x = 0.9 * x + 0.1 * np.tanh(x) - 0.01 * x * x
    return acc + len(counts) + float(np.abs(x).sum())


class ReferenceClock:
    """Started, it samples the machine's speed until stopped; `now()` reads it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.inputs = (rng.dirichlet(np.ones(16), size=16), rng.standard_normal(1000))
        self.samples = []            # kernel times, wall seconds
        kernel(*self.inputs)         # the first call pays for numpy's lazy set-up
        first = self.kernel_seconds()
        self.state = (time.perf_counter(), 0.0, first)  # (wall at last sample, reference then, last sample)

    def kernel_seconds(self):
        """Time of one kernel, with the garbage collector off so the program's
        heap does not weigh on it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel(*self.inputs)
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def to_reference(self, wall_seconds, n=10):
        """`wall_seconds` taken before the clock started, in reference seconds
        at the speed of `n` kernels timed now."""
        return wall_seconds * REFERENCE_KERNEL_S / (sum(self.kernel_seconds() for _ in range(n)) / n)

    def _sample(self, signum, frame):
        wall = time.perf_counter()
        seconds = self.kernel_seconds()
        last_wall, reference, last = self.state
        reference += (wall - last_wall) * REFERENCE_KERNEL_S / ((last + seconds) / 2)
        self.samples.append(seconds)
        self.state = (time.perf_counter(), reference, seconds)

    def now(self):
        """(wall seconds, reference seconds) at this moment."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            wall = time.perf_counter()
            last_wall, reference, last = self.state
            return wall, reference + (wall - last_wall) * REFERENCE_KERNEL_S / last
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        self.state = (time.perf_counter(), self.state[1], self.state[2])
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
