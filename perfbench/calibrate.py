"""Machine-speed calibration for the reported times.

On a shared machine the speed drifts by tens of percent over tens of seconds,
and CPU time drifts with wall time.  Each timed request is therefore bracketed
by runs of a reference task, and its wall time is rescaled to a reference
speed:

    reported = measured * REF_S / (mean reference-task time before and after)

For in-process requests the task is a fixed pure-Python kernel; for requests
that start an interpreter it is a bare interpreter start (``python -c pass``),
which follows the cost of starting processes where the kernel does not.
Neither task runs wedgetree code, so no change to the library alters them.
Raw wall times are printed beside the rescaled ones.
"""

import gc
import time

import children

# one kernel run, and one bare interpreter start, on the reference machine
# (2 vCPUs, Python 3.11)
KERNEL_REF_S = 0.0005
INTERPRETER_REF_S = 0.06


class _Slot:
    __slots__ = ("key", "n")

    def __init__(self, key, n):
        self.key = key
        self.n = n


def kernel():
    """Tuple building, hashing, dict traffic, small objects and calls: the
    kind of work the library does, on fixed data."""
    table = {}
    acc = 0
    for i in range(300):
        key = (i % 7, (i * 3) % 11, i)
        slot = _Slot(key, i)
        table[key[:2]] = slot
        acc += len(table) + (slot.key < (3, 5, 0))
        acc += sum(x for x in key if x & 1)
    return acc


def kernel_seconds(repeat=1):
    """Mean wall time of one kernel run, with the collector paused so that
    garbage left by a request is not collected on the kernel's clock."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(repeat):
            kernel()
        return (time.perf_counter() - start) / repeat
    finally:
        if enabled:
            gc.enable()


def interpreter_seconds():
    """Wall time of one bare interpreter start with the children's settings."""
    start = time.perf_counter()
    proc = children.run(["-c", "pass"])
    if proc.returncode:
        raise RuntimeError("a bare interpreter failed to start: %s" % proc.stderr)
    return time.perf_counter() - start


def rescale(seconds, before, after, reference):
    """``seconds`` measured between reference-task timings ``before`` and
    ``after``, at the reference speed ``reference`` of that task."""
    return seconds * reference * 2 / (before + after)
