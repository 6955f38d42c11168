"""Statistics and resource probes shared by the benchmark's workloads."""

from __future__ import annotations

import math
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

_IMPORT_TIMER = (
    "import importlib, sys, time\n"
    "start = time.perf_counter()\n"
    "for name in sys.argv[1:]:\n"
    "    importlib.import_module(name)\n"
    "print(time.perf_counter() - start)\n"
)

#: Percentiles a tail is chosen from, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(n: int, p: float) -> int:
    # Rounded before the ceiling so that 90% of 100 is 90, not 91.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), p) - 1]


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """(p, value): the highest ladder percentile with at least ten samples
    beyond it.  Fewer than 20 samples have no such tail; the maximum is
    returned with ``p = 100``."""
    n = len(samples)
    for p in TAIL_LADDER:
        if n - _rank(n, p) >= 10:
            return p, percentile(samples, p)
    return 100.0, max(samples)


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


#: Seconds one :func:`reference_pass` takes on the host the baseline in
#: ``meta.json`` was recorded on.  Rescaled timings are at that speed.
REFERENCE_PASS_S = 0.01

#: Seconds between two passes while a :class:`Sampler` runs.
SAMPLE_INTERVAL_S = 0.2


def reference_pass() -> float:
    """Seconds one pass of a fixed pure-Python loop (integer arithmetic
    and dict stores, like the program's interpreter-bound code) takes on
    this host now.

    The shared hosts the benchmark runs on change speed by up to ~1.7x
    in phases of seconds to minutes.  The loop is the benchmark's own
    code, so no change to the program moves it; a timing divided by the
    median pass made while it ran, times :data:`REFERENCE_PASS_S`, is the
    timing at the reference host's speed.
    """
    start = time.perf_counter()
    table: Dict[int, int] = {}
    x = 0
    for i in range(40_000):
        x = (x * 1103515245 + i) & 0xFFFFFFFF
        table[x & 1023] = i
    return time.perf_counter() - start


class Sampler:
    """Makes a :func:`reference_pass` on entry and every
    :data:`SAMPLE_INTERVAL_S` seconds while it is active, from a
    ``SIGALRM`` handler, so in the middle of the program's own (serial,
    interpreter-bound) work: passes made only before and after a
    20-second Table 2 sweep miss the host's changes of speed during it.
    The passes' time is taken out of every timing they fall into
    (:meth:`inside`).  Only for work this process does itself: beside a
    busy child process a pass reads up to twice as slow on two cores."""

    def __init__(self) -> None:
        #: (start, seconds) of every pass.
        self.passes: List[Tuple[float, float]] = []

    def _tick(self, signum: int, frame: object) -> None:
        start = time.perf_counter()
        self.passes.append((start, reference_pass()))

    def __enter__(self) -> "Sampler":
        self._tick(signal.SIGALRM, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def inside(self, start: float, end: float) -> List[float]:
        """Seconds of each pass that ran between ``start`` and ``end``."""
        return [seconds for began, seconds in self.passes
                if start <= began < end]

    def seconds(self) -> List[float]:
        return [seconds for _, seconds in self.passes]


def speed(passes: Sequence[float]) -> float:
    """How much slower than the reference host this host ran during
    ``passes``: a timing divided by it is at the reference speed."""
    return median(passes) / REFERENCE_PASS_S


def import_seconds(modules: Sequence[str], src: str) -> float:
    """Seconds a fresh interpreter takes to import ``modules`` from
    ``src``; a fresh process each time, since a module imports once."""
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, *modules],
                          env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    return float(done.stdout)


def _status_kb(pid: str, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def descendants(root: int) -> List[int]:
    """PIDs of every live process below ``root``."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        fields = stat[stat.rfind(")") + 2:].split()
        parents.setdefault(int(fields[1]), []).append(int(entry))
    found: List[int] = []
    stack = [root]
    while stack:
        for child in parents.get(stack.pop(), []):
            found.append(child)
            stack.append(child)
    return found


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus each live descendant's
    own peak (``VmHWM``), in MiB.  Read it before stopping children."""
    total = _status_kb("self", "VmHWM")
    for pid in descendants(os.getpid()):
        total += _status_kb(str(pid), "VmHWM")
    return total / 1024.0
