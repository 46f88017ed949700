"""Host-speed correction of the benchmark's throughputs and set-up time.

The benchmark runs on a few cores of a shared host whose speed drifts with
its neighbours' load.  On the 2-core Xeon host the benchmark was defined on,
one unchanged ``fleet_direct`` repetition took from 1.3 s to 2.1 s within
five minutes.  Over ten 15-second runs the uncorrected ``samples_per_s``
spread by 13% (``fleet_direct``, ``vision_bo``) and 23%
(``portal_history``), first to third quartile as a share of the median;
corrected as below, by 4.0%, 7.6% and 3.3%.  ``wire_chaos`` mostly waits on
the wire and spread 1.9% uncorrected, 2.8% corrected.  A throughput in raw
host seconds measures the neighbours more than the program.

A reference kernel that never touches the program reads the host's speed:
its time over its reference time is the host's slowdown at that moment.
There are two, one for each kind of work the workloads do:

* :func:`compute_kernel_s` -- small-object churn with JSON encoding (the
  engine's kind of work) and numpy passes over a camera-frame-sized array
  (the renderer's and the extractor's), for the campaigns;
* :func:`append_kernel_s` -- JSON lines appended to a file with a flush after
  each, as the durable store ingests, for the portal.  Against the store's
  ingest it tracked the host better than the compute kernel (15-second
  windows spread 2.5% against 6.1%, uncorrected 13%).

:meth:`HostSpeed.window` runs the kernel just before and just after a timed
window, and between the laps a window may be cut into; a lap's slowdown is
the mean of the two readings around it.  The share of a lap the process
spent on CPU is divided by that slowdown and the rest -- time spent waiting
-- is kept as measured, so a throughput reads as it would have on the
reference host.  The kernels run outside every timed lap.
"""

from __future__ import annotations

import json
import time
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, List, Optional

import numpy as np

__all__ = [
    "APPEND_REFERENCE_S",
    "COMPUTE_REFERENCE_S",
    "HostSpeed",
    "Window",
    "append_kernel_s",
    "compute_kernel_s",
    "corrected_s",
]

#: Typical readings of the kernels on the 2-core Xeon host above, whose
#: compute-kernel readings ranged from 16 ms to 37 ms over an hour.
COMPUTE_REFERENCE_S = 0.020
APPEND_REFERENCE_S = 0.007

_FRAME_SHAPE = (480, 640, 3)


def _row(index: int) -> dict:
    return {
        "run_id": f"exp-{index % 8:02d}-run{index:05d}",
        "score": index * 0.37,
        "volumes": {"cyan": index * 0.1, "magenta": index * 0.2, "yellow": 1.5, "black": 2.5},
        "rgb": [index % 255, 3.5, 7.25],
    }


def compute_kernel_s() -> float:
    """Host seconds the fixed compute kernel takes right now."""
    start = time.perf_counter()
    rows = [_row(index) for index in range(600)]
    for row in rows:
        line = json.dumps(row, sort_keys=True)
        zlib.crc32(line.encode("utf-8"))
        json.loads(line)
    rows.sort(key=lambda row: (row["score"] % 13, row["run_id"]))
    frame = np.linspace(0.0, 1.0, int(np.prod(_FRAME_SHAPE))).reshape(_FRAME_SHAPE)
    for _ in range(2):
        frame = np.sqrt(frame * 1.0001 + 0.5)
    return time.perf_counter() - start


def append_kernel_s(path: Path) -> float:
    """Host seconds to write 600 JSON lines to ``path``, flushing each."""
    start = time.perf_counter()
    with open(path, "w", encoding="utf-8") as handle:
        for index in range(600):
            handle.write(json.dumps(_row(index), sort_keys=True) + "\n")
            handle.flush()
    return time.perf_counter() - start


def corrected_s(wall_s: float, cpu_s: float, slowdown: float) -> float:
    """``wall_s`` as it would have been on the reference host.

    The CPU-busy part (``cpu_s``, at most the wall) is divided by the host's
    ``slowdown``; the waiting part is kept.
    """
    busy = min(max(cpu_s, 0.0), wall_s)
    return wall_s - busy + busy / slowdown


class Window:
    """A timed window made of laps, each corrected on its own.

    ``read`` reads the host's slowdown; it runs when the window opens, at
    every :meth:`lap` and when the window closes, each time outside the
    timed laps.
    """

    def __init__(self, read: Callable[[], float]) -> None:
        self.wall_s = 0.0
        self.cpu_s = 0.0
        #: Reference-host seconds of every lap, in order.
        self.laps_s: List[float] = []
        self._read = read
        self._open(read())

    @property
    def corrected_s(self) -> float:
        """The window's seconds on the reference host."""
        return sum(self.laps_s)

    @property
    def slowdown(self) -> float:
        """The host's mean slowdown over the laps, weighted by wall time."""
        busy = min(self.cpu_s, self.wall_s)
        saved = self.wall_s - self.corrected_s
        return busy / (busy - saved) if busy > saved else 1.0

    def lap(self) -> None:
        """End the current lap and start the next."""
        self._open(self._close())

    def _open(self, slowdown: float) -> None:
        self._before = slowdown
        self._cpu = time.process_time()  # every thread of the process
        self._start = time.perf_counter()

    def _close(self) -> float:
        wall = time.perf_counter() - self._start
        cpu = time.process_time() - self._cpu
        after = self._read()
        self.wall_s += wall
        self.cpu_s += cpu
        self.laps_s.append(corrected_s(wall, cpu, (self._before + after) / 2.0))
        return after


class HostSpeed:
    """Reads the host's slowdown and opens timed windows corrected by it.

    ``HostSpeed(measure=False)`` runs no kernel and reads a slowdown of 1
    (traced runs, where the kernel would only add time).
    """

    def __init__(self, measure: bool = True) -> None:
        self.measure = measure

    def slowdown(self, repeats: int = 1, append_to: Optional[Path] = None) -> float:
        """The host's slowdown right now, over ``repeats`` kernel runs.

        The compute kernel reads it, or with ``append_to`` the append
        kernel writing that file.
        """
        if not self.measure:
            return 1.0
        if append_to is None:
            seconds = sum(compute_kernel_s() for _ in range(repeats))
            return seconds / (repeats * COMPUTE_REFERENCE_S)
        seconds = sum(append_kernel_s(append_to) for _ in range(repeats))
        return seconds / (repeats * APPEND_REFERENCE_S)

    @contextmanager
    def window(self, repeats: int = 4, append_to: Optional[Path] = None) -> Iterator[Window]:
        """Time the body; the window's figures are final when it ends.

        ``repeats`` and ``append_to`` choose the reading at each lap
        boundary (:meth:`slowdown`): more repeats for long laps, where a
        steadier reading is worth its time.
        """
        timed = Window(lambda: self.slowdown(repeats, append_to))
        try:
            yield timed
        finally:
            timed._close()
