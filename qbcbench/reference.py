"""Fixed reference load that calibrates the benchmark's timings.

On a shared virtual machine the same work can run 1.5x slower in one
process than in another, and a single round up to 2.5x slower, with CPU
time tracking wall time: the cycles themselves slow down.  Timing a fixed
load next to every timed step and scaling the step by nominal / measured
turns such swings into a ratio that repeats within a few percent, while
the figure keeps its unit of seconds.

The load has two parts, one per kind of work the program does, and each
workload is calibrated by the sum of the parts that match its work:

* "python": interpreted Python on dicts and complex numbers plus many small
  numpy operations, like the optics, strategies and protocol layers;
* "alloc": mapping a fresh 16 MiB of anonymous memory, well past the
  4 MiB L2 cache, and streaming over it, like the kernels and the operator
  model, which fault in new arrays of tens of MB for their intermediates.
  The mapping comes from `mmap`, not from malloc: glibc serves a freed
  large block again from resident heap once the program has freed bigger
  ones, so an allocator-backed load would change with the program's
  allocation sizes.

A ratio to the wrong part is worse than no calibration.  Measured over six
processes per workload on a 2-core VM (IQR of the per-process medians
over their median):

| workload | raw | python | alloc | python + alloc |
|---|---|---|---|---|
| photon_sessions | 19.7 % | 2.1 % | 13.4 % | 8.3 % |
| mc_games | 9.9 % | 7.7 % | 5.8 % | 3.1 % |
| reports | 5.3 % | 10.7 % | 4.5 % | 4.3 % |

An earlier measurement in a noisier spell, with a malloc-backed "alloc"
part, made the same choice: raw 45 % against 3.5 % by "python" on
photon_sessions; raw 11 % against 6.7 % by "alloc" and 22 % by "python"
on reports.

The reference imports nothing from the program, so no change to the
program can move it.
"""

from __future__ import annotations

import mmap
import time

import numpy as np

#: Seconds each part is taken to last.  Calibrated times read as if every
#: reference measurement had taken exactly this long.
NOMINAL_S = {"python": 0.014, "alloc": 0.024}

_PY_STEPS = 8000
_NP_STEPS = 600
_ALLOC_BYTES = 16 << 20


def python_load() -> float:
    """The "python" part; returns a checksum of its results."""
    table: dict[tuple[int, int], complex] = {}
    z = 0.6 + 0.3j
    w = complex(0.8, -0.6)
    for i in range(_PY_STEPS):
        key = (i & 31, i % 3)
        z = z * w + 0.01j
        table[key] = table.get(key, 0j) + z * z.conjugate()
        if abs(z) > 2.0:
            z = z / abs(z)
    acc = sum(abs(v) for v in table.values())
    a = np.linspace(0.0, 1.0, 64)
    m = np.eye(4, dtype=complex)
    rot = np.array([[0.6, -0.8j], [-0.8j, 0.6]])
    for j in range(_NP_STEPS):
        a = np.sqrt(a * a + 1.0) - 1.0 + j * 1e-6
        m[:2, :2] = rot @ m[:2, :2]
        acc += float(a.sum()) + float(np.abs(m).max())
    return acc


def alloc_load() -> float:
    """The "alloc" part; returns a checksum of its results."""
    with mmap.mmap(-1, _ALLOC_BYTES) as pages:
        block = np.frombuffer(pages, dtype=np.float64)
        block += 1.0
        block *= 1.0000001
        block *= 1.0000001
        acc = float(block[-1])
        del block
    return acc


_PARTS = {"python": python_load, "alloc": alloc_load}


class Reference:
    """The parts of the reference load that one workload is timed against."""

    def __init__(self, parts: tuple[str, ...]):
        if not parts or not set(parts) <= set(NOMINAL_S):
            raise ValueError(f"reference parts must be among {sorted(NOMINAL_S)}")
        self.loads = [_PARTS[p] for p in parts]
        self.nominal_s = sum(NOMINAL_S[p] for p in parts)

    def measure(self) -> float:
        """Wall time of one pass over the parts, in seconds."""
        t0 = time.perf_counter()
        for load in self.loads:
            load()
        return time.perf_counter() - t0
