"""Host-speed calibration.

On a shared host the same code runs at different speeds from one minute
to the next: phases of up to 1.7x slower execution that last from
seconds to minutes, with process CPU time tracking wall time.  A run's
median op time then says as much about the host as about the program.

`kernel` is a fixed computation with the program's mix of work, and
`reference_probe` a fresh interpreter that imports the program's
dependencies.  The benchmark runs one of them before and after every op
or set-up probe, so it samples the same host phase as the program, and
`scaled` brings each time to the reference host speed: the speed at which
the kernel takes REFERENCE_S and the probe REFERENCE_PROBE_S.  Both are
part of the benchmark, not of the program, so a change to the program
moves the scaled times exactly as much as the raw ones.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction
from typing import List

import numpy as np

# about the kernel's and the reference probe's times on an unloaded 2-vCPU
# x86-64 VM; fixed constants
REFERENCE_S = 0.008
REFERENCE_PROBE_S = 0.25

_INTS = np.random.default_rng(0).integers(0, 1 << 20, size=20000)
_ANGLES = np.linspace(0.0, 64.0, 8192)
_CELLS = sorted(set((np.random.default_rng(1).integers(0, 15625, size=256) * 61) % 15625))
_INSET = frozenset(_CELLS)


def _python() -> None:
    # interpreter-bound: the cell-triple scan's modular set lookups and the
    # ball masses' exact rationals
    hits = 0
    inv2 = pow(2, -1, 15625)
    for i, a in enumerate(_CELLS[:24]):
        for c in _CELLS[i:]:
            for delta in (-1, 0, 1):
                hits += ((a + c - delta) * inv2) % 15625 in _INSET
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i, (i * 7) % 97 + 1)


def _numeric(reps: int) -> None:
    for _ in range(reps):
        np.sort((_INTS * 3 + 7) % 65521)
        np.cos(_ANGLES).sum() + np.sin(_ANGLES * 0.5).sum()


def kernel() -> float:
    """Run the calibration kernel once; returns its wall time in seconds.

    It is single-threaded and mostly interpreter-bound, as the cell scans
    and exact ball masses are."""
    t0 = time.perf_counter()
    _python()
    _numeric(2)
    return time.perf_counter() - t0


def reference_probe() -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import fractions, json, numpy"], check=True, timeout=120)
    return time.perf_counter() - t0


def scaled(times: List[float], cal: List[float], reference: float) -> List[float]:
    """Each times[i], measured between cal[i] and cal[i + 1], at the
    reference speed."""
    return [t * reference / ((cal[i] + cal[i + 1]) / 2) for i, t in enumerate(times)]
