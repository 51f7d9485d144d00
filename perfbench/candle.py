"""A fixed calibration workload that measures how fast the machine runs now.

The benchmark shares its machine, whose speed drifts by tens of percent over
seconds to minutes. Timing this candle around every pass gives the speed at
that moment; dividing a pass's wall time by it removes most of the drift and
leaves the program's own cost. The candle uses only the standard library and
numpy, never the package, so a change to the package cannot move it.
"""

from __future__ import annotations

import subprocess
import sys
import time
from datetime import date

import numpy as np

# median candle time measured on the reference machine (see README.md); a
# pass's reference-speed time is its wall time scaled by CANDLE_REF_S / candle
CANDLE_REF_S = 0.014
LINALG_CANDLE_REF_S = 0.025
CHILD_CANDLE_REF_S = 0.20


def candle() -> float:
    """Seconds taken by dict, float, sort, date and numpy-scalar work."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    values = {f"B{i}": float(rng.uniform(0.5, 1.0)) * i for i in range(4500)}
    total = sum(values.values())
    ranked = sorted(values.items(), key=lambda kv: (-kv[1] / total, kv[0]))
    days = [date.fromordinal(733000 + i).isoformat() for i in range(len(ranked))]
    np.mean([len(d) for d in days])
    return time.perf_counter() - t0


def linalg_candle() -> float:
    """The candle plus a rank check and a least-squares solve on a 600x120 matrix.

    For workloads that spend much of their time in LAPACK, which the
    machine's drift slows differently from interpreted Python.
    """
    t0 = time.perf_counter()
    a = np.random.default_rng(12345).standard_normal((600, 120))
    np.linalg.matrix_rank(a)
    np.linalg.lstsq(a, a[:, 0], rcond=None)
    return time.perf_counter() - t0 + candle()


def child_candle(env, cwd) -> float:
    """Seconds for a fresh interpreter to import numpy and run the candle once.

    CLI children spend their time starting up and importing, which the
    in-process candle does not track; this one does the same kind of work.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "from perfbench.candle import candle; candle()"],
                   env=env, cwd=cwd, check=True)
    return time.perf_counter() - t0
