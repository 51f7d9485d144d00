"""Pieces the workloads and the runner share."""

from __future__ import annotations

import math
import os
import statistics
from dataclasses import dataclass, field
from pathlib import Path

# percentiles tried from the top; one is reported only with ten samples beyond it
PERCENTILE_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
SAMPLES_BEYOND = 10


@dataclass
class PassResult:
    """One closed-loop pass: its timed wall, per-metric samples and failures."""
    wall: float = 0.0
    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    candles: list[float] = field(default_factory=list)
    ref_wall: float | None = None  # wall at the candle's reference machine speed

    def record(self, problems: list[str]) -> None:
        """Count one failed operation when it has any problem."""
        if problems:
            self.failed += 1
            self.failures += problems


def child_env(root: Path) -> dict[str, str]:
    """Environment for CLI children: the checkout's sources first on the path."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def top_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(p, value) for the highest ladder percentile with ten samples beyond it."""
    n = len(samples)
    for p in PERCENTILE_LADDER:
        if round(n * (100 - p), 6) >= 100 * SAMPLES_BEYOND:
            ordered = sorted(samples)
            return p, ordered[math.ceil(p / 100 * n) - 1]  # nearest rank
    return None


def summary(samples: list[float]) -> dict:
    """Median, sample count and the top percentile the count allows."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    top = top_percentile(samples)
    if top is not None:
        out[f"p{top[0]:g}"] = top[1]
    return out
