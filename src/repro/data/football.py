"""Synthetic stand-in for the DEBS 2013 football sensor dataset.

The paper replays ball-position sensor data from a football match
(Mutschler et al., DEBS 2013 grand challenge): roughly 2000 position
updates per second, with the authors adding "5 gaps per minute to
separate sessions" (ball possession changing players).  The original
dataset is not redistributable, so this generator reproduces the
characteristics the experiments actually depend on:

* update rate: ``rate`` records per second (default 2000);
* session gaps: ``gaps_per_minute`` inactivity gaps longer than typical
  session timeouts (default 5/min, ~1.5 s long);
* value distribution: ball speed-like continuous values with ~84 232
  distinct values in the aggregated column (quantized floats), which
  drives the run-length-encoding result of Figure 14.

Timestamps are integer milliseconds.
"""

from __future__ import annotations

import random
from typing import List

from ..core.types import Record

__all__ = ["football_stream", "FOOTBALL_RATE_HZ", "FOOTBALL_DISTINCT_VALUES"]

FOOTBALL_RATE_HZ = 2000
FOOTBALL_DISTINCT_VALUES = 84_232


def football_stream(
    num_records: int,
    *,
    rate_hz: int = FOOTBALL_RATE_HZ,
    gaps_per_minute: int = 5,
    gap_ms: int = 1500,
    distinct_values: int = FOOTBALL_DISTINCT_VALUES,
    start_ts: int = 0,
    seed: int = 13,
    key: object = None,
) -> List[Record]:
    """Generate ``num_records`` in-order football-like sensor records.

    The inter-record spacing is ``1000 / rate_hz`` ms with session gaps
    of ``gap_ms`` inserted at the configured frequency.  Values are ball
    speeds quantized to ``distinct_values`` levels.
    """
    if num_records < 0:
        raise ValueError("num_records must be non-negative")
    rng = random.Random(seed)
    period_us = max(1, int(1_000_000 / rate_hz))
    gap_every = int(60 * rate_hz / gaps_per_minute) if gaps_per_minute > 0 else 0
    records: List[Record] = []
    ts_us = start_ts * 1000
    speed = 8.0  # m/s-ish ball speed random walk
    for index in range(num_records):
        if gap_every and index > 0 and index % gap_every == 0:
            ts_us += gap_ms * 1000
        speed = min(40.0, max(0.0, speed + rng.gauss(0.0, 1.2)))
        quantized = round(speed * distinct_values / 40.0) % distinct_values
        value = quantized * 40.0 / distinct_values
        records.append(Record(ts_us // 1000, value, key=key))
        ts_us += period_us
    return records


def football_keyed_stream(
    num_records: int, num_keys: int, *, seed: int = 13, **kwargs
) -> List[Record]:
    """Keyed variant for the parallel experiment (player/sensor ids)."""
    base = football_stream(num_records, seed=seed, **kwargs)
    rng = random.Random(seed + 1)
    for record in base:
        record.key = rng.randrange(num_keys)
    return base
