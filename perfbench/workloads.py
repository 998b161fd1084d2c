"""Workload definitions of the campaign cost benchmark (``workloads.json``)."""

from __future__ import annotations

import json
import os
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent / "workloads.json"


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def load_workload(name: str) -> dict:
    workloads = load_spec()["workloads"]
    if name not in workloads:
        raise SystemExit(f"unknown workload {name!r}; known: {', '.join(workloads)}")
    return workloads[name]


def campaign_seeds(seed: int, count: int, default_seed: int) -> list[int]:
    """Campaign seeds of the ``count`` full repetitions of a run seeded ``seed``.

    In a run of several repetitions, repetition 0 replays the default
    seed, whose fingerprint is recorded, so every such run checks its
    simulated results exactly.  The others draw fresh fault lists from
    ``seed``, which averages out how much one fault list's mix of hangs
    and crashes moves the timings.  A single repetition uses ``seed``.
    """
    seeds = [seed + 1_000_003 * index for index in range(count)]
    if count > 1:
        seeds[0] = default_seed
    return seeds


def resolve_workers(value) -> int:
    """``"nproc"`` means the usable CPUs, at least 2 (a pool) and at most 4."""
    if value == "nproc":
        return min(4, max(2, len(os.sched_getaffinity(0))))
    return int(value)
