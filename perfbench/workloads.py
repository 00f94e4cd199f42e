"""Benchmark workloads: seeded synthetic clips and the codec settings for each.

Every workload uses the default 3-25-40-60-1536 generator architecture,
300 training steps and search range 8. The seed passed on the command line
picks the `nbv.tools.synth_sequence` canvas (see content.py); the codec only
ever sees the frames.
This module is plain data, so the orchestrator can read it without
importing numpy or the codec.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # synth_sequence kind
    width: int
    height: int
    frames: int
    velocity: tuple[int, int]
    qp: int
    gnn: bool
    interval: int
    detail: float  # typical canvas detail, from `python3 perfbench/content.py`
    zoom_hint: str = "none"
    steps: int = 300
    search_range: int = 8


WORKLOADS = {w.name: w for w in (
    Workload(
        "pan_qp20_gen",
        "reference 320x192 pan, generator on: both passes run per period and "
        "the network always loses, so wasted passes and training show",
        kind="pan", width=320, height=192, frames=8, velocity=(4, 0),
        qp=20, gnn=True, interval=8, detail=13.667,
    ),
    Workload(
        "zoom_qp8_gen",
        "zoom-out with four-margin regions at qp 8: the largest training set "
        "and the densest stream, so gnn.train and parsing show",
        kind="zoom_out", width=320, height=192, frames=16, velocity=(2, 0),
        qp=8, gnn=True, interval=16, zoom_hint="out", detail=14.705,
    ),
    Workload(
        "wide_qp32_nogen",
        "640x384 pan, generator off: no training or second pass, time goes to "
        "residual costing and motion search; the largest frames",
        kind="pan", width=640, height=384, frames=4, velocity=(3, 1),
        qp=32, gnn=False, interval=8, detail=13.824,
    ),
)}

# Not part of the measured set: a seconds-long run for the self-test.
SMOKE = Workload(
    "smoke", "tiny clip that exercises every layer in seconds",
    kind="pan", width=96, height=64, frames=4, velocity=(4, 0),
    qp=20, gnn=True, interval=4, detail=11.239, steps=50,
)

ALL_WORKLOADS = {**WORKLOADS, SMOKE.name: SMOKE}
