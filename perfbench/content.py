"""Seed to clip: a synth_sequence canvas of typical detail for each seed.

Canvases drawn by `nbv.tools.synth_sequence` differ several-fold in how
much detail they hold, so across seeds the coded bits, and with them the
decode time, spread by about a fifth between the quartiles. A benchmark
run then measures the canvas more than the program. So each seed draws
CANDIDATES canvases and keeps the one whose detail is nearest the
workload's typical value. Detail is estimated here, without the codec, so
a change to the codec cannot change which clip a seed selects: it is the
exp-Golomb-like cost of the quantized 8x8 DCT coefficients of a
quarter-size render of the canvas, which scales the same as the clip.

Run `python3 perfbench/content.py` from the repository root to print the
median detail of a fixed population of canvases for each workload; those
medians are the `detail` targets in workloads.py.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

CANDIDATES = 16
POPULATION = range(1_000_000, 1_000_200)

_K = np.arange(8)[:, None]
_DCT = np.cos(np.pi * (2 * np.arange(8)[None, :] + 1) * _K / 16) * np.where(
    _K == 0, math.sqrt(1 / 8), math.sqrt(2 / 8))


def _plane_cost(plane: np.ndarray, step: float) -> float:
    h, w = (s - s % 8 for s in plane.shape)
    tiles = (plane[:h, :w].astype(np.float64)
             .reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3))
    levels = np.abs(np.rint(_DCT @ tiles @ _DCT.T / step))
    nz = levels[levels > 0]
    return float(nz.size + 2 * np.log2(2 * nz).sum())


def detail(wl, canvas_seed: int) -> float:
    """log2 of the estimated intra cost of a quarter-size render."""
    from nbv.tools import synth_sequence
    w, h = wl.width // 8 * 2, wl.height // 8 * 2
    (f,) = synth_sequence(wl.kind, w, h, 1, velocity=(0, 0), seed=canvas_seed)
    step = 2.0 ** ((wl.qp - 12) / 6.0)  # a quarter-size tile spans 4x the detail
    planes = (f.y[:h, :w], f.cb[:h // 2, :w // 2], f.cr[:h // 2, :w // 2])
    cost = sum(_plane_cost(p, step) for p in planes)
    return math.log2(1.0 + cost)


def canvas_seed(wl, seed: int) -> int:
    """The candidate canvas, drawn from seed, whose detail is nearest typical."""
    candidates = [seed * CANDIDATES + i for i in range(CANDIDATES)]
    return min(candidates, key=lambda s: abs(detail(wl, s) - wl.detail))


def make_clip(wl, seed: int):
    from nbv.tools import synth_sequence
    return synth_sequence(wl.kind, wl.width, wl.height, wl.frames,
                          velocity=wl.velocity, seed=canvas_seed(wl, seed))


if __name__ == "__main__":
    import sys
    from pathlib import Path
    sys.path.insert(0, str(Path.cwd() / "src"))
    from workloads import ALL_WORKLOADS
    for wl in ALL_WORKLOADS.values():
        print(wl.name, round(statistics.median(detail(wl, s) for s in POPULATION), 3))
