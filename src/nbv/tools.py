"""Test-signal synthesis, quality metrics, and stream bit accounting.

synth_sequence renders a seeded procedural canvas (gradients, sinusoidal
textures, anti-aliased disks) at three times the frame size and derives
frames from it: a fixed crop (static), a crop translating by an integer
velocity per frame (pan), or a centered window growing or shrinking per
frame with bilinear resampling (zoom). Pan frames are exact integer shifts
of each other wherever they overlap, which motion search should recover.
Each canvas plane is rendered in bands of BAND_ROWS rows, so the float64
working set is one canvas field plus one band's temporaries (about 1.3
float64 luma canvases in all, where whole-canvas temporaries took 5), and
a zoom frame converts only the samples its window reads. A 16-frame
1280x720 zoom clip took 2.5-3.0 s at a process peak RSS of 115 MB,
imports included, on a shared 2-core x86-64 machine (3.2-3.3 s and
354 MB with whole-canvas temporaries).

bit_accounting folds the per-unit bit counts parse_stream reports into
five categories that sum exactly to the stream size, and csv_text renders
the encoder's and decoder's per-frame reports.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .bitstream import BIT_CATEGORIES, BlockMode, StreamHeader, parse_stream
from .core import Frame, make_frame, round_half_away
from .entropy import StreamError
from .gnn import param_count

SYNTH_KINDS = ("static", "pan", "zoom_out", "zoom_in")
BAND_ROWS = 32  # canvas rows rendered at a time
PSNR_CAP = 99.0


def plane_psnr(a: np.ndarray, b: np.ndarray, peak: float = 255.0) -> float:
    """PSNR between two equally shaped sample planes, capped at 99 dB."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape:
        raise ValueError(f"shape mismatch {av.shape} vs {bv.shape}")
    mse = float(np.mean((av - bv) ** 2))
    if mse == 0.0:
        return PSNR_CAP
    return min(PSNR_CAP, 10.0 * math.log10(peak * peak / mse))


def frame_psnr(a: Frame, b: Frame) -> tuple[float, float, float]:
    """Per-plane PSNR over the display area of two frames."""
    if (a.display_width, a.display_height) != (b.display_width, b.display_height):
        raise ValueError("display size mismatch")
    w, h = a.display_width, a.display_height
    cw, ch = (w + 1) // 2, (h + 1) // 2
    return (
        plane_psnr(a.y[:h, :w], b.y[:h, :w]),
        plane_psnr(a.cb[:ch, :cw], b.cb[:ch, :cw]),
        plane_psnr(a.cr[:ch, :cw], b.cr[:ch, :cw]),
    )


def _render_canvas(w: int, h: int, rng: np.random.Generator, n_sine: int,
                   n_disks: int, lo: float, hi: float) -> np.ndarray:
    """Seeded mixture of a gradient, sinusoids, and anti-aliased disks,
    stretched to [lo, hi] and quantized to 8 bits.

    The float64 field is the only canvas-sized temporary: the gradient and
    the sinusoids are added into it BAND_ROWS rows at a time, after all
    their draws, and the stretched field is quantized band by band too. A
    disk adds amp * 0.0 wherever dist >= rad + 0.5, which leaves every
    sample as it was, so each disk is drawn only over the rows and columns
    within rad + 0.5 of its centre, rounded outwards.
    """
    xs = np.arange(w, dtype=np.float64)
    ys = np.arange(h, dtype=np.float64)[:, None]
    xn, yn = xs / w, ys / h
    gx, gy = rng.uniform(-1.0, 1.0, size=2)
    sines = []
    for _ in range(n_sine):
        fx, fy = rng.uniform(0.5, 7.0, size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.1, 0.5)
        sines.append((fx, fy, phase, amp))
    v = np.empty((h, w))
    for r in range(0, h, BAND_ROWS):
        band, ynb = v[r:r + BAND_ROWS], yn[r:r + BAND_ROWS]
        np.add(gx * xn, gy * ynb, out=band)
        for fx, fy, phase, amp in sines:
            band += amp * np.sin(2.0 * np.pi * (fx * xn + fy * ynb) + phase)
    for _ in range(n_disks):
        cx = rng.uniform(0.0, w)
        cy = rng.uniform(0.0, h)
        rad = rng.uniform(0.02, 0.12) * min(w, h)
        amp = rng.uniform(-1.0, 1.0)
        reach = rad + 0.5
        x0, x1 = max(0, math.floor(cx - reach)), min(w, math.ceil(cx + reach) + 1)
        y0, y1 = max(0, math.floor(cy - reach)), min(h, math.ceil(cy + reach) + 1)
        dist = np.sqrt((xs[x0:x1] - cx) ** 2 + (ys[y0:y1] - cy) ** 2)
        v[y0:y1, x0:x1] += amp * np.clip(reach - dist, 0.0, 1.0)
    vlo, vhi = float(v.min()), float(v.max())
    out = np.empty((h, w), np.uint8)
    for r in range(0, h, BAND_ROWS):
        field = (v[r:r + BAND_ROWS] - vlo) / (vhi - vlo) if vhi > vlo else 0.5
        out[r:r + BAND_ROWS] = np.clip(round_half_away(lo + field * (hi - lo)), 0, 255)
    return out


def _bilinear(plane: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    xc = np.clip(xs, 0.0, w - 1.0)
    yc = np.clip(ys, 0.0, h - 1.0)
    x0 = np.clip(np.floor(xc).astype(np.int64), 0, w - 2) if w > 1 else np.zeros_like(xc, np.int64)
    y0 = np.clip(np.floor(yc).astype(np.int64), 0, h - 2) if h > 1 else np.zeros_like(yc, np.int64)
    fx = (xc - x0)[None, :]
    fy = (yc - y0)[:, None]
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    # the gathered uint8 samples convert exactly in each float64 product,
    # so only the samples the window reads are ever float64
    top = plane[np.ix_(y0, x0)] * (1 - fx) + plane[np.ix_(y0, x1)] * fx
    bot = plane[np.ix_(y1, x0)] * (1 - fx) + plane[np.ix_(y1, x1)] * fx
    return top * (1 - fy) + bot * fy


def _zoom_frame(canvas_y, canvas_cb, canvas_cr, width, height, zw) -> Frame:
    ch_can, cw_can = canvas_y.shape
    zh = height * zw / width
    x0 = (cw_can - zw) / 2.0
    y0 = (ch_can - zh) / 2.0
    if x0 < 0 or y0 < 0:
        raise ValueError("zoom window leaves the canvas")
    xs = x0 + (np.arange(width) + 0.5) * zw / width - 0.5
    ys = y0 + (np.arange(height) + 0.5) * zh / height - 0.5
    y = np.clip(round_half_away(_bilinear(canvas_y, ys, xs)), 0, 255).astype(np.uint8)
    xc = x0 / 2.0 + (np.arange(width // 2) + 0.5) * (zw / 2.0) / (width // 2) - 0.5
    yc = y0 / 2.0 + (np.arange(height // 2) + 0.5) * (zh / 2.0) / (height // 2) - 0.5
    cb = np.clip(round_half_away(_bilinear(canvas_cb, yc, xc)), 0, 255).astype(np.uint8)
    cr = np.clip(round_half_away(_bilinear(canvas_cr, yc, xc)), 0, 255).astype(np.uint8)
    return make_frame(y, cb, cr)


def synth_sequence(
    kind: str, width: int, height: int, n_frames: int,
    velocity: tuple[int, int] = (4, 0), seed: int = 0,
) -> list[Frame]:
    """Deterministic procedural test sequence in planar 4:2:0.

    Pan translates the crop window by velocity pels per frame; zoom grows
    (zoom_out) or shrinks (zoom_in) a centered window by velocity[0] pels
    per side per frame. Raises if the requested path leaves the canvas.
    """
    if kind not in SYNTH_KINDS:
        raise ValueError(f"kind must be one of {SYNTH_KINDS}")
    if width < 2 or height < 2 or width % 2 or height % 2:
        raise ValueError("width and height must be even and at least 2")
    if n_frames < 1:
        raise ValueError("frame count must be positive")
    rng = np.random.default_rng(seed)
    cw, ch = 3 * width, 3 * height
    canvas_y = _render_canvas(cw, ch, rng, 4, 40, 0.0, 255.0)
    canvas_cb = _render_canvas(cw // 2, ch // 2, rng, 3, 12, 64.0, 192.0)
    canvas_cr = _render_canvas(cw // 2, ch // 2, rng, 3, 12, 64.0, 192.0)

    frames = []
    if kind in ("static", "pan"):
        vx, vy = (0, 0) if kind == "static" else (int(velocity[0]), int(velocity[1]))
        x_start = (cw - width) // 2 - (vx * (n_frames - 1)) // 2
        y_start = (ch - height) // 2 - (vy * (n_frames - 1)) // 2
        x_start -= x_start % 2
        y_start -= y_start % 2
        for t in range(n_frames):
            x0 = x_start + vx * t
            y0 = y_start + vy * t
            if not (0 <= x0 <= cw - width and 0 <= y0 <= ch - height):
                raise ValueError("pan window leaves the canvas")
            frames.append(make_frame(
                canvas_y[y0:y0 + height, x0:x0 + width].copy(),
                canvas_cb[y0 // 2:(y0 + height) // 2, x0 // 2:(x0 + width) // 2].copy(),
                canvas_cr[y0 // 2:(y0 + height) // 2, x0 // 2:(x0 + width) // 2].copy(),
            ))
    else:
        rate = abs(int(velocity[0]))
        for t in range(n_frames):
            grow = t if kind == "zoom_out" else (n_frames - 1 - t)
            zw = width + 2.0 * rate * grow
            frames.append(_zoom_frame(canvas_y, canvas_cb, canvas_cr,
                                      width, height, zw))
    return frames


@dataclass
class UnitInfo:
    index: int
    kind: str  # "param_set" or "frame"
    bits: int
    detail: str


@dataclass
class BitAccounting:
    """Where every bit of a stream went; categories sum to total_bits."""

    header: StreamHeader
    categories: dict[str, int]
    total_bits: int
    units: list[UnitInfo] = field(default_factory=list)

    def ratios(self) -> dict[str, float]:
        return {k: v / self.total_bits for k, v in self.categories.items()}


def bit_accounting(data: bytes) -> BitAccounting:
    """Parse a stream, charging each bit to exactly one category."""
    sizes: list = []
    header, stream_units = parse_stream(data, sizes)
    cats = dict.fromkeys(BIT_CATEGORIES, 0)
    cats["header"] = sizes[0]
    units: list[UnitInfo] = []
    for kind, payload in stream_units:
        if kind == "param_set":
            bits = sizes[-1]
            cats["param_sets"] += bits
            layers = payload.layer_sizes
            detail = f"layers={list(layers)} params={param_count(layers)}"
        else:
            fb = sizes[-1]
            cats["regions_and_modes"] += fb.modes
            cats["mvs"] += fb.mvs
            cats["residuals"] += fb.residuals
            bits = fb.total
            detail = (f"type={payload.frame_type} regions={len(payload.regions)} "
                      f"gen_blocks={np.count_nonzero(payload.modes == BlockMode.GEN)}")
        units.append(UnitInfo(len(units), kind, bits, detail))
    acct = BitAccounting(header, cats, len(data) * 8, units)
    if sum(cats.values()) != acct.total_bits:
        raise StreamError("bit accounting does not sum to stream size")
    return acct


def csv_text(rows, columns) -> str:
    """A report's rows as CSV, one column per attribute; floats to 4 places."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for r in rows:
        values = (getattr(r, c) for c in columns)
        writer.writerow([f"{v:.4f}" if isinstance(v, float) else v for v in values])
    return buf.getvalue()
