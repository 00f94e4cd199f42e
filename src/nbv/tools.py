"""Test-signal synthesis, quality metrics, and stream bit accounting.

synth_sequence renders a seeded procedural canvas (gradients, sinusoidal
textures, anti-aliased disks) at three times the frame size and derives
frames from it: a fixed crop (static), a crop translating by an integer
velocity per frame (pan), or a centered window growing or shrinking per
frame with bilinear resampling (zoom). Pan frames are exact integer shifts
of each other wherever they overlap, which motion search should recover.
No canvas-sized array is made. Each canvas plane is rendered in
full-width bands of BAND_ROWS rows, each band gives its min and max to
the canvas-wide stretch, and float64 samples are kept only for the
window the frames read: the union of the pan or static crops, or of a
zoom's bilinear taps. A zoom frame is resampled FRAME_BAND_ROWS rows at
a time. Both reuse their band buffers: fresh band temporaries above
malloc's 128 KB mmap threshold are mapped and faulted in anew for every
operation, which took 7x the page faults of a whole-canvas field for a
640x384 pan. Process peak RSS and time, imports included, on a shared
2-core x86-64 machine: a 16-frame 1280x720 zoom clip 66 MB in 1.2 s,
and an 8-frame 1920x1080 clip 71 MB in 1.9 s (zoom) or 68 MB in 1.2 s
(pan). A float64 field for the whole canvas took 114 MB in 1.8 s, and
210 MB in 3.3 s (zoom) or 2.4 s (pan).

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
# zoom frame rows resampled at a time: a canvas is three frames wide, so
# such a band holds as many samples as a canvas band
FRAME_BAND_ROWS = 3 * BAND_ROWS
PSNR_CAP = 99.0


def plane_psnr(a: np.ndarray, b: np.ndarray, peak: float = 255.0) -> float:
    """PSNR between two equally shaped uint8 sample planes, capped at 99 dB.

    The squared error is summed exactly, from int16 differences in int64,
    and divided once. Every partial sum of integer squares below 2^53 is
    exact in float64 too, so this is the float64 mean to the bit.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.dtype != np.uint8 or b.dtype != np.uint8:
        raise TypeError(f"expected uint8 planes, got {a.dtype} and {b.dtype}")
    d = np.subtract(a, b, dtype=np.int16)
    sse = int(np.square(d, dtype=np.int32).sum(dtype=np.int64))
    if sse == 0:
        return PSNR_CAP
    return min(PSNR_CAP, 10.0 * math.log10(peak * peak / (sse / d.size)))


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
                   n_disks: int, lo: float, hi: float, window) -> np.ndarray:
    """The (rows, cols) window of a seeded w x h mixture of a gradient,
    sinusoids and anti-aliased disks, stretched to [lo, hi] over the whole
    canvas and quantized to 8 bits.

    Every parameter is drawn first. The canvas is then rendered in
    full-width bands of BAND_ROWS rows: the gradient, the sinusoids, then
    each disk clipped to the band, in draw order, so each sample sees the
    float64 operations of a whole-canvas render in the same order. A disk
    adds amp * 0.0 wherever dist >= rad + 0.5, which leaves every sample as
    it was, so each disk is drawn only over the rows and columns within
    rad + 0.5 of its centre, rounded outwards. Each band gives its min and
    max to the stretch and keeps only its samples inside the window, which
    is then quantized band by band: no canvas-sized array is made.
    """
    rows, cols = window
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
    disks = []
    for _ in range(n_disks):
        cx = rng.uniform(0.0, w)
        cy = rng.uniform(0.0, h)
        rad = rng.uniform(0.02, 0.12) * min(w, h)
        amp = rng.uniform(-1.0, 1.0)
        reach = rad + 0.5
        x0, x1 = max(0, math.floor(cx - reach)), min(w, math.ceil(cx + reach) + 1)
        y0, y1 = max(0, math.floor(cy - reach)), min(h, math.ceil(cy + reach) + 1)
        disks.append((y0, y1, x0, x1, (ys[y0:y1] - cy) ** 2, (xs[x0:x1] - cx) ** 2,
                      reach, amp))
    v = np.empty((rows.stop - rows.start, cols.stop - cols.start))
    vlo, vhi = math.inf, -math.inf
    bufs = np.empty((2, BAND_ROWS, w))
    for r in range(0, h, BAND_ROWS):
        r1 = min(h, r + BAND_ROWS)
        band, term, ynb = bufs[0, :r1 - r], bufs[1, :r1 - r], yn[r:r1]
        np.add(gx * xn, gy * ynb, out=band)
        for fx, fy, phase, amp in sines:
            # amp * sin(2 pi (fx x + fy y) + phase), in one reused plane
            np.add(fx * xn, fy * ynb, out=term)
            term *= 2.0 * np.pi
            term += phase
            np.sin(term, out=term)
            term *= amp
            band += term
        for y0, y1, x0, x1, dy2, dx2, reach, amp in disks:
            a, b = max(y0, r), min(y1, r1)
            if a < b:
                dist = np.sqrt(dx2 + dy2[a - y0:b - y0])
                band[a - r:b - r, x0:x1] += amp * np.clip(reach - dist, 0.0, 1.0)
        vlo, vhi = min(vlo, float(band.min())), max(vhi, float(band.max()))
        k0, k1 = max(r, rows.start), min(r1, rows.stop)
        if k0 < k1:
            v[k0 - rows.start:k1 - rows.start] = band[k0 - r:k1 - r, cols]
    out = np.empty(v.shape, np.uint8)
    for r in range(0, len(v), BAND_ROWS):
        # lo + (v - vlo) / (vhi - vlo) * (hi - lo), in place
        field = v[r:r + BAND_ROWS]
        if vhi > vlo:
            field -= vlo
            field /= vhi - vlo
        else:
            field[...] = 0.5
        field *= hi - lo
        field += lo
        out[r:r + BAND_ROWS] = np.clip(round_half_away(field, out=field), 0, 255, out=field)
    return out


def _taps(coords: np.ndarray, n: int):
    """Bilinear taps of sample positions on an n-sample axis: the lower and
    upper indices and the upper tap's weight."""
    c = np.clip(coords, 0.0, n - 1.0)
    i0 = np.clip(np.floor(c).astype(np.int64), 0, n - 2)  # a canvas is >= 3 wide
    return i0, np.minimum(i0 + 1, n - 1), c - i0


def _zoom_taps(cw: int, ch: int, width: int, height: int, zw: float):
    """One zoom frame's (row, column) taps on the luma canvas and on the
    chroma canvases, for a centered window zw luma samples wide."""
    zh = height * zw / width
    x0 = (cw - zw) / 2.0
    y0 = (ch - zh) / 2.0
    if x0 < 0 or y0 < 0:
        raise ValueError("zoom window leaves the canvas")
    xs = x0 + (np.arange(width) + 0.5) * zw / width - 0.5
    ys = y0 + (np.arange(height) + 0.5) * zh / height - 0.5
    xc = x0 / 2.0 + (np.arange(width // 2) + 0.5) * (zw / 2.0) / (width // 2) - 0.5
    yc = y0 / 2.0 + (np.arange(height // 2) + 0.5) * (zh / 2.0) / (height // 2) - 0.5
    return ((_taps(ys, ch), _taps(xs, cw)),
            (_taps(yc, ch // 2), _taps(xc, cw // 2)))


def _tap_window(taps) -> tuple[slice, slice]:
    """The (rows, cols) window that every frame's (row, column) taps read."""
    return tuple(slice(int(min(t[i][0].min() for t in taps)),
                       int(max(t[i][1].max() for t in taps)) + 1) for i in (0, 1))


def _resample(win: np.ndarray, window, taps_y, taps_x) -> np.ndarray:
    """Bilinear resampling of a canvas window at full-canvas taps,
    FRAME_BAND_ROWS output rows at a time, rounded to 8 bits. The gathered
    uint8 samples convert exactly in each float64 product, so only the
    band's samples are ever float64."""
    rows, cols = window
    y0, y1, fy = taps_y[0] - rows.start, taps_y[1] - rows.start, taps_y[2][:, None]
    x0, x1, fx = taps_x[0] - cols.start, taps_x[1] - cols.start, taps_x[2][None, :]
    gx = 1 - fx
    out = np.empty((len(y0), len(x0)), np.uint8)
    bufs = np.empty((3, FRAME_BAND_ROWS, len(x0)))
    for r in range(0, len(y0), FRAME_BAND_ROWS):
        a, b, f = (t[r:r + FRAME_BAND_ROWS] for t in (y0, y1, fy))
        top, bot, term = bufs[:, :len(a)]
        # top * (1 - f) + bot * f, each term rounded as written, in place
        np.multiply(win[np.ix_(a, x0)], gx, out=top)
        top += np.multiply(win[np.ix_(a, x1)], fx, out=term)
        np.multiply(win[np.ix_(b, x0)], gx, out=bot)
        bot += np.multiply(win[np.ix_(b, x1)], fx, out=term)
        top *= 1 - f
        bot *= f
        top += bot
        out[r:r + len(a)] = np.clip(round_half_away(top, out=top), 0, 255, out=top)
    return out


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
    cw, ch = 3 * width, 3 * height
    if kind in ("static", "pan"):
        vx, vy = (0, 0) if kind == "static" else (int(velocity[0]), int(velocity[1]))
        x_start = (cw - width) // 2 - (vx * (n_frames - 1)) // 2
        y_start = (ch - height) // 2 - (vy * (n_frames - 1)) // 2
        x_start -= x_start % 2
        y_start -= y_start % 2
        origins = [(y_start + vy * t, x_start + vx * t) for t in range(n_frames)]
        if not all(0 <= x0 <= cw - width and 0 <= y0 <= ch - height
                   for y0, x0 in origins):
            raise ValueError("pan window leaves the canvas")
        tops, lefts = zip(*origins)
        top, left = min(tops), min(lefts)
        bottom, right = max(tops) + height, max(lefts) + width
        luma = (slice(top, bottom), slice(left, right))
        chroma = (slice(top // 2, bottom // 2), slice(left // 2, right // 2))
    else:
        rate = abs(int(velocity[0]))
        grows = range(n_frames) if kind == "zoom_out" else range(n_frames - 1, -1, -1)
        taps = [_zoom_taps(cw, ch, width, height, width + 2.0 * rate * g)
                for g in grows]
        luma = _tap_window([t[0] for t in taps])
        chroma = _tap_window([t[1] for t in taps])
    rng = np.random.default_rng(seed)
    canvas_y = _render_canvas(cw, ch, rng, 4, 40, 0.0, 255.0, luma)
    canvas_cb = _render_canvas(cw // 2, ch // 2, rng, 3, 12, 64.0, 192.0, chroma)
    canvas_cr = _render_canvas(cw // 2, ch // 2, rng, 3, 12, 64.0, 192.0, chroma)

    if kind in ("static", "pan"):
        frames = []
        for y0, x0 in origins:
            ly, lx = y0 - top, x0 - left
            # the chroma crop starts at y0 // 2, which is not
            # top // 2 + ly // 2 where the window starts on an odd row
            cy, cx = y0 // 2 - top // 2, x0 // 2 - left // 2
            frames.append(make_frame(
                canvas_y[ly:ly + height, lx:lx + width].copy(),
                canvas_cb[cy:cy + height // 2, cx:cx + width // 2].copy(),
                canvas_cr[cy:cy + height // 2, cx:cx + width // 2].copy(),
            ))
        return frames
    return [make_frame(_resample(canvas_y, luma, *tl),
                       _resample(canvas_cb, chroma, *tc),
                       _resample(canvas_cr, chroma, *tc)) for tl, tc in taps]


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
