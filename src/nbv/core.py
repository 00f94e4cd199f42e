"""Frames, blocks, sequence configuration, and planar 4:2:0 file I/O.

A frame holds 8-bit Y, Cb, Cr planes. The coded area is padded up to
multiples of the 32-pixel luma block size by edge replication; the original
display size travels with the frame so file output can crop back to it.
A Block32 is one coding unit: 32x32 luma plus two co-located 16x16 chroma
blocks, 1536 samples in total. StreamHeader holds the header fields and the
one check of their limits; bitstream codes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

BLOCK = 32
CHROMA_BLOCK = 16
SAMPLES_PER_BLOCK = BLOCK * BLOCK + 2 * CHROMA_BLOCK * CHROMA_BLOCK
# Largest picture in luma samples: HEVC level 6.2's MaxLumaPs. It bounds
# what a stream header can make a decoder allocate.
MAX_LUMA_SAMPLES = 35_651_584
# Largest motion search range in pels. The search makes one pass over the
# frame per offset, (2r + 1)^2 passes in all; 64 is 16,641 passes.
MAX_SEARCH_RANGE = 64


_SIGN_BIT = np.uint64(1 << 63)
_HALF_BITS = np.float64(0.5).view(np.uint64)


def round_half_away(x, out=None):
    """Round to nearest integer, halves away from zero. Works elementwise
    on x taken as float64; out, an array that may be x itself, takes the
    result.

    x + copysign(0.5, x) rounds like -(|x| + 0.5) for x < 0, so the
    result is sign(x) * floor(|x| + 0.5) in value for every float; only
    the zero's sign can differ (-0.0 at x = -0.0). The signed half is x's
    sign bit OR'd onto 0.5's bits: on cache-sized arrays, two integer
    passes over the float64 view take less time than one np.copysign.
    """
    x = np.asarray(x, dtype=np.float64)
    half = np.bitwise_and(x.view(np.uint64), _SIGN_BIT)
    half |= _HALF_BITS
    return np.trunc(np.add(x, half.view(np.float64), out=out), out=out)


class BlockCoord(NamedTuple):
    bx: int
    by: int


@dataclass
class Frame:
    """One picture: padded planes plus the display size they crop back to."""

    y: np.ndarray
    cb: np.ndarray
    cr: np.ndarray
    display_width: int
    display_height: int

    @property
    def width(self) -> int:
        return self.y.shape[1]

    @property
    def height(self) -> int:
        return self.y.shape[0]

    def copy(self) -> "Frame":
        return Frame(
            self.y.copy(), self.cb.copy(), self.cr.copy(),
            self.display_width, self.display_height,
        )


@dataclass
class Block32:
    """One coding unit: 32x32 luma and two 16x16 chroma blocks.

    The planes may carry leading axes over several units; indexing a
    Block32, or assigning to an index of it, indexes those axes of all
    three planes.
    """

    y: np.ndarray
    cb: np.ndarray
    cr: np.ndarray

    def __getitem__(self, index) -> "Block32":
        return Block32(self.y[index], self.cb[index], self.cr[index])

    def __setitem__(self, index, value: "Block32") -> None:
        self.y[index] = value.y
        self.cb[index] = value.cb
        self.cr[index] = value.cr


@dataclass
class StreamHeader:
    """A stream's header fields; check() holds every limit on their values."""

    width: int
    height: int
    frame_count: int
    qp: int
    gnn_enabled: bool
    gnn_interval: int

    def check(self) -> None:
        """Raise ValueError unless each frame side is 1..65535 and the frame
        at most MAX_LUMA_SAMPLES, the frame count 32-bit, qp 0..51 and the
        interval 8-bit, and 1..120 when the generator is on."""
        size = f"{self.width}x{self.height} frame"
        if not (1 <= self.width <= 0xFFFF and 1 <= self.height <= 0xFFFF):
            raise ValueError(f"{size} has a side outside [1, 65535]")
        if self.width * self.height > MAX_LUMA_SAMPLES:
            raise ValueError(f"{size} exceeds {MAX_LUMA_SAMPLES} luma samples")
        if not 0 <= self.frame_count <= 0xFFFFFFFF:
            raise ValueError(f"frame count {self.frame_count} outside 32 bits")
        if not 0 <= self.qp <= 51:
            raise ValueError(f"qp {self.qp} out of range [0, 51]")
        low, high = (1, 120) if self.gnn_enabled else (0, 0xFF)
        if not low <= self.gnn_interval <= high:
            raise ValueError(
                f"generator interval {self.gnn_interval} outside [{low}, {high}]")

    def grid(self) -> tuple[int, int]:
        return block_grid_dims(self.width, self.height)

    def set_frames(self, start: int) -> range:
        """The frames a parameter set sent before frame start covers: one
        generator interval, cut at the end of the stream."""
        return range(start, min(start + self.gnn_interval, self.frame_count))


@dataclass
class SequenceConfig:
    """Validated encoder-side settings for one sequence."""

    width: int
    height: int
    frame_count: int
    qp: int
    gnn_interval: int = 16
    gnn_enabled: bool = True
    gnn_arch: tuple[int, ...] = (3, 25, 40, 60, 1536)
    search_range: int = 8

    def header(self) -> StreamHeader:
        return StreamHeader(self.width, self.height, self.frame_count, self.qp,
                            self.gnn_enabled, self.gnn_interval)

    def validate(self) -> None:
        self.header().check()  # the header's limits, then the encoder's own
        if self.frame_count < 1 or self.gnn_interval < 1:
            raise ValueError("frame count and generator interval must be positive")
        if not 0 <= self.search_range <= MAX_SEARCH_RANGE:
            raise ValueError(
                f"search range out of range [0, {MAX_SEARCH_RANGE}]: {self.search_range}")


def block_grid_dims(width: int, height: int) -> tuple[int, int]:
    """Number of 32x32 blocks (columns, rows) covering a width x height frame."""
    if width < 1 or height < 1:
        raise ValueError("frame dimensions must be positive")
    return math.ceil(width / BLOCK), math.ceil(height / BLOCK)


def _pad_to_multiple(plane: np.ndarray, mult: int) -> np.ndarray:
    h, w = plane.shape
    ph = (-h) % mult
    pw = (-w) % mult
    if ph == 0 and pw == 0:
        return plane
    return np.pad(plane, ((0, ph), (0, pw)), mode="edge")


def make_frame(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> Frame:
    """Build a frame from unpadded planes, edge-replicating to the block grid."""
    y = np.ascontiguousarray(y, dtype=np.uint8)
    cb = np.ascontiguousarray(cb, dtype=np.uint8)
    cr = np.ascontiguousarray(cr, dtype=np.uint8)
    h, w = y.shape
    exp_cw, exp_ch = (w + 1) // 2, (h + 1) // 2
    if cb.shape != (exp_ch, exp_cw) or cr.shape != (exp_ch, exp_cw):
        raise ValueError(
            f"chroma plane shape {cb.shape} does not match luma {y.shape}"
        )
    fy = _pad_to_multiple(y, BLOCK)
    fcb = _pad_to_multiple(cb, CHROMA_BLOCK)
    fcr = _pad_to_multiple(cr, CHROMA_BLOCK)
    return Frame(fy, fcb, fcr, w, h)


def blank_frame(width: int, height: int, value: int = 0) -> Frame:
    """All-`value` frame with padded planes for a width x height display size."""
    cols, rows = block_grid_dims(width, height)
    y = np.full((rows * BLOCK, cols * BLOCK), value, dtype=np.uint8)
    cb = np.full((rows * CHROMA_BLOCK, cols * CHROMA_BLOCK), value, dtype=np.uint8)
    return Frame(y, cb, cb.copy(), width, height)


def _block_views(frame: Frame, c) -> tuple:
    """The grid-split planes of frame, (rows, size, cols, size) views, and
    the bx and by arrays of c, checked to lie on the grid."""
    cols, rows = block_grid_dims(frame.width, frame.height)
    at = np.asarray(c)
    if ((at < 0) | (at >= (cols, rows))).any():
        raise ValueError(f"block coordinate {c} outside {cols}x{rows} grid")
    # splitting both axes is always a view, so writes reach the planes
    views = tuple(plane.reshape(rows, size, cols, size) for plane, size in
                  ((frame.y, BLOCK), (frame.cb, CHROMA_BLOCK), (frame.cr, CHROMA_BLOCK)))
    return views, at[..., 0], at[..., 1]


def extract_block(frame: Frame, c) -> Block32:
    """Copy out coding units; exact inverse of insert_block.

    c is a BlockCoord, or block coordinates (..., 2) as (bx, by) whose
    leading axes pass through to the planes, so one call reads many units.
    """
    views, bx, by = _block_views(frame, c)
    return Block32(*(view[by, :, bx, :] for view in views))


def insert_block(frame: Frame, c, block: Block32) -> Frame:
    """Write coding units in place; exact inverse of extract_block.

    c is a BlockCoord, or block coordinates (..., 2) as (bx, by) whose
    leading axes match the block planes', so one call writes many units.
    """
    views, bx, by = _block_views(frame, c)
    for view, part in zip(views, (block.y, block.cb, block.cr)):
        view[by, :, bx, :] = part
    return frame


def yuv_frame_bytes(width: int, height: int) -> int:
    """Bytes of one planar 8-bit 4:2:0 frame of the given display size."""
    cw, ch = (width + 1) // 2, (height + 1) // 2
    return width * height + 2 * cw * ch


def read_yuv(path, width: int, height: int, n_frames: int) -> list[Frame]:
    """Read n_frames of planar 8-bit 4:2:0 video; frames come back padded."""
    if width < 1 or height < 1 or n_frames < 1:
        raise ValueError("dimensions and frame count must be positive")
    fbytes = yuv_frame_bytes(width, height)
    with open(path, "rb") as f:
        data = f.read(n_frames * fbytes)  # the frames view this buffer
    if len(data) < n_frames * fbytes:
        raise ValueError(
            f"yuv file holds {len(data)} bytes, "
            f"need {n_frames * fbytes} for {n_frames} frames of {width}x{height}"
        )
    cw, ch = (width + 1) // 2, (height + 1) // 2
    frames = []
    for i in range(n_frames):
        base = i * fbytes
        y = np.frombuffer(data, np.uint8, width * height, base)
        cb = np.frombuffer(data, np.uint8, cw * ch, base + width * height)
        cr = np.frombuffer(data, np.uint8, cw * ch, base + width * height + cw * ch)
        frames.append(make_frame(
            y.reshape(height, width), cb.reshape(ch, cw), cr.reshape(ch, cw)
        ))
    return frames


def write_yuv(path, frames: list[Frame]) -> int:
    """Write frames as planar 8-bit 4:2:0, cropped to their display size."""
    total = 0
    with open(path, "wb") as f:
        for fr in frames:
            w, h = fr.display_width, fr.display_height
            cw, ch = (w + 1) // 2, (h + 1) // 2
            for plane, pw, ph in ((fr.y, w, h), (fr.cb, cw, ch), (fr.cr, cw, ch)):
                buf = np.ascontiguousarray(plane[:ph, :pw], dtype=np.uint8)
                f.write(buf.tobytes())
                total += pw * ph
    return total
