"""Intra prediction and integer-pel motion estimation at the 32x32 block level.

Intra modes predict from already-reconstructed neighbor pixels of the frame
being rebuilt: DC averages the available top row and left column, horizontal
replicates the left column, vertical replicates the top row, and a mode whose
source pixels are unavailable falls back to DC (flat 128 when nothing is
available). Motion estimation is an exhaustive integer search on luma SAD
against the previous reconstructed frame; compensation clamps out-of-frame
taps to the padded frame edge and halves the vector toward zero for chroma.
"""

from __future__ import annotations

from enum import IntEnum
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import BLOCK, CHROMA_BLOCK, Block32, BlockCoord, Frame, block_grid_dims


class IntraMode(IntEnum):
    DC = 0
    HORIZONTAL = 1
    VERTICAL = 2


class MotionVector(NamedTuple):
    dx: int
    dy: int


def _mean_round(total: int, count: int) -> int:
    # Round half up; samples are non-negative so this is half away from zero.
    return (2 * total + count) // (2 * count)


def _intra_plane(plane: np.ndarray, x0: int, y0: int, size: int,
                 have_top: bool, have_left: bool, mode: IntraMode) -> np.ndarray:
    top = plane[y0 - 1, x0:x0 + size].astype(np.int64) if have_top else None
    left = plane[y0:y0 + size, x0 - 1].astype(np.int64) if have_left else None

    if mode == IntraMode.HORIZONTAL and have_left:
        return np.repeat(left[:, None], size, axis=1).astype(np.uint8)
    if mode == IntraMode.VERTICAL and have_top:
        return np.repeat(top[None, :], size, axis=0).astype(np.uint8)

    # DC, or a directional mode with its source unavailable.
    total = 0
    count = 0
    if top is not None:
        total += int(top.sum())
        count += size
    if left is not None:
        total += int(left.sum())
        count += size
    dc = _mean_round(total, count) if count else 128
    return np.full((size, size), dc, dtype=np.uint8)


def intra_predict(recon: Frame, c: BlockCoord, mode: IntraMode) -> Block32:
    """Predict the coding unit at c from reconstructed neighbors in recon."""
    have_top = c.by > 0
    have_left = c.bx > 0
    return Block32(
        _intra_plane(recon.y, c.bx * BLOCK, c.by * BLOCK, BLOCK,
                     have_top, have_left, mode),
        _intra_plane(recon.cb, c.bx * CHROMA_BLOCK, c.by * CHROMA_BLOCK,
                     CHROMA_BLOCK, have_top, have_left, mode),
        _intra_plane(recon.cr, c.bx * CHROMA_BLOCK, c.by * CHROMA_BLOCK,
                     CHROMA_BLOCK, have_top, have_left, mode),
    )


def _half_toward_zero(v: int) -> int:
    return v // 2 if v >= 0 else -((-v) // 2)


def _clamped_window(plane: np.ndarray, y0: int, x0: int, h: int, w: int) -> np.ndarray:
    ph, pw = plane.shape
    if 0 <= y0 and y0 + h <= ph and 0 <= x0 and x0 + w <= pw:
        return plane[y0:y0 + h, x0:x0 + w]
    ys = np.clip(np.arange(y0, y0 + h), 0, ph - 1)
    xs = np.clip(np.arange(x0, x0 + w), 0, pw - 1)
    return plane[np.ix_(ys, xs)]


def motion_compensate(ref: Frame, c: BlockCoord, mv: MotionVector) -> Block32:
    """Fetch the motion-shifted coding unit from ref, clamping at frame edges."""
    cdx, cdy = _half_toward_zero(mv.dx), _half_toward_zero(mv.dy)
    return Block32(
        _clamped_window(ref.y, c.by * BLOCK + mv.dy, c.bx * BLOCK + mv.dx,
                        BLOCK, BLOCK).copy(),
        _clamped_window(ref.cb, c.by * CHROMA_BLOCK + cdy,
                        c.bx * CHROMA_BLOCK + cdx,
                        CHROMA_BLOCK, CHROMA_BLOCK).copy(),
        _clamped_window(ref.cr, c.by * CHROMA_BLOCK + cdy,
                        c.bx * CHROMA_BLOCK + cdx,
                        CHROMA_BLOCK, CHROMA_BLOCK).copy(),
    )


def motion_search(
    cur: Block32, ref: Frame, c: BlockCoord, search_range: int
) -> tuple[MotionVector, int]:
    """Exhaustive luma-SAD search over [-range, range]^2.

    Ties prefer the smaller |dx| + |dy|, then the earlier candidate in
    (dy, dx) raster order, which keeps results platform independent.
    """
    if search_range < 0:
        raise ValueError("search range must be non-negative")
    cols, rows = block_grid_dims(ref.width, ref.height)
    if not (0 <= c.bx < cols and 0 <= c.by < rows):
        raise ValueError(f"block coordinate {c} outside {cols}x{rows} grid")
    r = search_range
    y0, x0 = c.by * BLOCK, c.bx * BLOCK
    region = _clamped_window(ref.y, y0 - r, x0 - r,
                             BLOCK + 2 * r, BLOCK + 2 * r).astype(np.int32)
    wins = sliding_window_view(region, (BLOCK, BLOCK))
    sad = np.abs(wins - cur.y.astype(np.int32)).sum(axis=(2, 3))

    offs = np.arange(-r, r + 1)
    taxicab = np.abs(offs)[:, None] + np.abs(offs)[None, :]
    best = sad.min()
    mask = sad == best
    tie = np.where(mask, taxicab, taxicab.max() + 1).min()
    mask &= taxicab == tie
    iy = int(np.nonzero(mask.any(axis=1))[0][0])
    ix = int(np.nonzero(mask[iy])[0][0])
    return MotionVector(int(offs[ix]), int(offs[iy])), int(sad[iy, ix])
