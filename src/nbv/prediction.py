"""Intra prediction and integer-pel motion estimation at the 32x32 block level.

Intra modes predict from already-reconstructed neighbor pixels of the frame
being rebuilt: DC averages the available top row and left column, horizontal
replicates the left column, vertical replicates the top row, and a mode whose
source pixels are unavailable falls back to DC (flat 128 when nothing is
available). intra_predict takes arrays of block coordinates and modes and
predicts all of their blocks with one gather of top rows and one of left
columns per plane: blocks on one anti-diagonal of the grid do not read
each other, so the encoder predicts a whole diagonal per call and the
decoder a whole wave of intra blocks. Motion estimation is an exhaustive integer search on luma SAD
against the previous reconstructed frame; compensation clamps out-of-frame
taps to the padded frame edge and halves the vector toward zero for chroma.
motion_compensate takes arrays of block coordinates and vectors and fetches
all of their blocks with one clamped gather per plane: the decoder calls it
once per P frame for every inter block, and the encoder once per P frame
for every block's inter candidate.

The search runs a whole frame at a time: motion_field pads the reference
once by edge replication and visits the offsets one dx at a time. The
padded reference's columns for that dx are copied once into a contiguous
int16 array; every dy then takes one int16 absolute difference of the
whole frame against a run of its rows, summed per block. That is not tie
order, so each block keeps its best SAD together with the offset's tie
rank, and the vectors are those of a search in tie order. block_motion
is the same search on any set of blocks, each against its own clamped
window, all stacked on one axis, so a few sample blocks cost only their
windows; global-motion estimation reads its sixteen samples that way.
motion_search is its one-block case, which only the benchmark's per-call
timing and the tests call.
"""

from __future__ import annotations

from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .core import (
    BLOCK,
    CHROMA_BLOCK,
    MAX_SEARCH_RANGE,
    Block32,
    BlockCoord,
    Frame,
    block_grid_dims,
)


class IntraMode(IntEnum):
    DC = 0
    HORIZONTAL = 1
    VERTICAL = 2


class MotionVector(NamedTuple):
    dx: int
    dy: int


# The block size of each plane, and where its samples start in a block's
# top row or left column with the three planes' concatenated.
_PLANE_SIZES = (BLOCK, CHROMA_BLOCK, CHROMA_BLOCK)
_EDGE_STARTS = (0, BLOCK, BLOCK + CHROMA_BLOCK)
_SIZES = np.array(_PLANE_SIZES)


def intra_predict(recon: Frame, coords, modes) -> Block32:
    """Predict coding units from reconstructed neighbours in recon.

    coords holds block coordinates (..., 2) as (bx, by) and modes IntraMode
    values (...); a BlockCoord and an IntraMode are one of each. Their
    leading axes broadcast and pass through to the planes, so one call
    predicts any number of blocks, each in its own mode, with one gather of
    top rows and one of left columns per plane. The blocks must not depend
    on each other: each reads recon as it is.
    """
    c = np.asarray(coords, dtype=np.int64)
    bx, by = c[..., 0], c[..., 1]
    have_top, have_left = by > 0, bx > 0
    above, before = by - have_top, bx - have_left
    # Every block's top row and left column, the three planes' concatenated,
    # (..., 64) each; a missing edge reads another block's and is replaced.
    tops, lefts = [], []
    for plane, size in zip((recon.y, recon.cb, recon.cr), _PLANE_SIZES):
        blocks = plane.reshape(plane.shape[0] // size, size, plane.shape[1] // size, size)
        tops.append(blocks[above, size - 1, bx, :])
        lefts.append(blocks[by, :, before, size - 1])
    top, left = np.concatenate(tops, axis=-1), np.concatenate(lefts, axis=-1)
    have_top, have_left = have_top[..., None], have_left[..., None]

    # DC per plane, also for a directional mode with its source unavailable:
    # the available edges' mean, rounded half up (samples are non-negative,
    # so half away from zero), or flat 128 when nothing is available. A
    # missing edge reads as the other one, which leaves that mean as it is.
    edges = np.add(np.where(have_top, top, left), np.where(have_left, left, top),
                   dtype=np.int64)
    total = np.add.reduceat(edges, _EDGE_STARTS, axis=-1)
    dc = np.where(have_top | have_left, (total + _SIZES) // (2 * _SIZES), 128)

    # A block is a value per row plus a value per column: the left column
    # down the rows (horizontal), the top row across the columns
    # (vertical), or DC down the rows.
    mode = np.asarray(modes)[..., None]
    horizontal = (mode == int(IntraMode.HORIZONTAL)) & have_left
    vertical = (mode == int(IntraMode.VERTICAL)) & have_top
    down = np.where(horizontal, left,
                    np.repeat(dc.astype(np.uint8), _PLANE_SIZES, axis=-1)) * ~vertical
    across = top * vertical
    return Block32(*(down[..., at:at + size, None] + across[..., None, at:at + size]
                     for at, size in zip(_EDGE_STARTS, _PLANE_SIZES)))


def _clamped_window(plane: np.ndarray, y0, x0, h: int, w: int) -> np.ndarray:
    """The h x w windows of plane with top-left corners (y0, x0), integer
    arrays of one shape that pass through as leading axes; taps outside
    the plane clamp to its edge. One gather serves every window."""
    ph, pw = plane.shape
    ys = np.clip(np.asarray(y0)[..., None] + np.arange(h), 0, ph - 1)
    xs = np.clip(np.asarray(x0)[..., None] + np.arange(w), 0, pw - 1)
    # one flat take runs about twice as fast as a two-axis fancy index
    return plane.ravel().take(ys[..., :, None] * pw + xs[..., None, :])


def motion_compensate(ref: Frame, coords, mvs) -> Block32:
    """Fetch motion-shifted coding units from ref, clamping at frame edges.

    coords holds block coordinates (..., 2) as (bx, by) and mvs vectors
    (..., 2) as (dx, dy); a BlockCoord and a MotionVector are one of each.
    Their leading axes pass through to the planes, so one call fetches a
    whole frame's inter blocks with one gather per plane. Chroma moves by
    the vector halved toward zero.
    """
    c = np.asarray(coords, dtype=np.int64)
    v = np.asarray(mvs, dtype=np.int64)
    cv = np.sign(v) * (np.abs(v) // 2)
    ly0, lx0 = c[..., 1] * BLOCK + v[..., 1], c[..., 0] * BLOCK + v[..., 0]
    cy0 = c[..., 1] * CHROMA_BLOCK + cv[..., 1]
    cx0 = c[..., 0] * CHROMA_BLOCK + cv[..., 0]
    return Block32(
        _clamped_window(ref.y, ly0, lx0, BLOCK, BLOCK),
        _clamped_window(ref.cb, cy0, cx0, CHROMA_BLOCK, CHROMA_BLOCK),
        _clamped_window(ref.cr, cy0, cx0, CHROMA_BLOCK, CHROMA_BLOCK),
    )


class MotionField(NamedTuple):
    """Each block's best vector and its luma SAD, as (rows, cols) arrays."""

    dx: np.ndarray
    dy: np.ndarray
    sad: np.ndarray

    def at(self, c: BlockCoord) -> tuple[MotionVector, int]:
        """The vector and SAD of the block at c."""
        return (MotionVector(int(self.dx[c.by, c.bx]), int(self.dy[c.by, c.bx])),
                int(self.sad[c.by, c.bx]))


def _check_range(r: int) -> None:
    # (2r + 1)^2 offsets, each a pass over the searched samples.
    if not 0 <= r <= MAX_SEARCH_RANGE:
        raise ValueError(f"search range must be in [0, {MAX_SEARCH_RANGE}]")


def _search_offsets(r: int) -> np.ndarray:
    """The (dy, dx) offsets of [-r, r]^2 in tie order: smaller |dx| + |dy|
    first, then (dy, dx) raster order."""
    dy, dx = np.divmod(np.arange((2 * r + 1) ** 2), 2 * r + 1)
    dy -= r
    dx -= r
    order = np.lexsort((dx, dy, np.abs(dx) + np.abs(dy)))
    return np.stack([dy[order], dx[order]], axis=1)


def _search(cur: np.ndarray, padded_ref: np.ndarray, r: int) -> MotionField:
    """Exhaustive luma-SAD search of every 32x32 block of cur.

    cur's first two axes are a picture and padded_ref's the reference with
    r extra samples on every side, so the candidate at offset (dy, dx) of
    the block at (y, x) starts at padded_ref[r + y + dy, r + x + dx].
    Trailing axes pass through, one picture and reference each, and the
    field's arrays are (rows, cols, ...); a row of every picture is then
    one contiguous run.

    The offsets are visited one dx at a time: the reference's columns for
    that dx are copied once into a contiguous int16 array, and every dy is
    a run of its rows. That is not tie order, so each block keeps the key
    SAD * n + rank, rank being the offset's index in _search_offsets and n
    their count; the smallest key is the argmin over the offsets with ties
    going to the smaller rank, without holding every offset's SADs.
    """
    h, w, *trail = cur.shape
    rows, cols = h // BLOCK, w // BLOCK
    offsets = _search_offsets(r)
    n = len(offsets)
    rank = np.empty((2 * r + 1, 2 * r + 1), np.int64)
    rank[offsets[:, 0] + r, offsets[:, 1] + r] = np.arange(n)
    cur16 = cur.astype(np.int16)
    column = np.empty((h + 2 * r, w, *trail), np.int16)
    diff = np.empty(cur.shape, np.int16)
    # 32 rows of |difference| sum to at most 32 * 255, within int16; one
    # dx's row sums are summed over the block columns in one call.
    row_sums = np.empty((2 * r + 1, rows, w, *trail), np.int16)
    keys = np.empty((2 * r + 1, rows, cols, *trail), np.int64)
    best = np.full((rows, cols, *trail), np.iinfo(np.int64).max, np.int64)
    for dx in range(-r, r + 1):
        np.copyto(column, padded_ref[:, r + dx:r + dx + w], casting="unsafe")
        for j in range(2 * r + 1):  # dy = j - r
            np.subtract(cur16, column[j:j + h], out=diff)
            np.abs(diff, out=diff)
            diff.reshape(rows, BLOCK, w, *trail).sum(axis=1, dtype=np.int16, out=row_sums[j])
        row_sums.reshape(2 * r + 1, rows, cols, BLOCK, *trail).sum(
            axis=3, dtype=np.int64, out=keys)
        keys *= n
        keys += rank[:, dx + r].reshape((-1,) + (1,) * (keys.ndim - 1))
        np.minimum(best, keys.min(axis=0), out=best)
    sad, k = np.divmod(best, n)
    return MotionField(offsets[k, 1], offsets[k, 0], sad.astype(np.int32))


def motion_field(cur: Frame, ref: Frame, search_range: int) -> MotionField:
    """Exhaustive luma-SAD search of every block of cur over [-range, range]^2.

    Out-of-frame reference samples clamp to the padded frame edge. Ties
    prefer the smaller |dx| + |dy|, then the earlier candidate in (dy, dx)
    raster order, which keeps results platform independent.
    """
    if cur.y.shape != ref.y.shape:
        raise ValueError(
            f"current luma {cur.y.shape} does not match reference {ref.y.shape}")
    _check_range(search_range)
    r = search_range
    return _search(cur.y, np.pad(ref.y, r, mode="edge"), r)


def block_motion(cur_y: np.ndarray, ref: Frame, coords, search_range: int) -> MotionField:
    """motion_field's search for the blocks with luma cur_y (..., 32, 32) at
    block coordinates coords (..., 2) of ref's grid, as (bx, by).

    Each block is searched in its own clamped window of ref, which holds
    the samples motion_field's padded reference has there, so each vector
    and SAD is motion_field's for that block; the field's arrays are (...).
    """
    _check_range(search_range)
    c = np.asarray(coords, dtype=np.int64)
    cols, rows = block_grid_dims(ref.width, ref.height)
    if c.shape[-1:] != (2,) or np.any((c < 0) | (c >= (cols, rows))):
        raise ValueError(f"block coordinates outside the {cols}x{rows} grid")
    if cur_y.shape != c.shape[:-1] + (BLOCK, BLOCK):
        raise ValueError(f"{cur_y.shape} luma blocks for {c.shape[:-1]} coordinates")
    r = search_range
    windows = _clamped_window(ref.y, c[..., 1] * BLOCK - r, c[..., 0] * BLOCK - r,
                              BLOCK + 2 * r, BLOCK + 2 * r)

    # the blocks on a trailing axis, so that each window row of all of
    # them is one contiguous run; this halves the search of 16 blocks
    def trailing(blocks):
        side = blocks.shape[-1]
        return np.ascontiguousarray(np.moveaxis(blocks.reshape(-1, side, side), 0, -1))

    field = _search(trailing(cur_y), trailing(windows), r)
    return MotionField(*(a[0, 0].reshape(c.shape[:-1]) for a in field))


def motion_search(
    cur: Block32, ref: Frame, c: BlockCoord, search_range: int
) -> tuple[MotionVector, int]:
    """block_motion for the one block cur at c of ref's grid."""
    field = block_motion(cur.y, ref, (c.bx, c.by), search_range)
    return MotionVector(int(field.dx), int(field.dy)), int(field.sad)
