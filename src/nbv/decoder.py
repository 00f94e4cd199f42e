"""Decoder: reconstructs frames from a coded stream, and owns the block walk.

`FrameWalk` holds a frame being rebuilt one anti-diagonal of blocks at a
time. Intra prediction reads only the row above a block and the column to
its left, and the motion-vector predictor only the left block, so every
block on the diagonal bx + by = d has final neighbours once the diagonals
before it are rebuilt, and the whole diagonal is predicted at once. This is
the dependency structure of HEVC's wavefront parallel processing (Chi et
al., "Parallel Scalability and Efficiency of HEVC Parallelization
Approaches", IEEE TCSVT 2012). The walk keeps the vector predictor, the one
place its left-neighbour rule is written, and gives intra blocks their
predictions; generated_blocks gives generated blocks theirs. The encoder
codes and rebuilds every frame through the same walk, the same generator
call and the same residual arithmetic, so its reconstruction is the
decoder's by construction.

The decoder rebuilds a frame in batches. First the residual planes of the
whole unit are built at once, paying only for tiles with a nonzero level,
and the walk resolves every vector at once, as running sums along rows.
Inter and generated blocks do not read the frame being rebuilt, so all
inter blocks come from one motion-compensation gather and all generated
blocks from the generator, each kind added and written in one call. Then
the intra blocks are rebuilt in waves, each with one intra prediction,
one add and one write: a block joins the wave after the latest one
holding its left or top neighbour. In an I frame the waves are the
diagonals; in a P frame, where most neighbours are inter blocks, an
intra block rarely waits. Integer arithmetic gives the same sums in any
order, so the pixels are those of a block-by-block raster walk.

A parameter-set unit installs the generator for the frames that follow it,
StreamHeader.set_frames of the next frame, which is also the set's time
axis. Which streams are valid is bitstream.parse_stream's to decide: it
rejects a unit out of order or a frame generating outside its set's
frames, so the decoder, the bit accounting and `nbv inspect` accept the
same streams, and the decoder only rebuilds pixels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bitstream import BlockMode, FrameUnit, parse_stream
from .core import BLOCK, Block32, BlockCoord, Frame, blank_frame, insert_block
from .gnn import QuantizedGnnParams, SetContext, generate_block
from .prediction import intra_predict, motion_compensate
from .residual import add_residual, residual_planes
from .tools import csv_text


def generated_blocks(qparams: QuantizedGnnParams, ctx: SetContext, frame_idx: int,
                     coords: np.ndarray) -> Block32:
    """The generator's predictions of the (n, 2) blocks at coords in frame
    frame_idx, one evaluation a block, stacked on a leading axis."""
    blocks = [generate_block(qparams, BlockCoord(bx, by), frame_idx, ctx)
              for bx, by in coords.tolist()]
    return Block32(*(np.stack(planes) for planes in
                     zip(*((b.y, b.cb, b.cr) for b in blocks))))


class FrameWalk:
    """One frame's blocks, one anti-diagonal at a time, rebuilt in place.

    The `waves` of an all-true mask are the diagonals bx + by = d, d = 0,
    1, ..., as (n, 2) block coordinates (bx, by). A block's intra
    prediction and vector predictor are final once every diagonal before
    its own is put. The encoder decides and puts each diagonal as it goes;
    the decoder first resolves every vector with `vectors`, then rebuilds
    the intra blocks in the `waves` of their mask (see the module
    docstring).
    """

    def __init__(self, width: int, height: int) -> None:
        self.recon = blank_frame(width, height)
        grid = (self.recon.height // BLOCK, self.recon.width // BLOCK)
        self.modes = np.zeros(grid, dtype=np.int8)
        # each noted block's vector, zero where a block is not inter
        self.mvs = np.zeros(grid + (2,), dtype=np.int64)

    def mv_pred(self, coords: np.ndarray) -> np.ndarray:
        """The (n, 2) vectors that the motion-vector differences of the
        blocks at coords are coded against: the left block's vector when
        that block is inter, and zero after any other block and at the
        start of each row."""
        bx, by = coords[:, 0], coords[:, 1]
        return np.where((bx > 0)[:, None], self.mvs[by, bx - 1], 0)

    def intra(self, coords, modes) -> Block32:
        """Intra predictions of blocks in the intra BlockModes from the
        frame so far; coords (..., 2) and modes (...) broadcast."""
        # the intra block modes rank as the intra predictors do
        return intra_predict(self.recon, coords, np.asarray(modes) - BlockMode.INTRA_DC)

    def put(self, coords: np.ndarray, modes: np.ndarray, mvs: np.ndarray,
            blocks: Block32) -> None:
        """Insert the rebuilt blocks at coords (n, 2) and record their
        modes (n,) and vectors (n, 2); a vector is kept where its block is
        inter only."""
        insert_block(self.recon, coords, blocks)
        bx, by = coords[:, 0], coords[:, 1]
        self.modes[by, bx] = modes
        self.mvs[by, bx] = np.where((modes == BlockMode.INTER)[:, None], mvs, 0)

    def waves(self, mask: np.ndarray) -> list[np.ndarray]:
        """The blocks of a (rows, cols) mask in waves of (n, 2) block
        coordinates, in order. A block joins the wave after the latest one
        that holds its left or top neighbour, so the blocks of a wave read
        only blocks outside the mask or in earlier waves. With every block
        masked, the waves are the diagonals."""
        rows, cols = mask.shape
        masked = mask.tolist()
        wave = [[0] * cols for _ in range(rows)]
        for by in range(rows):
            for bx in range(cols):
                if masked[by][bx]:
                    wave[by][bx] = 1 + max(wave[by][bx - 1] if bx else 0,
                                           wave[by - 1][bx] if by else 0)
        by, bx = np.nonzero(mask)
        if not len(by):
            return []
        level = np.asarray(wave)[by, bx]
        order = np.argsort(level, kind="stable")
        return np.split(np.stack([bx, by], axis=-1)[order],
                        np.flatnonzero(np.diff(level[order])) + 1)

    def vectors(self, modes: np.ndarray, mvds: np.ndarray) -> np.ndarray:
        """Note every block of a frame unit's (rows, cols) modes and return
        the (rows, cols, 2) vectors its differences code, zero where a
        block is not inter. This is mv_pred's rule in closed form: along a
        row, an inter block's vector sums its run of inter blocks'
        differences up to it."""
        self.modes[...] = modes
        inter = modes == BlockMode.INTER
        if inter.any():
            total = np.cumsum(np.where(inter[..., None], mvds, 0), axis=1, dtype=np.int64)
            # each block's run starts after the latest non-inter block at
            # or before it (-1 if none), whose running sum is taken off; a
            # non-inter block is its own, so its vector is zero
            last = np.maximum.accumulate(
                np.where(inter, -1, np.arange(inter.shape[1])), axis=1)
            base = np.take_along_axis(total, np.maximum(last, 0)[..., None], axis=1)
            base[last < 0] = 0
            np.subtract(total, base, out=self.mvs)
        return self.mvs


def mode_counts(modes: np.ndarray) -> tuple[int, int, int]:
    """(intra, inter, generated) block counts of a frame's mode map."""
    n_inter = int(np.count_nonzero(modes == BlockMode.INTER))
    n_gen = int(np.count_nonzero(modes == BlockMode.GEN))
    return modes.size - n_inter - n_gen, n_inter, n_gen


@dataclass
class DecodeRow:
    frame: int
    type: str
    n_intra: int
    n_inter: int
    n_gen: int  # also the generator evaluations: one per generated block


CSV_COLUMNS = ("frame", "n_intra", "n_inter", "n_gen")


@dataclass
class DecodeReport:
    rows: list[DecodeRow] = field(default_factory=list)
    n_param_sets: int = 0

    def to_csv(self) -> str:
        return csv_text(self.rows, CSV_COLUMNS)


def _decode_frame(
    fu: FrameUnit, prev_recon: Frame | None, frame_idx: int,
    qparams: QuantizedGnnParams | None, ctx: SetContext | None,
    width: int, height: int, qp: int,
) -> Frame:
    cols = fu.modes.shape[1]
    # 1. the residual planes of every block, in one batch
    res = residual_planes(fu.blocks, qp)
    # 2. the vectors, with the modes noted, by running sums along rows
    walk = FrameWalk(width, height)
    mvs = walk.vectors(fu.modes, fu.mvds)
    # 3. every inter block from one gather, and every generated block,
    # each kind with one add and one write: neither reads this frame
    for mode in (BlockMode.INTER, BlockMode.GEN):
        by, bx = np.nonzero(fu.modes == mode)
        if len(by):
            coords = np.stack([bx, by], axis=-1)
            pred = (motion_compensate(prev_recon, coords, mvs[by, bx])
                    if mode == BlockMode.INTER
                    else generated_blocks(qparams, ctx, frame_idx, coords))
            insert_block(walk.recon, coords, add_residual(pred, res[by * cols + bx]))
    # 4. the intra blocks, one wave at a time
    intra = (fu.modes != BlockMode.INTER) & (fu.modes != BlockMode.GEN)
    for coords in walk.waves(intra):
        bx, by = coords[:, 0], coords[:, 1]
        insert_block(walk.recon, coords, add_residual(
            walk.intra(coords, fu.modes[by, bx]), res[by * cols + bx]))
    return walk.recon


def decode_sequence(data: bytes) -> tuple[list[Frame], DecodeReport]:
    """Decode a stream into reconstruction frames plus per-frame statistics;
    a malformed stream is parse_stream's StreamError."""
    header, units = parse_stream(data)
    cols, rows = header.grid()
    frames: list[Frame] = []
    report = DecodeReport()
    qparams = ctx = None  # the latest parameter set, and its frames
    for kind, payload in units:
        if kind == "param_set":
            span = header.set_frames(len(frames))
            qparams, ctx = payload, SetContext(cols, rows, span.start, len(span))
            report.n_param_sets += 1
        else:
            report.rows.append(DecodeRow(len(frames), payload.frame_type,
                                         *mode_counts(payload.modes)))
            frames.append(_decode_frame(
                payload, frames[-1] if frames else None, len(frames), qparams, ctx,
                header.width, header.height, header.qp))
    return frames, report
