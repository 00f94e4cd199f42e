"""Decoder: reconstructs frames from a coded stream, and owns the block walk.

`FrameWalk` holds a frame being rebuilt one anti-diagonal of blocks at a
time. Intra prediction reads only the row above a block and the column to
its left, and the motion-vector predictor only the left block, so every
block on the diagonal bx + by = d has final neighbours once the diagonals
before it are rebuilt, and the whole diagonal is predicted at once. This is
the dependency structure of HEVC's wavefront parallel processing (Chi et
al., "Parallel Scalability and Efficiency of HEVC Parallelization
Approaches", IEEE TCSVT 2012). The walk keeps the vector predictor, the one
place its left-neighbour rule is written, and gives intra and generated
blocks their predictions. The encoder codes and rebuilds every frame
through the same walk and the same residual arithmetic, so its
reconstruction is the decoder's by construction.

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

A parameter-set unit installs the generator for the frames that follow it;
the set's time axis starts at the next frame and spans at most one
keyframe interval, both derivable from the header alone. A frame outside
that span may not generate blocks: a period that ships no set cannot reuse
an earlier one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bitstream import BlockMode, FrameUnit, parse_stream
from .core import BLOCK, Block32, BlockCoord, Frame, blank_frame, insert_block
from .entropy import StreamError
from .gnn import QuantizedGnnParams, SetContext, generate_block
from .prediction import intra_predict, motion_compensate
from .residual import add_residual, residual_planes
from .tools import csv_text


def _stack_blocks(blocks: list[Block32]) -> Block32:
    """One Block32 whose planes carry a leading axis over the given blocks."""
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

    def __init__(self, width: int, height: int, frame_idx: int,
                 qparams: QuantizedGnnParams | None,
                 ctx: SetContext | None) -> None:
        self.recon = blank_frame(width, height)
        grid = (self.recon.height // BLOCK, self.recon.width // BLOCK)
        self.modes = np.zeros(grid, dtype=np.int8)
        # each noted block's vector, zero where a block is not inter
        self.mvs = np.zeros(grid + (2,), dtype=np.int64)
        self._frame_idx = frame_idx
        self._qparams = qparams
        self._ctx = ctx

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

    def generated(self, coords: np.ndarray) -> Block32:
        """The generator's predictions of the (n, 2) blocks at coords, one
        evaluation a block."""
        return _stack_blocks([
            generate_block(self._qparams, BlockCoord(bx, by), self._frame_idx, self._ctx)
            for bx, by in coords.tolist()])

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
) -> tuple[Frame, DecodeRow]:
    if fu.frame_type == "P" and prev_recon is None:
        raise StreamError(f"frame {frame_idx} is predicted but has no reference")
    if np.any(fu.modes == BlockMode.GEN):
        if qparams is None:
            raise StreamError(
                f"frame {frame_idx} uses generated blocks before any parameter set"
            )
        if not ctx.start_frame <= frame_idx < ctx.start_frame + ctx.span:
            raise StreamError(
                f"frame {frame_idx} generates blocks outside its parameter "
                f"set's frames {ctx.start_frame}..{ctx.start_frame + ctx.span - 1}"
            )
    cols = fu.modes.shape[1]
    # 1. the residual planes of every block, in one batch
    res = residual_planes(fu.blocks, qp)
    # 2. the vectors, with the modes noted, by running sums along rows
    walk = FrameWalk(width, height, frame_idx, qparams, ctx)
    mvs = walk.vectors(fu.modes, fu.mvds)
    # 3. every inter block from one gather, and every generated block,
    # each kind with one add and one write: neither reads this frame
    for mode in (BlockMode.INTER, BlockMode.GEN):
        by, bx = np.nonzero(fu.modes == mode)
        if len(by):
            coords = np.stack([bx, by], axis=-1)
            pred = (motion_compensate(prev_recon, coords, mvs[by, bx])
                    if mode == BlockMode.INTER else walk.generated(coords))
            insert_block(walk.recon, coords, add_residual(pred, res[by * cols + bx]))
    # 4. the intra blocks, one wave at a time
    intra = (fu.modes != BlockMode.INTER) & (fu.modes != BlockMode.GEN)
    for coords in walk.waves(intra):
        bx, by = coords[:, 0], coords[:, 1]
        insert_block(walk.recon, coords, add_residual(
            walk.intra(coords, fu.modes[by, bx]), res[by * cols + bx]))
    return walk.recon, DecodeRow(frame_idx, fu.frame_type, *mode_counts(walk.modes))


def decode_sequence(data: bytes) -> tuple[list[Frame], DecodeReport]:
    """Decode a stream into reconstruction frames plus per-frame statistics."""
    header, units = parse_stream(data)
    cols, rows = header.grid()
    frames: list[Frame] = []
    report = DecodeReport()
    qparams: QuantizedGnnParams | None = None
    ctx: SetContext | None = None
    pending_param_set = False
    prev_recon: Frame | None = None

    for kind, payload in units:
        if kind == "param_set":
            if not header.gnn_enabled:
                raise StreamError("parameter set in a generator-disabled stream")
            if pending_param_set:
                raise StreamError("consecutive parameter sets without a frame")
            start = len(frames)
            span = min(header.gnn_interval, header.frame_count - start)
            qparams = payload
            ctx = SetContext(cols, rows, start, span)
            pending_param_set = True
            report.n_param_sets += 1
        else:
            fu: FrameUnit = payload
            if pending_param_set and fu.frame_type != "I":
                raise StreamError("parameter set must be followed by a keyframe")
            pending_param_set = False
            recon, row = _decode_frame(
                fu, prev_recon, len(frames), qparams, ctx,
                header.width, header.height, header.qp,
            )
            frames.append(recon)
            report.rows.append(row)
            prev_recon = recon
    if pending_param_set:
        raise StreamError("stream ends on a parameter set")
    return frames, report
