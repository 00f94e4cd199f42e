"""Decoder: reconstructs frames from a coded stream, and owns the block walk.

`FrameWalk` holds a frame being rebuilt in raster order. It keeps the
motion-vector predictor, the one place its left-neighbour rule is written,
and gives an intra or generated block its prediction: the generator, or
intra prediction from the frame so far. The encoder rebuilds every block it
codes through the same walk and the same residual arithmetic, so its
reconstruction is the decoder's by construction.

The decoder rebuilds a frame in two batched phases, because only intra
blocks depend on blocks of the same frame. First the residual planes of the
whole unit are built at once, paying only for tiles with a nonzero level,
the walk resolves every vector, and all inter blocks are rebuilt with one
motion-compensation gather, one add and one clip. Then the walk visits only
the intra and generated blocks, in raster order; each intra block reads its
left and top neighbours, which are final by then. Integer arithmetic gives
the same sums in any order, so the pixels are those of a block-by-block
walk.

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
from .prediction import IntraMode, MotionVector, intra_predict, motion_compensate
from .residual import add_residual, residual_planes
from .tools import csv_text

_ZERO_MV = MotionVector(0, 0)


class FrameWalk:
    """One frame's blocks in raster order, rebuilt in place.

    Iterating yields each block's coordinate. Before a block is put, or
    passed by `vectors`, `mv_pred` is the vector its motion-vector difference is coded
    against: the left block's vector when that block is inter, and zero
    after any other block and at the start of each row.

    The encoder puts each block as it decides it. The decoder first
    resolves every vector with `vectors`, and later rebuilds only the
    intra and generated blocks from `basis` (see the module docstring).
    """

    def __init__(self, width: int, height: int, frame_idx: int,
                 qparams: QuantizedGnnParams | None,
                 ctx: SetContext | None) -> None:
        self.recon = blank_frame(width, height)
        self.modes = np.zeros((self.recon.height // BLOCK, self.recon.width // BLOCK),
                              dtype=np.int8)
        self.mv_pred = _ZERO_MV
        self._frame_idx = frame_idx
        self._qparams = qparams
        self._ctx = ctx

    def __iter__(self):
        rows, cols = self.modes.shape
        for by in range(rows):
            self.mv_pred = _ZERO_MV
            for bx in range(cols):
                yield BlockCoord(bx, by)

    def basis(self, mode: BlockMode, c: BlockCoord) -> Block32:
        """The prediction an intra or generated block starts from."""
        if mode == BlockMode.GEN:
            return generate_block(self._qparams, c, self._frame_idx, self._ctx)
        # the intra block modes rank as the intra predictors do
        return intra_predict(self.recon, c, IntraMode(mode - BlockMode.INTRA_DC))

    def _note(self, c: BlockCoord, mode: BlockMode, mv: MotionVector | None) -> None:
        """Record a block's mode and move the predictor past it (mv: inter only)."""
        self.modes[c.by, c.bx] = mode
        self.mv_pred = mv if mode == BlockMode.INTER else _ZERO_MV

    def put(self, c: BlockCoord, mode: BlockMode, mv: MotionVector | None,
            block: Block32) -> None:
        """Insert a rebuilt block and note it (mv: inter only)."""
        insert_block(self.recon, c, block)
        self._note(c, mode, mv)

    def vectors(self, modes: np.ndarray, mvds: np.ndarray) -> np.ndarray:
        """Note every block of a frame unit's (rows, cols) modes and return
        the (rows, cols, 2) vectors its differences code, zero where a
        block is not inter."""
        mvs = np.zeros(mvds.shape, dtype=np.int64)
        for c, mode, mvd in zip(self, modes.reshape(-1).tolist(),
                                mvds.reshape(-1, 2).tolist()):
            mv = None
            if mode == BlockMode.INTER:
                mv = MotionVector(self.mv_pred.dx + mvd[0], self.mv_pred.dy + mvd[1])
                mvs[c.by, c.bx] = mv
            self._note(c, mode, mv)
        return mvs


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
    rows, cols = fu.modes.shape
    # 1. the residual planes of every block, in one batch
    res = residual_planes(fu.blocks, qp)
    # 2. the vectors, with the modes noted
    walk = FrameWalk(width, height, frame_idx, qparams, ctx)
    mvs = walk.vectors(fu.modes, fu.mvds)
    # 3. every inter block from one gather, add and clip
    inter = fu.modes == BlockMode.INTER
    if inter.any():
        by, bx = np.nonzero(inter)
        coords = np.stack([bx, by], axis=-1)
        pred = motion_compensate(prev_recon, coords, mvs[inter])
        insert_block(walk.recon, coords,
                     add_residual(pred, res[by * cols + bx]))
    # 4. the intra and generated blocks, in raster order
    modes = fu.modes.reshape(-1).tolist()
    for n in np.flatnonzero(~inter).tolist():
        c = BlockCoord(n % cols, n // cols)
        insert_block(walk.recon, c, add_residual(walk.basis(modes[n], c), res[n]))
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
