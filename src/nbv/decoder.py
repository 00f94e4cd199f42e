"""Decoder: reconstructs frames from a coded stream, and owns the block walk.

`FrameWalk` rebuilds a frame block by block in raster order. It keeps the
motion-vector predictor and maps each block mode to its prediction: the
generator, motion compensation, or intra prediction from the frame so far.
The encoder rebuilds every block it codes through the same walk, so its
reconstruction is the decoder's by construction.

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
from .residual import apply_block_residual
from .tools import csv_text

_ZERO_MV = MotionVector(0, 0)


class FrameWalk:
    """One frame's blocks in raster order, rebuilt in place.

    Iterating yields each block's coordinate. Before a block is put,
    `mv_pred` is the vector its motion-vector difference is coded against:
    the left block's vector when that block is inter, and zero after any
    other block and at the start of each row.
    """

    def __init__(self, width: int, height: int, prev_recon: Frame | None,
                 frame_idx: int, qparams: QuantizedGnnParams | None,
                 ctx: SetContext | None) -> None:
        self.recon = blank_frame(width, height)
        self.modes = np.zeros((self.recon.height // BLOCK, self.recon.width // BLOCK),
                              dtype=np.int8)
        self.mv_pred = _ZERO_MV
        self._prev_recon = prev_recon
        self._frame_idx = frame_idx
        self._qparams = qparams
        self._ctx = ctx

    def __iter__(self):
        rows, cols = self.modes.shape
        for by in range(rows):
            self.mv_pred = _ZERO_MV
            for bx in range(cols):
                yield BlockCoord(bx, by)

    def basis(self, mode: BlockMode, c: BlockCoord,
              mv: MotionVector | None) -> Block32:
        """The prediction a block of this mode starts from (mv: inter only)."""
        if mode == BlockMode.GEN:
            return generate_block(self._qparams, c, self._frame_idx, self._ctx)
        if mode == BlockMode.INTER:
            return motion_compensate(self._prev_recon, c, mv)
        # the intra block modes rank as the intra predictors do
        return intra_predict(self.recon, c, IntraMode(mode - BlockMode.INTRA_DC))

    def put(self, c: BlockCoord, mode: BlockMode, mv: MotionVector | None,
            block: Block32) -> None:
        """Insert a rebuilt block and record its mode (mv: inter only)."""
        insert_block(self.recon, c, block)
        self.modes[c.by, c.bx] = mode
        self.mv_pred = mv if mode == BlockMode.INTER else _ZERO_MV


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
    walk = FrameWalk(width, height, prev_recon, frame_idx, qparams, ctx)
    for c, mode, mvd, tiles in zip(walk, fu.modes.reshape(-1).tolist(),
                                   fu.mvds.reshape(-1, 2).tolist(), fu.blocks):
        mv = None if mode != BlockMode.INTER else MotionVector(
            walk.mv_pred.dx + mvd[0], walk.mv_pred.dy + mvd[1])
        basis = walk.basis(mode, c, mv)
        walk.put(c, mode, mv, apply_block_residual(basis, tiles, qp))
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
