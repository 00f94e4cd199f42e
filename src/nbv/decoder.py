"""Decoder: reconstructs frames from a coded stream.

Reconstruction mirrors the encoder block for block: the same intra
prediction, motion compensation, and generator evaluation produce the
prediction basis, and the same residual path adds the coded correction.
A parameter-set unit installs the generator for the frames that follow it;
the set's time axis starts at the next frame and spans at most one
keyframe interval, both derivable from the header alone. A frame outside
that span may not generate blocks: a period that ships no set cannot reuse
an earlier one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bitstream import _MODE_TO_INTRA, BlockMode, FrameUnit, mv_predictor, parse_stream
from .core import BlockCoord, Frame, blank_frame, insert_block
from .entropy import StreamError
from .gnn import QuantizedGnnParams, SetContext, generate_block
from .prediction import MotionVector, intra_predict, motion_compensate
from .residual import apply_block_residual
from .tools import csv_text


@dataclass
class DecodeRow:
    frame: int
    type: str
    n_intra: int
    n_inter: int
    n_gen: int

    @property
    def gnn_calls(self) -> int:
        # one generator evaluation per generated block
        return self.n_gen


CSV_COLUMNS = ("frame", "n_intra", "n_inter", "n_gen", "gnn_calls")


@dataclass
class DecodeReport:
    rows: list[DecodeRow] = field(default_factory=list)
    n_param_sets: int = 0

    @property
    def gnn_calls(self) -> int:
        return sum(r.gnn_calls for r in self.rows)

    def to_csv(self) -> str:
        return csv_text(self.rows, CSV_COLUMNS)


def _decode_frame(
    fu: FrameUnit, prev_recon: Frame | None, frame_idx: int,
    qparams: QuantizedGnnParams | None, ctx: SetContext | None,
    width: int, height: int, qp: int, cols: int, rows: int,
) -> tuple[Frame, DecodeRow]:
    if fu.frame_type == "P" and prev_recon is None:
        raise StreamError(f"frame {frame_idx} is predicted but has no reference")
    if np.any(fu.gen_map):
        if qparams is None:
            raise StreamError(
                f"frame {frame_idx} uses generated blocks before any parameter set"
            )
        if not ctx.start_frame <= frame_idx < ctx.start_frame + ctx.span:
            raise StreamError(
                f"frame {frame_idx} generates blocks outside its parameter "
                f"set's frames {ctx.start_frame}..{ctx.start_frame + ctx.span - 1}"
            )
    recon = blank_frame(width, height)
    n_intra = n_inter = n_gen = 0
    for by in range(rows):
        left_mode: BlockMode | None = None
        left_mv = MotionVector(0, 0)
        for bx in range(cols):
            c = BlockCoord(bx, by)
            payload = fu.blocks[by * cols + bx]
            mode = payload.mode
            if mode == BlockMode.GEN:
                basis = generate_block(qparams, c, frame_idx, ctx)
                n_gen += 1
            elif mode == BlockMode.INTER:
                pred = mv_predictor(left_mode, left_mv)
                mv = MotionVector(pred.dx + payload.mvd[0], pred.dy + payload.mvd[1])
                basis = motion_compensate(prev_recon, c, mv)
                left_mv = mv
                n_inter += 1
            else:
                basis = intra_predict(recon, c, _MODE_TO_INTRA[mode])
                n_intra += 1
            left_mode = mode
            rec = apply_block_residual(basis, payload.tiles, qp)
            insert_block(recon, c, rec)
    row = DecodeRow(frame_idx, fu.frame_type, n_intra, n_inter, n_gen)
    return recon, row


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
                header.width, header.height, header.qp, cols, rows,
            )
            frames.append(recon)
            report.rows.append(row)
            prev_recon = recon
    if pending_param_set:
        raise StreamError("stream ends on a parameter set")
    return frames, report
