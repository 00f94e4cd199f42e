"""Encoder: rate-distortion mode decisions and the generator-period loop.

The sequence is coded in keyframe periods of gnn_interval frames, each
starting with an I frame. Per period the encoder estimates global motion on
the source frames, derives generation regions (a margin on the edge where
new content enters under panning, four margins under a declared zoom),
overfits the generator network on the source blocks of those regions, and
encodes the period with the network (parameter-set bits included). The
network is kept only when that pass's total rate-distortion cost
J = SSD + lambda * bits is strictly below the cost of the same period coded
without it, so enabling the generator can never lose to the baseline.

The pass without the network runs first and its J becomes the budget.
Because J with the network is at least lambda times the parameter-set
bits, a budget at or below that product rules the network out before any
training; otherwise the network pass stops as soon as its cost so far
reaches the budget. Every candidate is costed with exact coded bits, and
every block is rebuilt through the decoder's own block walk, which keeps
the two bit-identical. A block's candidates are costed together:
their prediction bases are stacked, and one batched call each quantizes,
bit-counts and reconstructs all of them. A P frame's motion vectors come
from one whole-frame search against the previous reconstruction, and
every block's inter basis from one motion-compensation gather, both made
before the walk; global motion reads its sample blocks from the same
kind of search between source frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitstream import (
    FORCED,
    SELECTABLE,
    BlockMode,
    FrameBits,
    FrameUnit,
    RegionSpec,
    StreamHeader,
    block_syntax_bits,
    param_set_bits,
    region_map,
    write_frame,
    write_header,
    write_param_set,
)
from .core import (
    BlockCoord,
    Block32,
    Frame,
    SequenceConfig,
    block_grid_dims,
    extract_block,
)
from .decoder import FrameWalk, mode_counts
from .entropy import BitWriter
from .gnn import (
    QuantizedGnnParams,
    SetContext,
    TrainConfig,
    block_to_targets,
    check_architecture,
    gnn_input,
    quantize_params,
    train,
)
from .prediction import MotionVector, motion_compensate, motion_field
from .residual import (
    TILES_PER_BLOCK,
    apply_block_residual,
    block_tiles_bits,
    encode_block_residual,
)
from .tools import csv_text, frame_psnr

ZOOM_HINTS = ("none", "out", "in")


def rd_lambda(qp: int) -> float:
    """Lagrange multiplier weighting bits against SSD at a given qp."""
    return 0.85 * 2.0 ** ((qp - 12) / 3.0)


def _median_toward_zero(values: list[int] | np.ndarray) -> int:
    # np.median averages the middle pair on even counts; a half-integer
    # result truncates toward zero.
    med = float(np.median(np.asarray(values, dtype=np.float64)))
    return int(med)


def estimate_global_motion(cur: Frame, ref: Frame, search_range: int) -> MotionVector:
    """Component-wise median motion over a regular 16-block subsample grid."""
    cols, rows = block_grid_dims(cur.width, cur.height)
    bxs = [min(cols - 1, ((2 * i + 1) * cols) // 8) for i in range(4)]
    bys = [min(rows - 1, ((2 * i + 1) * rows) // 8) for i in range(4)]
    field = motion_field(cur, ref, search_range)
    sample = np.ix_(bys, bxs)
    return MotionVector(_median_toward_zero(field.dx[sample]),
                        _median_toward_zero(field.dy[sample]))


def _axis_margin(comp: int, frames_since_set: int, extent: int) -> tuple[int, int]:
    """(low-edge, high-edge) margin widths in blocks for one motion component."""
    if not comp:
        return 0, 0
    width = min(max(math.ceil(abs(comp) * frames_since_set / 32), 1),
                max(1, extent // 4))
    return (0, width) if comp > 0 else (width, 0)


def select_generation_regions(
    gm: MotionVector, cols: int, rows: int,
    frames_since_set: int, hint: str = "none",
) -> list[RegionSpec]:
    """Regions worth generating for one frame.

    Panning puts a selectable margin on the edge where content enters: the
    motion convention points vectors at where the reference content sits, so
    a positive component means the reference lies further along the axis and
    new content enters at the high edge. A declared zoom marks all four
    edges with margins in the frame's aspect ratio. Zero motion with no
    zoom hint yields no regions.
    """
    if hint not in ZOOM_HINTS:
        raise ValueError(f"zoom hint must be one of {ZOOM_HINTS}")
    if hint != "none":
        left, top = max(1, cols // 4), max(1, rows // 4)
        # a grid one block wide or high has room for one margin on that axis
        right = left if cols >= 2 * left else 0
        bottom = top if rows >= 2 * top else 0
    else:
        left, right = _axis_margin(gm.dx, frames_since_set, cols)
        top, bottom = _axis_margin(gm.dy, frames_since_set, rows)
    # Full-height columns first, then bands between them.
    regs: list[RegionSpec] = []
    if left:
        regs.append(RegionSpec(0, 0, left - 1, rows - 1, True))
    if right:
        regs.append(RegionSpec(cols - right, 0, cols - 1, rows - 1, True))
    x_lo, x_hi = left, cols - 1 - right
    if x_lo <= x_hi:
        if top:
            regs.append(RegionSpec(x_lo, 0, x_hi, top - 1, True))
        if bottom:
            regs.append(RegionSpec(x_lo, rows - bottom, x_hi, rows - 1, True))
    return regs


def train_param_set(
    src_frames: list[Frame], start_frame: int,
    regions_per_frame: list[list[RegionSpec]], ctx: SetContext,
    layer_sizes, cfg: TrainConfig,
) -> tuple[QuantizedGnnParams | None, int]:
    """Overfit and quantize one period's network on its region source blocks.

    The dataset is every (block, frame) pair inside any of that frame's
    regions, targeting source pixels. Returns (None, 0) when no frame has
    regions.
    """
    inputs = []
    targets = []
    for offset, regs in enumerate(regions_per_frame):
        frame_idx = start_frame + offset
        for by, bx in zip(*np.nonzero(region_map(regs, ctx.cols, ctx.rows))):
            c = BlockCoord(int(bx), int(by))
            inputs.append(gnn_input(ctx, c, frame_idx))
            targets.append(block_to_targets(extract_block(src_frames[offset], c)))
    if not inputs:
        return None, 0
    params = train(layer_sizes, np.asarray(inputs), np.asarray(targets), cfg)
    return quantize_params(params), len(inputs)


def choose_block_mode(j: np.ndarray, modes: list[BlockMode]) -> int:
    """Index of the minimum-J candidate; ties go to the earlier BlockMode rank."""
    if not modes:
        raise ValueError("no candidates")
    return min(range(len(modes)), key=lambda i: (j[i], int(modes[i])))


def _stack_blocks(blocks: list[Block32]) -> Block32:
    """One Block32 whose planes carry a leading axis over the given blocks."""
    return Block32(*(np.stack(planes) for planes in
                     zip(*((b.y, b.cb, b.cr) for b in blocks))))


def _ssd(source: Block32, recon: Block32) -> np.ndarray:
    """SSD against the source of each block along recon's leading axes."""
    total = 0
    for ps, pr in ((source.y, recon.y), (source.cb, recon.cb), (source.cr, recon.cr)):
        d = pr.astype(np.int64) - ps.astype(np.int64)
        total = total + (d * d).sum(axis=(-2, -1))
    return total


@dataclass
class _FrameResult:
    # The frame unit is written and dropped, not kept here: its residual
    # levels are most of a pass's memory, and a finished pass stays alive
    # while the next one trains and codes.
    recon: Frame
    distortion: int
    n_intra: int
    n_inter: int
    n_gen: int


def _encode_frame(
    source: Frame, prev_recon: Frame | None, frame_idx: int, frame_type: str,
    regions: list[RegionSpec], qparams: QuantizedGnnParams | None,
    ctx: SetContext | None, qp: int, lam: float, search_range: int,
) -> tuple[FrameUnit, _FrameResult]:
    """Code one frame through the decoder's block walk.

    A P frame's vectors are searched, and every block's inter basis
    fetched, for all blocks at once before the walk. Each block's
    candidates (inter, the three intra modes and, in a region, the
    generator; in a forced region the generator alone) are costed
    together: their prediction bases are stacked on a leading axis, and one
    call each transforms and quantizes, counts the tile bits of, and
    reconstructs all of them.
    """
    walk = FrameWalk(source.display_width, source.display_height,
                     frame_idx, qparams, ctx)
    rows, cols = walk.modes.shape
    # Every block's search is against the previous frame alone, so a P
    # frame's vectors, and so its inter bases, do not depend on the walk
    # and are found for all blocks at once.
    field = inter = None
    if frame_type == "P":
        field = motion_field(source, prev_recon, search_range)
        by, bx = np.indices((rows, cols))
        inter = motion_compensate(prev_recon, np.stack([bx, by], axis=-1),
                                  np.stack([field.dx, field.dy], axis=-1))
    kinds = region_map(regions, cols, rows).tolist()
    # the unit's arrays, filled with each block's winner as the walk goes
    mvds = np.zeros((rows, cols, 2), dtype=np.int32)
    blocks = np.zeros((rows * cols, TILES_PER_BLOCK, 64), dtype=np.int32)
    dist_total = 0

    for n, c in enumerate(walk):
        src_block = extract_block(source, c)
        kind = kinds[c.by][c.bx]
        sel_bit = int(kind == SELECTABLE)

        mv = None  # the inter candidate's vector
        # (mode, motion-vector difference) of every candidate
        cands: list[tuple[BlockMode, tuple[int, int] | None]] = []
        if kind == FORCED:
            # Forced region: no choice, no mode symbol.
            cands.append((BlockMode.GEN, None))
        else:
            if frame_type == "P":
                mv, _ = field.at(c)
                cands.append((BlockMode.INTER, (mv.dx - walk.mv_pred.dx,
                                                mv.dy - walk.mv_pred.dy)))
            cands += [(mode, None) for mode in
                      (BlockMode.INTRA_DC, BlockMode.INTRA_H, BlockMode.INTRA_V)]
            if kind == SELECTABLE and qparams is not None:
                cands.append((BlockMode.GEN, None))

        basis = _stack_blocks([inter[c.by, c.bx] if mode == BlockMode.INTER
                               else walk.basis(mode, c) for mode, _ in cands])
        levels = encode_block_residual(src_block, basis, qp)
        rec = apply_block_residual(basis, levels, qp)
        ssd = _ssd(src_block, rec)
        # sel_bit is the same for every candidate of a block, so it never
        # decides; it is charged so that each cost holds the block's bits.
        bits = sel_bit + block_tiles_bits(levels) + np.array(
            [block_syntax_bits(frame_type, mode, mvd) for mode, mvd in cands])
        i = choose_block_mode(ssd + lam * bits, [mode for mode, _ in cands])
        mode, mvd = cands[i]

        walk.put(c, mode, mv, rec[i])
        dist_total += int(ssd[i])
        if mvd is not None:
            mvds[c.by, c.bx] = mvd
        blocks[n] = levels[i]

    unit = FrameUnit(frame_type, list(regions), walk.modes, mvds, blocks)
    return unit, _FrameResult(walk.recon, dist_total, *mode_counts(walk.modes))


@dataclass
class _PeriodPass:
    data: bytes
    frame_bits: list[FrameBits]
    param_bits: int
    results: list[_FrameResult]

    @property
    def total_bits(self) -> int:
        return len(self.data) * 8

    @property
    def distortion(self) -> int:
        return sum(r.distortion for r in self.results)

    def j(self, lam: float) -> float:
        return self.distortion + lam * self.total_bits


def _encode_period(
    period_frames: list[Frame], start: int, regions_per_frame: list[list[RegionSpec]],
    qparams: QuantizedGnnParams | None, ctx: SetContext | None,
    config: SequenceConfig, lam: float, cols: int, rows: int,
    budget: float = math.inf,
) -> _PeriodPass:
    """Code one period, stopping before a frame once its cost so far
    reaches budget; a stopped pass holds the frames coded before the stop.

    The cost so far, SSD plus lambda times the bits written, only grows
    frame by frame, so a stopped pass could not have finished below budget.
    """
    w = BitWriter()
    param_bits = write_param_set(w, qparams) if qparams is not None else 0
    frame_bits = []
    results = []
    distortion = 0
    prev_recon: Frame | None = None
    for offset, source in enumerate(period_frames):
        if distortion + lam * w.bit_position >= budget:
            break
        frame_idx = start + offset
        frame_type = "I" if offset == 0 else "P"
        unit, res = _encode_frame(
            source, prev_recon, frame_idx, frame_type, regions_per_frame[offset],
            qparams, ctx, config.qp, lam, config.search_range,
        )
        frame_bits.append(write_frame(w, unit, cols, rows))
        results.append(res)
        distortion += res.distortion
        prev_recon = res.recon
    return _PeriodPass(w.to_bytes(), frame_bits, param_bits, results)


@dataclass
class EncodeRow:
    """One frame's line in the encode report CSV."""

    frame: int
    type: str
    psnr_y: float
    psnr_cb: float
    psnr_cr: float
    bits_header: int
    bits_params: int
    bits_modes: int
    bits_mv: int
    bits_residual: int
    n_gen_blocks: int


CSV_COLUMNS = (
    "frame", "type", "psnr_y", "psnr_cb", "psnr_cr", "bits_header",
    "bits_params", "bits_modes", "bits_mv", "bits_residual", "n_gen_blocks",
)


@dataclass
class PeriodRecord:
    """Why one keyframe period kept or dropped its network.

    outcome is "off" (generator disabled), "bound" (lambda * param_bits
    already reaches j_without, so nothing was trained), "no_regions" (no
    frame had a generation region), "aborted" (the network pass reached
    j_without before its last frame), "lost" (it finished at or above
    j_without) or "kept".
    """

    start: int
    j_without: float
    param_bits: int
    train_samples: int = 0
    frames_coded_with: int = 0
    outcome: str = "off"


@dataclass
class EncodeReport:
    rows: list[EncodeRow]
    total_bits: int
    total_distortion: int
    rd_cost: float
    mode_histogram: dict[str, int]
    recon_frames: list[Frame]
    periods: list[PeriodRecord]

    def to_csv(self) -> str:
        return csv_text(self.rows, CSV_COLUMNS)


def _period_global_motion(frames: list[Frame], search_range: int) -> MotionVector:
    """Median per-frame motion across the period, measured on source frames.

    Reconstructions of future frames do not exist at planning time, so the
    estimate runs source-against-source; it only steers region placement.
    """
    dxs: list[int] = []
    dys: list[int] = []
    for offset in range(1, len(frames)):
        gm = estimate_global_motion(frames[offset], frames[offset - 1], search_range)
        dxs.append(gm.dx)
        dys.append(gm.dy)
    if not dxs:
        return MotionVector(0, 0)
    return MotionVector(_median_toward_zero(dxs), _median_toward_zero(dys))


def _network_pass(
    period: list[Frame], record: PeriodRecord, config: SequenceConfig,
    train_cfg: TrainConfig, zoom_hint: str, lam: float,
) -> _PeriodPass | None:
    """The period coded with a freshly trained network, if that beats
    record.j_without; fills in the rest of the record."""
    if lam * record.param_bits >= record.j_without:
        # J_with = SSD + lambda * bits >= lambda * param_bits
        record.outcome = "bound"
        return None
    start, span = record.start, len(period)
    cols, rows = block_grid_dims(config.width, config.height)
    # A zoom hint places its margins without reading global motion.
    gm = (_period_global_motion(period, config.search_range)
          if zoom_hint == "none" else MotionVector(0, 0))
    ctx = SetContext(cols, rows, start, span)
    regions_per_frame = [
        select_generation_regions(gm, cols, rows, offset, zoom_hint)
        for offset in range(span)
    ]
    qparams, record.train_samples = train_param_set(
        period, start, regions_per_frame, ctx, config.gnn_arch, train_cfg
    )
    if qparams is None:
        record.outcome = "no_regions"
        return None
    with_gnn = _encode_period(
        period, start, regions_per_frame, qparams, ctx,
        config, lam, cols, rows, record.j_without,
    )
    record.frames_coded_with = len(with_gnn.results)
    if record.frames_coded_with < span:
        record.outcome = "aborted"
        return None
    # Never-worse fallback: strict improvement keeps the network.
    if with_gnn.j(lam) < record.j_without:
        record.outcome = "kept"
        return with_gnn
    record.outcome = "lost"
    return None


def encode_sequence(
    frames: list[Frame], config: SequenceConfig,
    train_cfg: TrainConfig | None = None, zoom_hint: str = "none",
) -> tuple[bytes, EncodeReport]:
    """Encode a sequence; returns the stream and a per-frame report.

    The report's reconstruction frames are exactly what a decoder produces
    for the returned stream.
    """
    config.validate()
    if zoom_hint not in ZOOM_HINTS:
        raise ValueError(f"zoom hint must be one of {ZOOM_HINTS}")
    if config.gnn_enabled:
        check_architecture(config.gnn_arch)
    if len(frames) != config.frame_count:
        raise ValueError(
            f"config promises {config.frame_count} frames, got {len(frames)}"
        )
    for fr in frames:
        if (fr.display_width, fr.display_height) != (config.width, config.height):
            raise ValueError("frame display size does not match config")
    train_cfg = train_cfg or TrainConfig()
    lam = rd_lambda(config.qp)
    cols, rows = block_grid_dims(config.width, config.height)
    header = StreamHeader(
        config.width, config.height, config.frame_count, config.qp,
        config.gnn_enabled, config.gnn_interval,
    )
    w = BitWriter()
    header_bits = write_header(w, header)

    rows_out: list[EncodeRow] = []
    recons: list[Frame] = []
    periods: list[PeriodRecord] = []
    hist = {"intra": 0, "inter": 0, "gen": 0}
    total_dist = 0
    param_bits = param_set_bits(config.gnn_arch) if config.gnn_enabled else 0

    for start in range(0, config.frame_count, config.gnn_interval):
        period = frames[start:start + config.gnn_interval]
        chosen = _encode_period(
            period, start, [[] for _ in period], None, None,
            config, lam, cols, rows,
        )
        record = PeriodRecord(start, chosen.j(lam), param_bits)
        if config.gnn_enabled:
            chosen = _network_pass(
                period, record, config, train_cfg, zoom_hint, lam,
            ) or chosen
        periods.append(record)

        w.write_bytes(chosen.data)
        for offset, (res, fb) in enumerate(zip(chosen.results, chosen.frame_bits)):
            frame_idx = start + offset
            psnr_y, psnr_cb, psnr_cr = frame_psnr(frames[frame_idx], res.recon)
            rows_out.append(EncodeRow(
                frame=frame_idx,
                type="I" if offset == 0 else "P",
                psnr_y=psnr_y,
                psnr_cb=psnr_cb,
                psnr_cr=psnr_cr,
                bits_header=header_bits if frame_idx == 0 else 0,
                bits_params=chosen.param_bits if offset == 0 else 0,
                bits_modes=fb.modes,
                bits_mv=fb.mvs,
                bits_residual=fb.residuals,
                n_gen_blocks=res.n_gen,
            ))
            recons.append(res.recon)
            hist["intra"] += res.n_intra
            hist["inter"] += res.n_inter
            hist["gen"] += res.n_gen
            total_dist += res.distortion

    data = w.to_bytes()
    report = EncodeReport(
        rows=rows_out,
        total_bits=len(data) * 8,
        total_distortion=total_dist,
        rd_cost=total_dist + lam * len(data) * 8,
        mode_histogram=hist,
        recon_frames=recons,
        periods=periods,
    )
    return data, report
