"""Encoder: rate-distortion mode decisions and the generator-period loop.

The sequence is coded in keyframe periods of gnn_interval frames, each
starting with an I frame. Per period the encoder estimates global motion on
the source frames, derives generation regions (a margin on the edge where
new content enters under panning, four margins under a declared zoom),
overfits the generator network on the source blocks of those regions, and
encodes the period with the network (parameter-set bits included). The
network is kept only when that pass's total rate-distortion cost
J = SSD + lambda * bits is strictly below the cost of the same period coded
without it, so enabling the generator can never lose to the baseline. A
frame unit lists only the regions that hold a generated block; a forced
region always does, and a selectable region where the generator wins no
block is left out, selection bits and all.

The pass without the network runs first and its J becomes the budget.
Because J with the network is at least lambda times the parameter-set
bits, a budget at or below that product rules the network out before any
training; otherwise the network pass stops as soon as its cost so far
reaches the budget. That pass replays the first one until the generator
wins a block: the first pass keeps every candidate's SSD and bits, so a
frame costs only its generated candidates, and while no winner moves,
its decisions, pixels and distortion are the first pass's, and so are its
unit's bytes, since a frame that generates nothing lists no region. The
first frame where the generator wins, or a region is forced, and every
later frame are coded in full.
The first pass's per-block winning costs go into the period's record.
Every candidate is costed with exact coded bits, and every block is
rebuilt through the decoder's own block walk, which keeps
the two bit-identical. The walk visits a frame one anti-diagonal of
blocks at a time: a block's intra prediction and its vector predictor
read only its left and top neighbours, which lie on earlier diagonals, so
the blocks of one diagonal are decided together. Each block's candidates
sit in one slot per BlockMode, in rank order; every candidate on the
diagonal is stacked on one axis and costed in tile layout: the frame's
source blocks are cut into 8x8 tiles once, and one batched call each
quantizes, bit-counts and rebuilds all the candidates' tiles, whose SSD
is taken there. Only each block's winner goes back into planes, for the
walk. Each block keeps its first
minimum-cost candidate, so ties go to the earlier rank, and the decisions
are those of a block-by-block raster walk. A P frame's motion vectors
come from one whole-frame search against the previous reconstruction, its
inter bases from one motion-compensation gather, and the generated bases
from one generator call, all made before the walk; global motion searches
only its sixteen sample blocks' windows between source frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .bitstream import (
    FORCED,
    SELECTABLE,
    BlockMode,
    FrameBits,
    FrameUnit,
    RegionSpec,
    block_syntax_bits,
    param_set_bits,
    region_map,
    write_frame,
    write_header,
    write_param_set,
)
from .core import (
    BLOCK,
    CHROMA_BLOCK,
    Block32,
    Frame,
    SequenceConfig,
    block_grid_dims,
    extract_block,
)
from .decoder import FrameWalk, mode_counts
from .entropy import BitWriter
from .gnn import (
    INPUT_SIZE,
    OUTPUT_SIZE,
    QuantizedGnnParams,
    SetContext,
    TrainConfig,
    block_to_targets,
    generate_block,
    gnn_input,
    quantize_params,
    train,
)
from .prediction import MotionVector, block_motion, motion_compensate, motion_field
from .residual import (
    TILES_PER_BLOCK,
    block_tiles,
    block_tiles_bits,
    encode_tiles,
    rebuild_tiles,
    tile_block,
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
    """Component-wise median motion over a regular 16-block subsample grid.

    Only the sample blocks are searched. On a grid under 8 blocks wide or
    high the lattice visits some block twice, and the median counts each
    visit.
    """
    cols, rows = block_grid_dims(cur.width, cur.height)
    bxs = [min(cols - 1, ((2 * i + 1) * cols) // 8) for i in range(4)]
    bys = [min(rows - 1, ((2 * i + 1) * rows) // 8) for i in range(4)]
    by, bx = np.meshgrid(bys, bxs, indexing="ij")
    coords = np.stack([bx, by], axis=-1)
    field = block_motion(extract_block(cur, coords).y, ref, coords, search_range)
    return MotionVector(_median_toward_zero(field.dx), _median_toward_zero(field.dy))


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
    regions, targeting source pixels. It is built once, in the float32
    arrays train uses without a copy: each frame's rows are made in
    float64 from its region blocks' coordinates and rounded as they are
    written. Returns (None, 0) when no frame has regions.
    """
    coords = [np.argwhere(region_map(regs, ctx.cols, ctx.rows))[:, ::-1]
              for regs in regions_per_frame]
    n = sum(map(len, coords))
    if not n:
        return None, 0
    inputs = np.empty((n, INPUT_SIZE), np.float32)
    targets = np.empty((n, OUTPUT_SIZE), np.float32)
    row = 0
    for offset, at in enumerate(coords):
        rows = slice(row, row + len(at))
        inputs[rows] = gnn_input(ctx, at, start_frame + offset)
        targets[rows] = block_to_targets(extract_block(src_frames[offset], at))
        row += len(at)
    return quantize_params(train(layer_sizes, inputs, targets, cfg)), n


def choose_block_mode(j: np.ndarray) -> np.ndarray:
    """Index of the minimum-J candidate along j's last axis, whose slots
    are in BlockMode rank: the first minimum, so ties go to the earlier
    rank. Leading axes pass through, one choice each."""
    j = np.asarray(j, dtype=np.float64)
    if not j.shape[-1]:
        raise ValueError("no candidates")
    return np.argmin(j, axis=-1)


def _candidate_costs(src: np.ndarray, bases: np.ndarray, frame_type: str, modes,
                     mvds, qp: int):
    """(levels, rebuilt tiles, SSD, bits) of candidates with the given basis
    tiles for the source tiles src, (n, 24, 8, 8) uint8 each in
    residual.block_tiles' layout; the bits are the tiles' and
    block_syntax_bits' for the candidates' modes and vector differences,
    the selection bit left out.

    The SSD is taken in tile layout, a permutation of the planes' samples.
    The differences are squared in int32, since 255^2 overflows int16; a
    block's SSD is at most 1536 * 255^2 < 2^27, so int32 holds it.
    """
    levels = encode_tiles(src, bases, qp)
    rec = rebuild_tiles(bases, levels, qp)
    d = np.subtract(rec, src, dtype=np.int16).astype(np.int32)
    ssd = np.einsum("...ijk,...ijk->...", d, d)
    bits = block_tiles_bits(levels) + block_syntax_bits(frame_type, modes, mvds)
    return levels, rec, ssd, bits


@dataclass
class _FrameResult:
    # The frame unit is written and dropped, not kept here: its residual
    # levels are most of a pass's memory, and a finished pass stays alive
    # while the next one trains and codes. The costs stay: each block's
    # candidates' SSD and bits, the selection bit left out, as int32
    # (rows, cols, len(BlockMode)) arrays, zero in an empty slot.
    recon: Frame
    modes: np.ndarray
    ssd: np.ndarray
    bits: np.ndarray

    @property
    def distortion(self) -> int:
        return int(self.winners()[0].sum(dtype=np.int64))

    def winners(self) -> tuple[np.ndarray, np.ndarray]:
        """Each block's winning (SSD, bits less the selection bit)."""
        at = self.modes[..., None].astype(np.intp)
        return (np.take_along_axis(self.ssd, at, -1)[..., 0],
                np.take_along_axis(self.bits, at, -1)[..., 0])


# Each block's candidates sit in one slot per BlockMode, in rank order.
_SLOT_MODES = np.arange(len(BlockMode))
_INTRA_SLOTS = slice(BlockMode.INTRA_DC, BlockMode.GEN)


def _candidate_slots(kinds: np.ndarray, frame_type: str, has_net: bool) -> np.ndarray:
    """Which of each block's slots hold a candidate, (rows, cols,
    len(BlockMode)) from a region_map: inter in a P frame, the three intra
    modes, and the generator in a selectable region with a network; in a
    forced region the generator alone."""
    coded = kinds != FORCED
    slots = np.zeros(kinds.shape + (len(BlockMode),), dtype=bool)
    slots[..., BlockMode.INTER] = coded & (frame_type == "P")
    slots[..., _INTRA_SLOTS] = coded[..., None]
    slots[..., BlockMode.GEN] = ~coded | ((kinds == SELECTABLE) & has_net)
    return slots


def _slot_costs(ssd: np.ndarray, bits: np.ndarray, slots: np.ndarray,
                sel: np.ndarray, lam: float) -> np.ndarray:
    """Each slot's J = SSD + lambda * bits, with the block's selection bit
    sel (0 or 1) among the bits; an empty slot costs inf and never wins.

    sel is the same for every candidate of a block, so it never decides;
    it is charged so that each cost holds the block's bits.
    """
    return np.where(slots, ssd + lam * (sel[..., None] + bits), np.inf)


def _encode_frame(
    source: Frame, prev_recon: Frame | None, frame_idx: int, frame_type: str,
    regions: list[RegionSpec], qparams: QuantizedGnnParams | None,
    ctx: SetContext | None, qp: int, lam: float, search_range: int,
) -> tuple[FrameUnit, _FrameResult]:
    """Code one frame through the decoder's block walk, one anti-diagonal
    of blocks at a time.

    A block's candidates are those of _candidate_slots. The inter and
    generated bases do not depend on the walk and are made for the whole
    frame before it: a P frame's vectors from one whole-frame search, its
    inter bases from one motion-compensation gather. Per diagonal, the
    intra bases come from one prediction, and every candidate of every
    block on the diagonal is stacked on one axis and costed in tile layout
    by _candidate_costs; the source blocks are cut into tiles once per
    frame, and only the winners are rebuilt as planes. The unit lists only
    the regions that hold a generated block.
    """
    walk = FrameWalk(source.display_width, source.display_height)
    rows, cols = walk.modes.shape
    by, bx = np.indices((rows, cols))
    grid = np.stack([bx, by], axis=-1)
    src = block_tiles(extract_block(source, grid))
    kinds = region_map(regions, cols, rows)
    slots = _candidate_slots(kinds, frame_type, qparams is not None)
    # the bases of the walk-free slots
    bases = Block32(*(np.zeros((rows, cols, len(BlockMode), size, size), np.uint8)
                      for size in (BLOCK, CHROMA_BLOCK, CHROMA_BLOCK)))
    mvs = np.zeros((rows, cols, 2), dtype=np.int64)
    if frame_type == "P":
        field = motion_field(source, prev_recon, search_range)
        mvs = np.stack([field.dx, field.dy], axis=-1)
        bases[:, :, BlockMode.INTER] = motion_compensate(prev_recon, grid, mvs)
    gen = slots[..., BlockMode.GEN]
    if gen.any():
        bases[gen, BlockMode.GEN] = generate_block(qparams, grid[gen], frame_idx, ctx)
    sel = kinds == SELECTABLE
    # each candidate's costs, and the unit's arrays, filled with each
    # diagonal's winners as the walk goes; levels are within +-MAX_LEVEL
    # (residual.scatter_tiles), so int16 holds them
    slot_ssd = np.zeros(slots.shape, dtype=np.int32)
    slot_bits = np.zeros(slots.shape, dtype=np.int32)
    mvds = np.zeros((rows, cols, 2), dtype=np.int32)
    blocks = np.zeros((rows * cols, TILES_PER_BLOCK, 64), dtype=np.int16)

    for coords in walk.waves(np.ones((rows, cols), dtype=bool)):
        bx, by = coords[:, 0], coords[:, 1]
        have = slots[by, bx]
        cand = bases[by, bx]
        cand[:, _INTRA_SLOTS] = walk.intra(coords[:, None], _SLOT_MODES[_INTRA_SLOTS])
        # every candidate on the diagonal, block by block in rank order,
        # with its block's index on the diagonal and its mode
        cand = cand[have]
        block, mode = np.nonzero(have)
        mvd = mvs[by, bx] - walk.mv_pred(coords)
        levels, rec, ssd, bits = _candidate_costs(
            src[by[block], bx[block]], block_tiles(cand), frame_type, mode,
            mvd[block], qp)
        slot_ssd[by[block], bx[block], mode] = ssd
        slot_bits[by[block], bx[block], mode] = bits
        j = _slot_costs(slot_ssd[by, bx], slot_bits[by, bx], have, sel[by, bx], lam)
        win = choose_block_mode(j)
        stacked = np.zeros(have.shape, dtype=np.intp)
        stacked[have] = np.arange(len(mode))
        i = stacked[np.arange(len(coords)), win]  # the winners in the stack

        walk.put(coords, win, mvs[by, bx], tile_block(rec[i]))
        mvds[by, bx] = np.where((win == BlockMode.INTER)[:, None], mvd, 0)
        blocks[by * cols + bx] = levels[i]

    won = walk.modes == BlockMode.GEN
    unit = FrameUnit(frame_type, [r for r in regions if won[r.area].any()],
                     walk.modes, mvds, blocks)
    return unit, _FrameResult(walk.recon, walk.modes, slot_ssd, slot_bits)


def _replays(
    fallback: _FrameResult, source: Frame, frame_idx: int, frame_type: str,
    regions: list[RegionSpec], qparams: QuantizedGnnParams | None,
    ctx: SetContext | None, qp: int, lam: float,
) -> bool:
    """Whether _encode_frame, given the fallback pass's reference, would
    code this frame with regions and a network exactly as the fallback
    pass coded it without them.

    Until a block's winner differs, the walk meets the fallback frame's
    neighbours and vector predictors, so every candidate but the
    generator's costs what it cost there; the generator's do not depend on
    the walk. So the generated candidates of the region blocks are costed
    in one batch, each slot's J is rebuilt with _slot_costs, and if no
    winner moves, none would in the walk either. A forced region's blocks
    have the generator alone, so they always move.
    """
    rows, cols = fallback.modes.shape
    kinds = region_map(regions, cols, rows)
    slots = _candidate_slots(kinds, frame_type, qparams is not None)
    slot_ssd, slot_bits = fallback.ssd.copy(), fallback.bits.copy()
    by, bx = np.nonzero(slots[..., BlockMode.GEN])
    if len(by):
        coords = np.stack([bx, by], axis=-1)
        _, _, ssd, bits = _candidate_costs(
            block_tiles(extract_block(source, coords)),
            block_tiles(generate_block(qparams, coords, frame_idx, ctx)),
            frame_type, BlockMode.GEN, None, qp)
        slot_ssd[by, bx, BlockMode.GEN], slot_bits[by, bx, BlockMode.GEN] = ssd, bits
    win = choose_block_mode(
        _slot_costs(slot_ssd, slot_bits, slots, kinds == SELECTABLE, lam))
    return np.array_equal(win, fallback.modes)


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

    def unit_bytes(self, offset: int) -> bytes:
        """The bytes of the frame unit at offset; each unit ends on a byte
        boundary."""
        start = self.param_bits + sum(fb.total for fb in self.frame_bits[:offset])
        return self.data[start // 8:(start + self.frame_bits[offset].total) // 8]


def _encode_period(
    period_frames: list[Frame], start: int, regions_per_frame: list[list[RegionSpec]],
    qparams: QuantizedGnnParams | None, ctx: SetContext | None,
    config: SequenceConfig, lam: float, cols: int, rows: int,
    budget: float = math.inf, fallback: _PeriodPass | None = None,
) -> _PeriodPass:
    """Code one period, stopping before a frame once its cost so far
    reaches budget; a stopped pass holds the frames coded before the stop.

    The cost so far, SSD plus lambda times the bits written, only grows
    frame by frame, so a stopped pass could not have finished below budget.

    Given the period's fallback pass, coded with no regions and no
    network, a frame that _replays it takes its decisions, pixels,
    distortion and unit bytes from there: it generates no block, so
    _encode_frame would list none of its regions. From the first frame
    that does not, every frame is coded: its reference is no longer the
    fallback's.
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
        regions = regions_per_frame[offset]
        if fallback is not None and _replays(
                fallback.results[offset], source, frame_idx, frame_type, regions,
                qparams, ctx, config.qp, lam):
            res = fallback.results[offset]
            w.write_bytes(fallback.unit_bytes(offset))
            frame_bits.append(fallback.frame_bits[offset])
        else:
            fallback = None
            unit, res = _encode_frame(
                source, prev_recon, frame_idx, frame_type, regions,
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


CSV_COLUMNS = tuple(f.name for f in fields(EncodeRow))


@dataclass(eq=False)
class PeriodRecord:
    """Why one keyframe period kept or dropped its network.

    outcome is "off" (generator disabled), "bound" (lambda * param_bits
    already reaches j_without, so nothing was trained), "no_regions" (no
    frame had a generation region), "aborted" (the network pass reached
    j_without before its last frame), "lost" (it finished at or above
    j_without) or "kept". block_d and block_r are the pass without the
    network's per-block costs, (frames, rows, cols) int32: each block's
    winning SSD and its bits, the frame header and byte padding left out.
    """

    start: int
    j_without: float
    param_bits: int
    train_samples: int = 0
    frames_coded_with: int = 0
    outcome: str = "off"
    block_d: np.ndarray | None = None
    block_r: np.ndarray | None = None


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
    period: list[Frame], fallback: _PeriodPass, record: PeriodRecord,
    config: SequenceConfig, train_cfg: TrainConfig, zoom_hint: str, lam: float,
) -> _PeriodPass | None:
    """The period coded with a freshly trained network, if that beats
    record.j_without, replaying the fallback pass until the generator
    first wins a block; fills in the rest of the record."""
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
        config, lam, cols, rows, record.j_without, fallback,
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
    # param_set_bits refuses an architecture the stream cannot carry
    param_bits = param_set_bits(config.gnn_arch) if config.gnn_enabled else 0
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
    w = BitWriter()
    header_bits = write_header(w, config.header())

    rows_out: list[EncodeRow] = []
    recons: list[Frame] = []
    periods: list[PeriodRecord] = []
    hist = {"intra": 0, "inter": 0, "gen": 0}
    total_dist = 0

    for start in range(0, config.frame_count, config.gnn_interval):
        span = config.header().set_frames(start)
        period = frames[span.start:span.stop]
        fallback = _encode_period(
            period, start, [[] for _ in period], None, None,
            config, lam, cols, rows,
        )
        d, r = zip(*(res.winners() for res in fallback.results))
        record = PeriodRecord(start, fallback.j(lam), param_bits,
                              block_d=np.stack(d), block_r=np.stack(r))
        chosen = fallback
        if config.gnn_enabled:
            chosen = _network_pass(
                period, fallback, record, config, train_cfg, zoom_hint, lam,
            ) or fallback
        periods.append(record)

        w.write_bytes(chosen.data)
        for offset, (res, fb) in enumerate(zip(chosen.results, chosen.frame_bits)):
            frame_idx = start + offset
            psnr_y, psnr_cb, psnr_cr = frame_psnr(frames[frame_idx], res.recon)
            n_intra, n_inter, n_gen = mode_counts(res.modes)
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
                n_gen_blocks=n_gen,
            ))
            recons.append(res.recon)
            hist["intra"] += n_intra
            hist["inter"] += n_inter
            hist["gen"] += n_gen
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
