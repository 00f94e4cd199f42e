"""Shared fixtures: small deterministic sequences, one cached encode,
frame units built by hand, tiles included, and the block-by-block frame
code and rebuild the diagonal encoder and batched decoder are checked
against.

Session scope keeps the expensive pieces (synthesis, training, encoding)
to a single run; every test that needs them must treat them as read-only.
"""

import numpy as np
import pytest

from nbv.bitstream import (
    FORCED,
    SELECTABLE,
    UNIT_FRAME,
    BlockMode,
    FrameUnit,
    RegionSpec,
    StreamHeader,
    block_syntax_bits,
    parse_frame,
    region_map,
    write_header,
)
from nbv.core import (
    Block32,
    BlockCoord,
    Frame,
    SequenceConfig,
    blank_frame,
    extract_block,
    insert_block,
    make_frame,
)
from nbv.encoder import (
    _encode_period,
    choose_block_mode,
    encode_sequence,
    rd_lambda,
    train_param_set,
)
from nbv.entropy import BitReader, BitWriter, ue_encode, write_ue_codes
from nbv.gnn import SetContext, TrainConfig, generate_block
from nbv.prediction import IntraMode, MotionVector, intra_predict, motion_field
from nbv.residual import (
    TILES_PER_BLOCK,
    apply_block_residual,
    block_tiles_bits,
    dct8_inverse_int,
    dequantize_int,
    encode_block_residual,
    tile_codes,
)
from nbv.tools import synth_sequence


def rand_frame(width: int, height: int, seed: int = 0) -> Frame:
    rng = np.random.default_rng(seed)
    return make_frame(
        rng.integers(0, 256, (height, width), dtype=np.uint8),
        rng.integers(0, 256, (height // 2, width // 2), dtype=np.uint8),
        rng.integers(0, 256, (height // 2, width // 2), dtype=np.uint8),
    )


def frame_unit(frame_type: str, blocks, cols: int = 1, regions=()) -> FrameUnit:
    """A FrameUnit from per-block (mode, mvd, tiles) tuples in raster order,
    cols blocks a row; mvd None stands for zero, and tiles is anything that
    reshapes to (24, 64)."""
    rows = len(blocks) // cols
    modes = np.array([mode for mode, _, _ in blocks], dtype=np.int8)
    mvds = np.array([mvd or (0, 0) for _, mvd, _ in blocks], dtype=np.int32)
    tiles = np.array([np.reshape(t, (24, 64)) for _, _, t in blocks], dtype=np.int32)
    return FrameUnit(frame_type, list(regions), modes.reshape(rows, cols),
                     mvds.reshape(rows, cols, 2), tiles)


def start_tile_frame(w: BitWriter) -> None:
    """Write an I-frame unit up to its first block's tiles: the tag, the
    frame type, no regions and the intra DC mode symbol."""
    w.write_bits(UNIT_FRAME, 8)
    w.write_bits(0, 1)
    ue_encode(w, 0)
    ue_encode(w, 0)


def tile_frame(tiles) -> tuple[bytes, int]:
    """(n, 64) level tiles as an I-frame unit of one row of intra DC
    blocks, 24 tiles a block, the last block filled up with zero tiles.

    Each block's tiles are written as the codec writes them,
    write_ue_codes(w, tile_codes(tiles)[0]). Returns the unit and the bits
    of its tiles' codes.
    """
    tiles = np.reshape(tiles, (-1, 64))
    blocks = np.zeros((-(-len(tiles) // TILES_PER_BLOCK), TILES_PER_BLOCK, 64),
                      dtype=np.int32)
    blocks.reshape(-1, 64)[:len(tiles)] = tiles
    w = BitWriter()
    start_tile_frame(w)
    bits = 0
    for i, block in enumerate(blocks):
        if i:
            ue_encode(w, 0)  # the next block's mode symbol
        bits += write_ue_codes(w, tile_codes(block)[0])
    w.byte_align()
    return w.to_bytes(), bits


def parse_tiles(data: bytes, n: int) -> np.ndarray:
    """The first n tiles of a tile_frame unit, read by the frame parser,
    which must consume the whole unit."""
    r = BitReader(data)
    unit = parse_frame(r, -(-n // TILES_PER_BLOCK), 1)
    assert r.bits_remaining == 0
    return unit.blocks.reshape(-1, 64)[:n]


def clamped_window_py(plane, y0, x0, h, w):
    """Reference edge-clamped window fetch, one sample at a time."""
    hh, ww = plane.shape
    out = np.empty((h, w), plane.dtype)
    for dy in range(h):
        for dx in range(w):
            out[dy, dx] = plane[min(max(y0 + dy, 0), hh - 1),
                                min(max(x0 + dx, 0), ww - 1)]
    return out


def half_toward_zero(v: int) -> int:
    return v // 2 if v >= 0 else -((-v) // 2)


def motion_compensate_py(ref: Frame, c: BlockCoord, mv: MotionVector) -> Block32:
    """Reference motion compensation of one block: a per-sample clamped
    fetch, the chroma vector halved toward zero."""
    cdx, cdy = half_toward_zero(mv.dx), half_toward_zero(mv.dy)
    return Block32(
        clamped_window_py(ref.y, 32 * c.by + mv.dy, 32 * c.bx + mv.dx, 32, 32),
        *(clamped_window_py(p, 16 * c.by + cdy, 16 * c.bx + cdx, 16, 16)
          for p in (ref.cb, ref.cr)))


def rebuild_block_dense(basis: Block32, tiles: np.ndarray, qp: int) -> Block32:
    """One block rebuilt by inverse transforming every one of its 24 tiles,
    empty or not, and adding the unclipped residual to the basis."""
    res = dct8_inverse_int(dequantize_int(tiles, qp))
    planes = []
    offset = 0
    for bas, size in ((basis.y, 32), (basis.cb, 16), (basis.cr, 16)):
        n = size // 8
        plane = res[offset:offset + n * n].reshape(n, n, 8, 8).swapaxes(1, 2)
        planes.append(np.clip(bas + plane.reshape(size, size), 0, 255).astype(np.uint8))
        offset += n * n
    return Block32(*planes)


def raster_basis(recon: Frame, mode: BlockMode, c: BlockCoord, frame_idx: int,
                 qparams, ctx) -> Block32:
    """One intra or generated block's prediction, from the frame so far."""
    if mode == BlockMode.GEN:
        return generate_block(qparams, c, frame_idx, ctx)
    return intra_predict(recon, c, IntraMode(mode - BlockMode.INTRA_DC))


def decode_frame_oracle(fu: FrameUnit, prev_recon, frame_idx: int, qparams,
                        ctx, width: int, height: int, qp: int) -> Frame:
    """A frame unit rebuilt one block at a time in raster order, as the
    decoder did before it batched: each block's prediction (inter from a
    per-sample clamped fetch, intra or generated from the frame so far),
    then its dense residual, then the next block. An inter block's
    difference is coded against the left block's vector when that block
    is inter, and against zero after any other block and at the start of
    each row."""
    recon = blank_frame(width, height)
    cols = fu.modes.shape[1]
    for n, (mode, mvd, tiles) in enumerate(zip(
            fu.modes.reshape(-1).tolist(), fu.mvds.reshape(-1, 2).tolist(),
            fu.blocks)):
        c = BlockCoord(n % cols, n // cols)
        if c.bx == 0:
            mv_pred = MotionVector(0, 0)
        if mode == BlockMode.INTER:
            mv_pred = MotionVector(mv_pred.dx + mvd[0], mv_pred.dy + mvd[1])
            basis = motion_compensate_py(prev_recon, c, mv_pred)
        else:
            basis = raster_basis(recon, mode, c, frame_idx, qparams, ctx)
            mv_pred = MotionVector(0, 0)
        insert_block(recon, c, rebuild_block_dense(basis, tiles, qp))
    return recon


def encode_frame_oracle(source: Frame, prev_recon, frame_idx: int,
                        frame_type: str, regions, qparams, ctx, qp: int,
                        lam: float, search_range: int):
    """One frame coded one block at a time in raster order, as the encoder
    did before it walked anti-diagonals; returns (FrameUnit, recon,
    distortion).

    Each block costs its candidates (inter, the three intra modes and, in
    a selectable region with a network, the generator; in a forced region
    the generator alone) as J = SSD + lambda * bits, keeps the first
    minimum in BlockMode rank, and is rebuilt before the next block.
    Vector differences follow decode_frame_oracle's left-neighbour rule.
    """
    recon = blank_frame(source.display_width, source.display_height)
    rows, cols = recon.height // 32, recon.width // 32
    field = motion_field(source, prev_recon, search_range) if frame_type == "P" else None
    kinds = region_map(regions, cols, rows)
    modes = np.zeros((rows, cols), dtype=np.int8)
    mvds = np.zeros((rows, cols, 2), dtype=np.int32)
    blocks = np.zeros((rows * cols, TILES_PER_BLOCK, 64), dtype=np.int32)
    distortion = 0
    for n in range(rows * cols):
        c = BlockCoord(n % cols, n // cols)
        if c.bx == 0:
            mv_pred = MotionVector(0, 0)
        src = extract_block(source, c)
        kind = kinds[c.by, c.bx]
        mv = None
        cands = []  # (mode, motion-vector difference, basis)
        if kind == FORCED:
            cands.append((BlockMode.GEN, None, None))
        else:
            if frame_type == "P":
                mv, _ = field.at(c)
                cands.append((BlockMode.INTER,
                              (mv.dx - mv_pred.dx, mv.dy - mv_pred.dy),
                              motion_compensate_py(prev_recon, c, mv)))
            cands += [(mode, None, None) for mode in
                      (BlockMode.INTRA_DC, BlockMode.INTRA_H, BlockMode.INTRA_V)]
            if kind == SELECTABLE and qparams is not None:
                cands.append((BlockMode.GEN, None, None))
        bases = [basis if basis is not None else
                 raster_basis(recon, mode, c, frame_idx, qparams, ctx)
                 for mode, _, basis in cands]
        basis = Block32(*(np.stack(planes) for planes in
                          zip(*((b.y, b.cb, b.cr) for b in bases))))
        levels = encode_block_residual(src, basis, qp)
        rec = apply_block_residual(basis, levels, qp)
        ssd = 0
        for ps, pr in ((src.y, rec.y), (src.cb, rec.cb), (src.cr, rec.cr)):
            d = pr.astype(np.int64) - ps.astype(np.int64)
            ssd = ssd + (d * d).sum(axis=(-2, -1))
        bits = int(kind == SELECTABLE) + block_tiles_bits(levels) + np.array(
            [block_syntax_bits(frame_type, mode, mvd) for mode, mvd, _ in cands])
        i = int(choose_block_mode(ssd + lam * bits, [m for m, _, _ in cands]))
        mode, mvd, _ = cands[i]
        insert_block(recon, c, rec[i])
        modes[c.by, c.bx] = mode
        mv_pred = mv if mode == BlockMode.INTER else MotionVector(0, 0)
        if mvd is not None:
            mvds[c.by, c.bx] = mvd
        blocks[n] = levels[i]
        distortion += int(ssd[i])
    return FrameUnit(frame_type, list(regions), modes, mvds, blocks), recon, distortion


def fast_train(steps: int = 150) -> TrainConfig:
    # bit exactness never depends on training quality, only on determinism
    return TrainConfig(steps=steps)


@pytest.fixture(scope="session")
def pan_frames() -> list[Frame]:
    return synth_sequence("pan", 96, 64, 8, velocity=(4, 0), seed=7)


@pytest.fixture(scope="session")
def static_frames() -> list[Frame]:
    return synth_sequence("static", 96, 64, 6, seed=3)


@pytest.fixture(scope="session")
def pan_config() -> SequenceConfig:
    return SequenceConfig(
        width=96, height=64, frame_count=8, qp=20,
        gnn_interval=4, gnn_enabled=True, gnn_arch=(3, 16, 1536),
    )


@pytest.fixture(scope="session")
def pan_encode(pan_frames, pan_config):
    """(stream bytes, EncodeReport) for the shared panning fixture."""
    stream, report = encode_sequence(pan_frames, pan_config,
                                     train_cfg=fast_train())
    return stream, report


def forced_stream():
    """(stream bytes, _PeriodPass) for one 3-frame period whose right block
    column is a forced region, so every frame generates two blocks whatever
    their RD cost."""
    frames = synth_sequence("pan", 96, 64, 3, velocity=(4, 0), seed=9)
    config = SequenceConfig(width=96, height=64, frame_count=3, qp=20,
                            gnn_interval=3, gnn_enabled=True,
                            gnn_arch=(3, 8, 1536))
    ctx = SetContext(cols=3, rows=2, start_frame=0, span=3)
    regions = [[RegionSpec(2, 0, 2, 1, False)] for _ in range(3)]
    qparams, n = train_param_set(frames, 0, regions, ctx,
                                 config.gnn_arch, fast_train(60))
    assert n == 6
    period = _encode_period(frames, 0, regions, qparams, ctx, config,
                            rd_lambda(config.qp), 3, 2)
    w = BitWriter()
    write_header(w, StreamHeader(96, 64, 3, 20, True, 3))
    return w.to_bytes() + period.data, period
