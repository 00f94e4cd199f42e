"""Shared fixtures: small deterministic sequences, one cached encode,
frame units built by hand, tiles included, the block-by-block frame code
and rebuild the diagonal encoder and batched decoder are checked against,
the tile-by-tile payload reader the frame parser is checked against, the
plane-layout rebuild the encoder's tile-layout costing is checked against,
the two-stage quantizer the folded forward product is checked against,
and the float and plain integer dequantizers the reconstruction is held to.

Session scope keeps the expensive pieces (synthesis, training, encoding)
to a single run; every test that needs them must treat them as read-only.
"""

import numpy as np
import pytest
from hypothesis import strategies as st

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
    round_half_away,
)
from nbv.encoder import (
    _encode_period,
    encode_sequence,
    rd_lambda,
    train_param_set,
)
from nbv.entropy import (
    BitReader,
    BitWriter,
    StreamError,
    UeChunk,
    ue_encode,
    ue_to_se,
    write_ue_codes,
)
from nbv.gnn import SetContext, TrainConfig, generate_block
from nbv.prediction import IntraMode, MotionVector, intra_predict, motion_field
from nbv.residual import (
    DCT_INT,
    LEVEL_SCALE,
    MAX_LEVEL,
    TILES_PER_BLOCK,
    ZIGZAG,
    add_residual,
    block_tiles_bits,
    encode_block_residual,
    qstep,
    residual_planes,
    tile_codes,
)
from nbv.tools import synth_sequence


def apply_block_residual(basis: Block32, levels: np.ndarray, qp: int) -> Block32:
    """Coding units rebuilt in plane layout from their bases and levels, as
    encode_block_residual returns them: add_residual over residual_planes,
    the decoder's two steps in one call."""
    return add_residual(basis, residual_planes(levels, qp))


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


def random_unit(rng, frame_type, cols, rows, regions):
    """A legal frame unit: forced blocks generate, selectable ones may,
    inter blocks (P only) come in runs with differences up to +-64, and
    each block's levels run from empty to dense, up to +-MAX_LEVEL."""
    kinds = region_map(regions, cols, rows).reshape(-1).tolist()
    coded = [BlockMode.INTRA_DC, BlockMode.INTRA_H, BlockMode.INTRA_V]
    if frame_type == "P":
        coded = [BlockMode.INTER] * 3 + coded
    modes = np.array([BlockMode.GEN if kind == FORCED else rng.choice(
        coded + [BlockMode.GEN] * 2 * (kind == SELECTABLE)) for kind in kinds],
        dtype=np.int8).reshape(rows, cols)
    mvds = rng.integers(-64, 65, (rows, cols, 2)).astype(np.int32)
    mvds[modes != BlockMode.INTER] = 0
    n = rows * cols
    density = rng.choice([0.0, 0.01, 0.2, 1.0], (n, 1, 1))
    peak = rng.choice([1, 9, MAX_LEVEL], (n, 1, 1))
    levels = rng.integers(-peak, peak + 1, (n, 24, 64))
    levels[rng.random((n, 24, 64)) >= density] = 0
    return FrameUnit(frame_type, list(regions), modes, mvds, levels.astype(np.int32))


def mutate(data: bytes, draw) -> bytes:
    """1-3 bit flips anywhere in the stream, or a truncation."""
    if draw(st.booleans()):
        return data[:draw(st.integers(0, len(data) - 1))]
    out = bytearray(data)
    for bit in draw(st.lists(st.integers(0, 8 * len(data) - 1),
                             min_size=1, max_size=3, unique=True)):
        out[bit // 8] ^= 0x80 >> (bit % 8)
    return bytes(out)


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


# The frame payload reader as it was before tiles were walked in numpy:
# windows of codes found by pointer doubling over every bit, ramping from
# 2^8 to 2^16 bits and peeked again from the first unused code, and one
# Python step per block and per tile. Each tile's pairs are checked and
# decoded one at a time, so the first fault in stream order names the
# error.

def peek_ue_codes_oracle(r: BitReader, max_bits: int) -> UeChunk:
    """The ue codes wholly in r's next max_bits bits, by pointer doubling."""
    pos = r.bit_position
    first, skew = pos >> 3, pos & 7
    stop = min(len(r._data), first + (skew + max_bits + 7) // 8)
    size = stop - first
    n = 8 * size
    raw = np.zeros(size + 8, dtype=np.uint8)
    raw[:size] = np.frombuffer(r._data, dtype=np.uint8, count=size, offset=first)
    at = np.arange(n)
    # the next 1 bit from every position; a code starting at p has
    # nxt[p] - p zeros and ends at 2 nxt[p] - p + 1
    ones = np.where(np.unpackbits(raw[:size]).view(bool), at, n)
    nxt = np.minimum.accumulate(ones[::-1])[::-1]
    jump = np.empty(n + 1, dtype=np.int64)
    np.subtract(2 * nxt, at - 1, out=jump[:n])
    np.minimum(jump, n, out=jump)
    jump[n] = n
    starts = np.array([skew])
    while True:
        starts = np.concatenate((starts, jump[starts]))
        if starts[-1] >= n:
            break
        jump = jump[jump]
    starts = starts[:np.searchsorted(starts, n)]
    lead = nxt[starts]
    zeros = lead - starts
    ends = lead + zeros + 1
    error = None
    bad = np.flatnonzero((zeros > 31) | (ends > n))
    if len(bad):
        if zeros[bad[0]] > 31:
            error = "malformed exp-Golomb prefix"
        lead, zeros, ends = lead[:bad[0]], zeros[:bad[0]], ends[:bad[0]]
    if error is None and stop == len(r._data):
        error = "read past end of stream"
    windows = np.ndarray((size + 1,), dtype=">u8", buffer=raw, strides=(1,))
    values = ((windows[lead >> 3] << (lead & 7).astype(np.uint64))
              >> (63 - zeros).astype(np.uint64)).astype(np.int64) - 1
    return UeChunk(values, ends - skew, error)


def read_ue_codes_oracle(r: BitReader, walk) -> None:
    """read_ue_codes' contract with windows of 2^8 to 2^16 bits, each
    peeked from the first code the walk did not use."""
    size = 1 << 8
    while True:
        chunk = peek_ue_codes_oracle(r, size)
        used, done = walk(chunk)
        if used:
            r.skip(int(chunk.ends[used - 1]))
        if done:
            return
        if chunk.error is not None:
            raise StreamError(chunk.error)
        if not used and size == 1 << 16:
            raise StreamError("syntax item longer than the chunk cap")
        size = min(2 * size, 1 << 16)


def walk_tiles_oracle(values: list, k: int, n: int, rows: list) -> int:
    """Step over up to n whole tiles of the code values from index k,
    checking and decoding each pair; appends each tile's levels to rows and
    returns the index after the last whole tile."""
    end = len(values)
    for _ in range(n):
        if k >= end:
            break
        count = values[k]
        if count > 64:
            raise StreamError(f"coefficient count {count} exceeds tile size")
        stop = k + 1 + 2 * count
        if stop > end:
            break
        levels = np.zeros(64, dtype=np.int64)
        pos = -1
        for run, code in zip(values[k + 1:stop:2], values[k + 2:stop:2]):
            pos += run + 1
            if pos > 63:
                raise StreamError("coefficient run overflows tile")
            if code == 0:
                raise StreamError("zero level in run-level pair")
            if code > 2 * MAX_LEVEL:
                raise StreamError(f"coefficient level beyond +-{MAX_LEVEL}")
            levels[pos] = ue_to_se(code)
        rows.append(levels)
        k = stop
    return k


def read_payloads_oracle(r: BitReader, fu: FrameUnit, bits) -> None:
    """bitstream._read_payloads one Python step per block and per tile."""
    modes = fu.modes.reshape(-1)
    mvds = fu.mvds.reshape(-1, 2)
    tile_rows = fu.blocks.reshape(-1, 64)
    generated = (modes == BlockMode.GEN).tolist()
    first_mode = int(fu.frame_type == "I")
    begun = 0
    tiles_left = 0

    def walk(chunk):
        nonlocal begun, tiles_left
        values = chunk.values.tolist()
        k = 0
        first_row = begun * TILES_PER_BLOCK - tiles_left
        rows: list = []
        head_codes: list[int] = []
        mv_codes: list[int] = []
        while True:
            if not tiles_left:
                if begun == len(generated):
                    break
                if not generated[begun]:
                    if k >= len(values):
                        break
                    mode = first_mode + values[k]
                    if mode >= BlockMode.GEN:
                        raise StreamError(
                            f"bad {fu.frame_type}-frame mode symbol {values[k]}")
                    if mode == BlockMode.INTER:
                        if k + 3 > len(values):
                            break
                        mvds[begun] = ue_to_se(values[k + 1]), ue_to_se(values[k + 2])
                        mv_codes += (k + 1, k + 2)
                    modes[begun] = mode
                    head_codes.append(k)
                    k += 3 if mode == BlockMode.INTER else 1
                begun += 1
                tiles_left = TILES_PER_BLOCK
            before = len(rows)
            k = walk_tiles_oracle(values, k, tiles_left, rows)
            tiles_left -= len(rows) - before
            if tiles_left:
                break
        if rows:
            tile_rows[first_row:first_row + len(rows)] = rows
        lengths = np.diff(chunk.ends, prepend=0)
        mode_bits = int(lengths[head_codes].sum())
        mv_bits = int(lengths[mv_codes].sum())
        bits.modes += mode_bits
        bits.mvs += mv_bits
        bits.residuals += (int(chunk.ends[k - 1]) if k else 0) - mode_bits - mv_bits
        return k, begun == len(generated) and not tiles_left

    read_ue_codes_oracle(r, walk)


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


# Tile index -> scan position, the inverse of ZIGZAG.
UNZIGZAG = np.argsort(ZIGZAG)


def quantize(coeffs: np.ndarray, qp: int) -> np.ndarray:
    """Quantize 8x8 coefficient tiles, shape (..., 8, 8), to integer levels
    in zigzag order, shape (..., 64): the second stage of the two-stage
    forward path, dct8_forward then quantize, that encode_tiles folds into
    one product."""
    step = qstep(qp)
    c = np.asarray(coeffs, np.float64)
    flat = c.reshape(c.shape[:-2] + (64,)) / step
    return round_half_away(flat, out=flat).astype(np.int32)[..., ZIGZAG]


def dequantize(levels: np.ndarray, qp: int) -> np.ndarray:
    """Zigzag levels (..., 64) back to float64 coefficient tiles (..., 8, 8):
    with dct8_inverse, the float reconstruction the integer one is held
    to."""
    lv = np.asarray(levels, np.float64)[..., UNZIGZAG]
    return lv.reshape(lv.shape[:-1] + (8, 8)) * qstep(qp)


def dequantize_int(levels: np.ndarray, qp: int) -> np.ndarray:
    """Zigzag levels (..., 64) to int64 coefficient tiles (..., 8, 8),
    level * 2^(qp/6) with 12 fractional bits."""
    qstep(qp)  # range check
    scale = int(LEVEL_SCALE[qp % 6]) << (qp // 6)
    lv = np.asarray(levels, np.int64)[..., UNZIGZAG] * scale
    return lv.reshape(lv.shape[:-1] + (8, 8))


def dct8_inverse_int64(coeffs: np.ndarray) -> np.ndarray:
    """The integer inverse DCT in its plain form: both matrix products of
    DCT_INT^T . C . DCT_INT in int64, then a shift of 40 that rounds half
    away from zero."""
    x = DCT_INT.T @ np.asarray(coeffs, np.int64) @ DCT_INT
    shift = 40
    return (x + ((1 << (shift - 1)) - (x < 0))) >> shift


def rebuild_block_dense(basis: Block32, tiles: np.ndarray, qp: int) -> Block32:
    """One block rebuilt by inverse transforming every one of its 24 tiles,
    empty or not, and adding the unclipped residual to the basis."""
    res = dct8_inverse_int64(dequantize_int(tiles, qp))
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
        j = (ssd + lam * bits).tolist()
        # the first minimum-cost candidate in BlockMode rank
        i = min(range(len(cands)), key=lambda k: (j[k], cands[k][0]))
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
