"""Transform-coded residuals shared by all three block kinds.

A coding unit decomposes into 24 8x8 tiles (16 luma, 4 Cb, 4 Cr, each group
in raster order). Each tile is transformed with the orthonormal 8x8 DCT-II,
quantized with a uniform scalar step of 2^(qp/6), and entropy coded as
run-level pairs in zigzag order: ue(count), then per nonzero ue(run) and
se(level). encode_block_residual quantizes a block's tiles through
dct8_forward and quantize, in floating point: they only choose the levels,
and the decoder never runs them.

Reconstruction is pure integer arithmetic, in the style of HEVC's core
transform (Budagavi et al., "Core Transform Design in the HEVC Standard",
IEEE JSTSP 2013), so every machine and every memory layout rebuilds the
same pixels. dequantize_int scales a level by LEVEL_SCALE[qp % 6] <<
(qp // 6), 2^(qp/6) with 12 fractional bits; dct8_inverse_int computes
DCT_INT^T . C . DCT_INT exactly, with DCT_INT = round(DCT_MATRIX * 2^14),
in float64 passes on integers too small to round, and brings the result
back to pixels with one int64 shift of 40 that rounds half away from zero.
residual_planes runs the two on the tiles that hold a nonzero level only,
as HEVC's coded-block flags let a decoder skip empty transform blocks: an
empty tile's residual is exactly 0. add_residual adds
the planes to the integer basis and clips to 0..255, and
apply_block_residual is the two steps in one call. The encoder and decoder
share that arithmetic, so there is no drift. The precision was measured
against the float pair: with a 12-bit basis, 20,000 random legal tiles
moved pixels by 2 from the float result, with 13 or 14 bits by at most 1
(14 bits halves how often). dequantize and dct8_inverse, in float64, stay
only as the reference the integer path is tested against.

Levels are bounded by MAX_LEVEL = 2040, checked when a stream is parsed
(scatter_tiles), so a level fits in int16 and the reconstruction stays in
dct8_inverse_int's exact range.

Tiles are coded in bulk, with the same bits as one pair at a time:
tile_codes turns any number of tiles into their code numbers with numpy,
and write_ue_codes writes them. It and coeff_bits take the run-level pairs
from one helper that visits only the nonzero levels, so their cost follows
the coded levels, not the tile count. The frame parser finds the tiles
in a chunk of codes through tile_jumps' composed jumps, a whole block at a
time, and decodes them with one scatter_tiles assignment; frame units are
the only place tiles are written or read.

Like dct8_forward, the block-level functions work on batches: leading axes
of the basis planes and of the levels pass through. The encoder stacks the
RDO candidates of every block on one anti-diagonal of the frame on one
such axis and costs them all in one call to encode_block_residual,
block_tiles_bits and apply_block_residual; the decoder builds the residual
planes of a whole frame unit in one residual_planes call, then adds them
with add_residual, all inter blocks at once, all generated blocks at once
and the intra blocks in dependency waves. Every tile meets the same
arithmetic whatever the batch, so a batch gives bitwise the levels, bits
and pixels of one call per block.
"""

from __future__ import annotations

import numpy as np

from .core import BLOCK, CHROMA_BLOCK, Block32, round_half_away
from .entropy import StreamError, se_to_ue, ue_lengths, ue_to_se

_N = 8
TILES_PER_BLOCK = 16 + 4 + 4


def _dct_matrix() -> np.ndarray:
    k = np.arange(_N)[:, None].astype(np.float64)
    n = np.arange(_N)[None, :].astype(np.float64)
    m = np.cos(np.pi * (2.0 * n + 1.0) * k / (2.0 * _N))
    m[0] *= np.sqrt(1.0 / _N)
    m[1:] *= np.sqrt(2.0 / _N)
    return m


DCT_MATRIX = _dct_matrix()

# Scan position -> flat tile index, the usual 8x8 zigzag.
ZIGZAG = np.array([
    0, 1, 8, 16, 9, 2, 3, 10,
    17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34,
    27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36,
    29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46,
    53, 60, 61, 54, 47, 55, 62, 63,
], dtype=np.int64)

# Tile index -> scan position, the inverse of ZIGZAG.
_UNZIGZAG = np.argsort(ZIGZAG)

# Coded length of ue(v) for every value a run or level mapping can produce.
_UE_LEN = ue_lengths(np.arange(1 << 16))


def dct8_forward(tile: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II of one or more 8x8 tiles (leading axes pass through)."""
    return DCT_MATRIX @ np.asarray(tile, dtype=np.float64) @ DCT_MATRIX.T


def dct8_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Float reference for dct8_inverse_int: the exact inverse of dct8_forward."""
    return DCT_MATRIX.T @ np.asarray(coeffs, dtype=np.float64) @ DCT_MATRIX


def qstep(qp: int) -> float:
    if not 0 <= qp <= 51:
        raise ValueError(f"qp out of range [0, 51]: {qp}")
    return 2.0 ** (qp / 6.0)


def quantize(coeffs: np.ndarray, qp: int) -> np.ndarray:
    """Quantize 8x8 coefficient tiles, shape (..., 8, 8), to integer levels
    in zigzag order, shape (..., 64)."""
    step = qstep(qp)
    c = np.asarray(coeffs, np.float64)
    flat = round_half_away(c.reshape(c.shape[:-2] + (64,)) / step)
    return flat.astype(np.int32)[..., ZIGZAG]


def dequantize(levels: np.ndarray, qp: int) -> np.ndarray:
    """Float reference for dequantize_int: zigzag levels (..., 64) back to
    coefficient tiles (..., 8, 8)."""
    lv = np.asarray(levels, np.float64)[..., _UNZIGZAG]
    return lv.reshape(lv.shape[:-1] + (_N, _N)) * qstep(qp)


# Fixed-point reconstruction: a coefficient carries _SCALE_BITS fractional
# bits after dequantize_int, and each pass of the basis adds _BASIS_BITS.
_SCALE_BITS = 12
_BASIS_BITS = 14
_SHIFT = _SCALE_BITS + 2 * _BASIS_BITS
DCT_INT = np.round(DCT_MATRIX * (1 << _BASIS_BITS)).astype(np.int64)
_DCT_FLOAT = DCT_INT.astype(np.float64)
_DCT_FLOAT_T = np.ascontiguousarray(_DCT_FLOAT.T)
# 2^(k/6) with _SCALE_BITS fractional bits, as HEVC's levelScale.
LEVEL_SCALE = np.round(2.0 ** (np.arange(6) / 6 + _SCALE_BITS)).astype(np.int64)
# The largest |level| a residual in [-255, 255] quantizes to; see scatter_tiles.
MAX_LEVEL = 2040
# Tiles per inverse-transform pass in residual_planes: 1024 tiles keep each
# int64 temporary at 512 KiB.
_RECON_CHUNK = 1024


def dequantize_int(levels: np.ndarray, qp: int) -> np.ndarray:
    """Zigzag levels (..., 64) to int64 coefficient tiles (..., 8, 8),
    level * 2^(qp/6) with _SCALE_BITS fractional bits."""
    qstep(qp)  # range check
    scale = int(LEVEL_SCALE[qp % 6]) << (qp // 6)
    lv = np.asarray(levels, np.int64)[..., _UNZIGZAG] * scale
    return lv.reshape(lv.shape[:-1] + (_N, _N))


def dct8_inverse_int(coeffs: np.ndarray) -> np.ndarray:
    """Integer inverse DCT of dequantize_int's tiles, rounded half away from
    zero to whole pixels (int64): DCT_INT^T . C . DCT_INT >> _SHIFT.

    numpy runs int64 matrix products without BLAS, so both passes run in
    float64 on integers small enough to be exact in any summation order.
    Each DCT_INT column sums to at most 43,284 < 2^16 in absolute value.
    For |C| < 2^32 (scatter_tiles bounds a legal one below 3.1e9), pass 1's
    sums t stay below 2^48. Pass 2 takes them split in 24-bit halves,
    t >> 24 = floor(t / 2^24) and t & 0xFFFFFF = t - 2^24 (t >> 24), each
    below 2^24 in absolute value, so its two products stay below 2^40;
    they are joined in int64, below 2^32 * 43,284^2 < 2^63. Every partial
    sum is an integer below 2^53, so the result equals the int64 products
    bit for bit on any machine.
    """
    t = _DCT_FLOAT_T @ np.asarray(coeffs, np.float64)
    high = np.floor(t * 2.0 ** -24)
    t -= high * 2.0 ** 24
    x = (high @ _DCT_FLOAT).astype(np.int64)
    x <<= 24
    x += (t @ _DCT_FLOAT).astype(np.int64)
    # floor((x + 2^(s-1)) / 2^s) rounds halves up; one less for x < 0 rounds
    # them down, so halves go away from zero
    x += (1 << (_SHIFT - 1)) - (x < 0)
    x >>= _SHIFT
    return x


def _pairs(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The run-level pairs of (n, 64) tiles in stream order: each pair's
    tile index, the zero run before it and its level's se code number.

    Only the nonzero levels are visited: np.nonzero lists them tile by
    tile in scan order, so a pair's run is the gap back to the previous
    pair's scan position, or to -1 at the first pair of a tile.
    """
    tile, scan = np.nonzero(flat)
    prev = np.empty_like(scan)
    prev[:1] = -1
    prev[1:] = np.where(tile[1:] == tile[:-1], scan[:-1], -1)
    return tile, scan - prev - 1, se_to_ue(flat[tile, scan].astype(np.int64))


def coeff_bits(levels: np.ndarray) -> np.ndarray:
    """Exact coded size of each tile's levels, shape (..., 64) -> (...),
    without writing them. Equals the ue lengths of tile_codes' codes."""
    lv = np.asarray(levels)
    flat = lv.reshape(-1, 64)
    tile, run, code = _pairs(flat)
    n = len(flat)
    bits = _UE_LEN[np.bincount(tile, minlength=n)]
    pair_bits = np.bincount(tile, weights=_UE_LEN[run] + _UE_LEN[code], minlength=n)
    bits += pair_bits.astype(np.int64)
    return bits.reshape(lv.shape[:-1])


def tile_codes(levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ue code numbers of (..., 64) tiles in stream order, and each
    tile's nonzero count, shape (...).

    A tile is ue(count), then per nonzero in scan order ue(run) and
    se(level).
    """
    lv = np.asarray(levels)
    flat = lv.reshape(-1, 64)
    tile, run, code = _pairs(flat)
    counts = np.bincount(tile, minlength=len(flat))
    # tile t opens after t counts and 2 * (pairs before it) pair codes, so
    # pair p, in tile t, starts at code t + 1 + 2p
    out = np.empty(len(counts) + 2 * len(tile), dtype=np.int64)
    out[np.arange(len(counts)) + 2 * (np.cumsum(counts) - counts)] = counts
    at = tile + 1 + 2 * np.arange(len(tile))
    out[at] = run
    out[at + 1] = code
    return out, counts.reshape(lv.shape[:-1])


def tile_jumps(values: np.ndarray) -> np.ndarray:
    """Jump tables over a chunk of n code values: where the tiles that start
    at a count code end.

    Row j of the (6, n + 2) result maps the index k of a count code to the
    index after the 2^j tiles that start at k (j = 0..4), and the last row
    to the index after TILES_PER_BLOCK tiles, a whole block. A tile that
    starts at k ends at k + 1 + 2 values[k]. An entry is n + 1 where one
    of those tiles has a count beyond 64 or runs past the n codes; indices
    n and n + 1 map to n + 1, so the rows compose as index arrays.
    """
    n = len(values)
    jumps = np.empty((6, n + 2), dtype=np.int64)
    one = jumps[0]
    np.multiply(values, 2, out=one[:n])
    one[:n] += np.arange(1, n + 1)
    one[:n][values > 64] = n + 1
    np.minimum(one, n + 1, out=one)
    one[n:] = n + 1
    for j in range(1, 5):
        jumps[j] = jumps[j - 1][jumps[j - 1]]
    jumps[5] = jumps[4][jumps[3]]  # 8 tiles, then 16
    return jumps


def block_tile_starts(jumps: np.ndarray, firsts: np.ndarray) -> np.ndarray:
    """The count-code index of each of the TILES_PER_BLOCK tiles of blocks
    whose first tile starts at firsts, in stream order, from tile_jumps'
    tables; every block must be whole."""
    starts = np.empty((len(firsts), TILES_PER_BLOCK), dtype=np.int64)
    starts[:, 0] = firsts
    starts[:, 1] = jumps[0][firsts]
    for j, width in ((1, 2), (2, 4), (3, 8)):
        starts[:, width:2 * width] = jumps[j][starts[:, :width]]
    starts[:, 16:] = jumps[4][starts[:, :8]]
    return starts.reshape(-1)


def scatter_tiles(values: np.ndarray, starts: np.ndarray, out: np.ndarray) -> None:
    """Decode whole tiles into out, zeroed (len(starts), 64) levels, with one
    assignment; starts holds each tile's count-code index in values, in
    stream order, and every count is at most 64.

    A run past the tile's end, a zero level and a level beyond +-MAX_LEVEL
    are StreamErrors; the first faulty pair in stream order names the
    error, its run before its level. MAX_LEVEL = 2040 is the largest level
    the encoder produces: a residual in [-255, 255] has a DC of at most
    8 * 255, every AC term is bounded by 255 * (sqrt 8)^2 as well
    (Cauchy-Schwarz on each orthonormal basis row), and the step is at
    least 1. With the bound, a dequantized coefficient is at most
    2040 * (5793 << 8) < 2^32 (qp 51 has the largest scale), inside
    dct8_inverse_int's exact range, and a level fits in int16.
    """
    if not len(starts):
        return
    starts = np.asarray(starts)
    counts = values[starts]
    tile = np.repeat(np.arange(len(starts)), counts)
    first = np.cumsum(counts) - counts  # index of each tile's first pair
    at = starts[tile] + 1 + 2 * (np.arange(len(tile)) - first[tile])
    codes = values[at + 1]
    # positions run on from each tile's start: a cumulative sum of run + 1
    steps = np.cumsum(values[at] + 1)
    pos = steps - np.concatenate(([0], steps))[first][tile] - 1
    overflow = pos > 63
    zero = codes == 0
    beyond = codes > 2 * MAX_LEVEL  # se code 2 * MAX_LEVEL is -MAX_LEVEL
    bad = np.flatnonzero(overflow | zero | beyond)
    if len(bad):
        if overflow[bad[0]]:
            raise StreamError("coefficient run overflows tile")
        if zero[bad[0]]:
            raise StreamError("zero level in run-level pair")
        raise StreamError(f"coefficient level beyond +-{MAX_LEVEL}")
    out[tile, pos] = ue_to_se(codes)


def _plane_tiles(plane: np.ndarray) -> np.ndarray:
    """View (..., 8m, 8n) planes as (..., m*n, 8, 8) tiles in raster order."""
    *lead, h, w = plane.shape
    return (plane.reshape(*lead, h // _N, _N, w // _N, _N)
            .swapaxes(-3, -2)
            .reshape(*lead, -1, _N, _N))


def _tiles_to_plane(tiles: np.ndarray, h: int, w: int) -> np.ndarray:
    lead = tiles.shape[:-3]
    return (tiles.reshape(*lead, h // _N, w // _N, _N, _N)
            .swapaxes(-3, -2)
            .reshape(*lead, h, w))


def _block_planes(block: Block32):
    return (block.y, block.cb, block.cr)


def encode_block_residual(source: Block32, basis: Block32, qp: int) -> np.ndarray:
    """Quantized residual levels of all 24 tiles in zigzag order, (..., 24, 64).

    The basis planes may carry leading candidate axes, (..., 32, 32) and
    (..., 16, 16); they pass through to the levels, so one call costs all of
    a block's candidates against the same source.
    """
    tiles = np.concatenate([
        _plane_tiles(src.astype(np.int32) - bas.astype(np.int32))
        for src, bas in zip(_block_planes(source), _block_planes(basis))
    ], axis=-3)
    return quantize(dct8_forward(tiles), qp)


def residual_planes(levels: np.ndarray, qp: int) -> Block32:
    """The int16 residual planes of coding units' levels, (..., 24, 64) ->
    planes (..., 32, 32), (..., 16, 16) and (..., 16, 16).

    Only tiles with a nonzero level are dequantized and inverse
    transformed, _RECON_CHUNK at a time, so the work follows the coded
    levels and the int64 temporaries stay the same size whatever the
    batch; an empty tile's residual is exactly 0. Residuals are clipped to
    +-255, which add_residual's clip to 0..255 makes exact for any uint8
    basis.
    """
    levels = np.asarray(levels)
    if levels.shape[-2:] != (TILES_PER_BLOCK, 64):
        raise ValueError(f"expected {TILES_PER_BLOCK} tiles of 64 levels, "
                         f"got shape {levels.shape}")
    qstep(qp)  # range check, also when no tile is coded
    flat = levels.reshape(-1, 64)
    tiles = np.zeros((len(flat), _N, _N), dtype=np.int16)
    coded = np.flatnonzero(flat.any(axis=1))
    for lo in range(0, len(coded), _RECON_CHUNK):
        at = coded[lo:lo + _RECON_CHUNK]
        tiles[at] = np.clip(dct8_inverse_int(dequantize_int(flat[at], qp)), -255, 255)
    tiles = tiles.reshape(levels.shape[:-1] + (_N, _N))
    planes = []
    offset = 0
    for size in (BLOCK, CHROMA_BLOCK, CHROMA_BLOCK):
        n = (size // _N) ** 2
        planes.append(_tiles_to_plane(tiles[..., offset:offset + n, :, :], size, size))
        offset += n
    return Block32(*planes)


def add_residual(basis: Block32, planes: Block32) -> Block32:
    """Coding units rebuilt from their uint8 bases and residual_planes'
    planes: the sum, clipped to 0..255. Leading axes broadcast."""
    out = []
    for bas, res in zip(_block_planes(basis), _block_planes(planes)):
        total = bas + res  # int16: -255..510
        np.maximum(total, 0, out=total)
        out.append(np.minimum(total, 255, out=total).astype(np.uint8))
    return Block32(*out)


def apply_block_residual(basis: Block32, levels: np.ndarray, qp: int) -> Block32:
    """Reconstruct coding units from their bases and coded residual levels.

    levels is (..., 24, 64) and its leading axes match the basis planes',
    as encode_block_residual returns them. It is add_residual over
    residual_planes, the decoder's two steps in one call, so the encoder's
    candidates are rebuilt with the decoder's arithmetic.
    """
    return add_residual(basis, residual_planes(levels, qp))


def block_tiles_bits(tiles: np.ndarray) -> np.ndarray:
    """Exact coded size of each block's 24 tiles, (..., 24, 64) -> (...);
    equals what write_frame spends on their tile_codes."""
    return coeff_bits(tiles).sum(axis=-1)
