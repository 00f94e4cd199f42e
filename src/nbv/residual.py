"""Transform-coded residuals shared by all three block kinds.

A coding unit decomposes into 24 8x8 tiles (16 luma, 4 Cb, 4 Cr, each group
in raster order). Each tile is transformed with the orthonormal 8x8 DCT-II,
quantized with a uniform scalar step of 2^(qp/6), and entropy coded as
run-level pairs in zigzag order: ue(count), then per nonzero ue(run) and
se(level). block_tiles cuts a coding unit's planes into its tiles and
tile_block puts them back. encode_tiles quantizes source tiles against
basis tiles in floating point, with one float64 product per batch: each
flat tile times FORWARD_BASIS, dct8_forward's two passes with the zigzag
scan folded into its columns, divided by the step on each call. It only
chooses the levels, and the decoder never runs it. The product rounds
otherwise than two 8x8 passes and a division, so where the quotient lies
exactly on a half step a level can land one off the two-stage form's;
flat and row- or column-constant residuals put quotients there only when
the step is a power of two (qp a multiple of 6), and the two-stage
form's ties already differed between BLAS kernels with and without FMA.
encode_block_residual is encode_tiles on planes.

Reconstruction is pure integer arithmetic, in the style of HEVC's core
transform (Budagavi et al., "Core Transform Design in the HEVC Standard",
IEEE JSTSP 2013), so every machine and every memory layout rebuilds the
same pixels: a level times LEVEL_SCALE[qp % 6] << (qp // 6), 2^(qp/6)
with 12 fractional bits, through DCT_INT^T . C . DCT_INT with DCT_INT =
round(DCT_MATRIX * 2^14), then one shift of 40 that rounds half away
from zero. residual_tiles folds the zigzag scan and both passes into one
integer basis, RECON_BASIS, and runs one exact float64 matrix product of
the raw levels, then the scale and the shift as one exact float64
multiply and a rounding, on the tiles that hold a nonzero level only, as
HEVC's coded-block flags let a decoder skip empty transform blocks. A
rebuilt sample is the basis sample plus the residual, clipped to 0..255:
rebuild_tiles does that in tile layout for the encoder, add_residual on
residual_planes' planes for the decoder. The encoder and decoder share
that arithmetic, so there is no drift. The precision was measured
against the float reconstruction, each level times 2^(qp/6) and then
dct8_inverse (the tests keep that float dequantizer as their oracle):
with a 12-bit basis, 20,000 random legal tiles moved pixels by 2 from
the float result, with 13 or 14 bits by at most 1 (14 bits halves how
often).

Levels are bounded by MAX_LEVEL = 2040, checked when a stream is parsed
(scatter_tiles), so a level fits in int16 and the reconstruction stays in
RECON_BASIS's exact range.

Tiles are coded in bulk, with the same bits as one pair at a time:
tile_codes turns any number of tiles into their code numbers with numpy,
and write_ue_codes writes them. It and coeff_bits take the run-level pairs
from one helper that visits only the nonzero levels, so their cost follows
the coded levels, not the tile count. The frame parser finds the tiles
in a chunk of codes through tile_jumps' composed jumps, a whole block at a
time, and decodes them with one scatter_tiles assignment; frame units are
the only place tiles are written or read.

The block-level functions work on batches: leading axes of the bases
and of the levels pass through. The encoder stacks the RDO candidates of
every block on one anti-diagonal of the frame on one such axis and costs
them all in tile layout, one call each to encode_tiles, block_tiles_bits
and rebuild_tiles, and puts only the winners back into planes; the
decoder builds the residual planes of a whole frame unit in one
residual_planes call, then adds them with add_residual, all inter blocks
at once, all generated blocks at once and the intra blocks in dependency
waves. Every tile meets the same arithmetic whatever the batch, so a
batch gives bitwise the levels, bits and pixels of one call per block;
for encode_tiles' product that rests on BLAS rounding a row alike at any
row count, which the tests check from 24 rows to 9,600.
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

# Flat tile index 8i + j -> scan position z, both passes of dct8_forward
# and the zigzag scan in one matrix: FORWARD_BASIS[8i + j, z] =
# DCT_MATRIX[k, i] * DCT_MATRIX[l, j] with ZIGZAG[z] = 8k + l.
FORWARD_BASIS = np.ascontiguousarray(
    np.einsum("ki,lj->ijkl", DCT_MATRIX, DCT_MATRIX).reshape(64, 64)[:, ZIGZAG])

# Coded length of ue(v) for every value a run or level mapping can produce.
_UE_LEN = ue_lengths(np.arange(1 << 16))


def dct8_forward(tile: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II of one or more 8x8 tiles (leading axes pass
    through). The encoder runs it folded into FORWARD_BASIS instead."""
    return DCT_MATRIX @ np.asarray(tile, dtype=np.float64) @ DCT_MATRIX.T


def dct8_inverse(coeffs: np.ndarray) -> np.ndarray:
    """The exact inverse of dct8_forward, in float64."""
    return DCT_MATRIX.T @ np.asarray(coeffs, dtype=np.float64) @ DCT_MATRIX


def qstep(qp: int) -> float:
    if not 0 <= qp <= 51:
        raise ValueError(f"qp out of range [0, 51]: {qp}")
    return 2.0 ** (qp / 6.0)


# Fixed-point reconstruction: a coefficient carries _SCALE_BITS fractional
# bits once dequantized, and each pass of the basis adds _BASIS_BITS.
_SCALE_BITS = 12
_BASIS_BITS = 14
_SHIFT = _SCALE_BITS + 2 * _BASIS_BITS
DCT_INT = np.round(DCT_MATRIX * (1 << _BASIS_BITS)).astype(np.int64)
# Scan position z -> the residual of a unit level there, unscaled:
# RECON_BASIS[z, 8i + j] = DCT_INT[k, i] * DCT_INT[l, j] with ZIGZAG[z] = 8k + l.
RECON_BASIS = np.einsum("ki,lj->klij", DCT_INT, DCT_INT).reshape(64, 64)[ZIGZAG]
_BASIS_FLOAT = RECON_BASIS.astype(np.float64)
# 2^(k/6) with _SCALE_BITS fractional bits, as HEVC's levelScale.
LEVEL_SCALE = np.round(2.0 ** (np.arange(6) / 6 + _SCALE_BITS)).astype(np.int64)
# The largest |level| a residual in [-255, 255] quantizes to; see scatter_tiles.
MAX_LEVEL = 2040
# Tiles per matrix product in residual_tiles: 256 tiles keep each
# temporary at 128 KiB, in cache.
_RECON_CHUNK = 256


def _pairs(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The run-level pairs of (n, 64) tiles in stream order: each pair's
    tile index, the zero run before it and its level's se code number.

    Only the nonzero levels are visited: their flat indices come tile by
    tile in scan order, so a pair's run is the gap back to the previous
    pair's scan position, or to -1 at the first pair of a tile. (A flat
    index split with >> 6 and & 63 costs a fraction of np.nonzero's
    2-D form on int levels.)
    """
    values = flat.reshape(-1)
    at = np.flatnonzero(values != 0)
    tile, scan = at >> 6, at & 63
    prev = np.empty_like(scan)
    prev[:1] = -1
    prev[1:] = np.where(tile[1:] == tile[:-1], scan[:-1], -1)
    return tile, scan - prev - 1, se_to_ue(values[at].astype(np.int64))


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
    least 1. With the bound, a level fits in int16, and residual_tiles'
    sums stay exact (see there).
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


def _block_planes(block: Block32):
    return (block.y, block.cb, block.cr)


def block_tiles(block: Block32) -> np.ndarray:
    """Coding units' planes as their 24 tiles in coding order, (..., 24, 8, 8):
    the 16 luma tiles, then 4 Cb and 4 Cr, each group in raster order."""
    tiles = []
    for plane in _block_planes(block):
        *lead, h, w = plane.shape
        tiles.append(plane.reshape(*lead, h // _N, _N, w // _N, _N)
                     .swapaxes(-3, -2).reshape(*lead, -1, _N, _N))
    return np.concatenate(tiles, axis=-3)


def tile_block(tiles: np.ndarray) -> Block32:
    """block_tiles' inverse: (..., 24, 8, 8) tiles back to coding units' planes."""
    lead = tiles.shape[:-3]
    planes = []
    offset = 0
    for size in (BLOCK, CHROMA_BLOCK, CHROMA_BLOCK):
        m = size // _N
        planes.append(tiles[..., offset:offset + m * m, :, :]
                      .reshape(*lead, m, m, _N, _N).swapaxes(-3, -2).reshape(*lead, size, size))
        offset += m * m
    return Block32(*planes)


def encode_tiles(source: np.ndarray, basis: np.ndarray, qp: int) -> np.ndarray:
    """Quantized residual levels of uint8 source tiles against uint8 basis
    tiles, (..., 24, 8, 8) each (leading axes broadcast), in zigzag order,
    (..., 24, 64) int16.

    The difference is taken in int16, where it is exact. Each flat tile
    then meets one float64 product with FORWARD_BASIS / qstep(qp), the
    transform, the scan and the division by the step at once, and the
    result is rounded half away from zero. The levels lie within
    +-MAX_LEVEL (see scatter_tiles), so int16 holds them. The product
    rounds otherwise than the two 8x8 passes and a division: where the
    quotient lies on a half step, which a flat or row- or column-constant
    residual puts there only when the step is a power of two (qp a
    multiple of 6), a level can land one off the two-stage form's.
    """
    d = np.subtract(source, basis, dtype=np.int16)
    x = d.reshape(-1, 64).astype(np.float64) @ (FORWARD_BASIS / qstep(qp))
    return round_half_away(x, out=x).astype(np.int16).reshape(d.shape[:-2] + (64,))


def encode_block_residual(source: Block32, basis: Block32, qp: int) -> np.ndarray:
    """encode_tiles of coding units' planes, (..., 24, 64).

    The basis planes may carry leading candidate axes, (..., 32, 32) and
    (..., 16, 16); they pass through to the levels, so one call costs all of
    a block's candidates against the same source.
    """
    return encode_tiles(block_tiles(source), block_tiles(basis), qp)


def residual_tiles(levels: np.ndarray, qp: int) -> np.ndarray:
    """The int16 residual tiles of coding units' levels, (..., 24, 64) ->
    (..., 24, 8, 8), in block_tiles' layout.

    A tile's residual is its levels times RECON_BASIS, times the level
    scale, shifted right by 40 with halves away from zero: the scan order
    and both passes of DCT_INT^T . C . DCT_INT in one matrix product. The
    product runs in float64 and is exact in any summation order: every
    column of |RECON_BASIS| sums to at most 43,284^2 < 1.9e9, so with
    |level| <= MAX_LEVEL every partial sum is an integer x below 2^42.
    The scale and shift are one float64 multiply, by LEVEL_SCALE[qp % 6]
    times 2^(qp // 6 - 40), a power of two times an integer below 2^13:
    while |x| * LEVEL_SCALE < 2^53 the result v is exact, and beyond that
    |v| >= 2^13, which the clip to +-255 maps exactly even after a
    relative error of 2^-53. A v under 2^12 in size is a multiple of 2^-40, so
    round_half_away's v +- 0.5 is exact too: the result is the integer
    form's floor((x * scale + 2^39 - (x < 0)) / 2^40) to the bit.

    Only tiles with a nonzero level are transformed, _RECON_CHUNK at a
    time, so the work follows the coded levels and the temporaries stay
    the same size whatever the batch; an empty tile's residual is exactly
    0. Residuals are clipped to +-255, which the clip of a rebuilt sample
    to 0..255 makes exact for any uint8 basis.
    """
    levels = np.asarray(levels)
    if levels.shape[-2:] != (TILES_PER_BLOCK, 64):
        raise ValueError(f"expected {TILES_PER_BLOCK} tiles of 64 levels, "
                         f"got shape {levels.shape}")
    qstep(qp)  # range check, also when no tile is coded
    scale = float(LEVEL_SCALE[qp % 6]) * 2.0 ** (qp // 6 - _SHIFT)
    flat = levels.reshape(-1, 64)
    tiles = np.zeros(flat.shape, dtype=np.int16)
    coded = np.flatnonzero(flat.any(axis=1))
    for lo in range(0, len(coded), _RECON_CHUNK):
        at = coded[lo:lo + _RECON_CHUNK]
        x = flat[at].astype(np.float64) @ _BASIS_FLOAT
        x *= scale
        tiles[at] = np.clip(round_half_away(x, out=x), -255, 255, out=x)
    return tiles.reshape(levels.shape[:-1] + (_N, _N))


def residual_planes(levels: np.ndarray, qp: int) -> Block32:
    """residual_tiles as planes, (..., 32, 32), (..., 16, 16) and
    (..., 16, 16) int16, for add_residual."""
    return tile_block(residual_tiles(levels, qp))


def _rebuild(basis: np.ndarray, residual: np.ndarray) -> np.ndarray:
    total = basis + residual  # int16: -255..510
    return np.clip(total, 0, 255, out=total).astype(np.uint8)


def add_residual(basis: Block32, planes: Block32) -> Block32:
    """Coding units rebuilt from their uint8 bases and residual_planes'
    planes: the sum, clipped to 0..255. Leading axes broadcast."""
    return Block32(*(_rebuild(bas, res)
                     for bas, res in zip(_block_planes(basis), _block_planes(planes))))


def rebuild_tiles(basis: np.ndarray, levels: np.ndarray, qp: int) -> np.ndarray:
    """Coding units rebuilt in tile layout from their uint8 basis tiles,
    (..., 24, 8, 8), and coded levels, (..., 24, 64): add_residual's sum and
    clip on residual_tiles, so every sample is the decoder's."""
    return _rebuild(basis, residual_tiles(levels, qp))


def block_tiles_bits(tiles: np.ndarray) -> np.ndarray:
    """Exact coded size of each block's 24 tiles, (..., 24, 64) -> (...);
    equals what write_frame spends on their tile_codes."""
    return coeff_bits(tiles).sum(axis=-1)
