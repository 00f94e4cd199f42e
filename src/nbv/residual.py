"""Transform-coded residuals shared by all three block kinds.

A coding unit decomposes into 24 8x8 tiles (16 luma, 4 Cb, 4 Cr, each group
in raster order). Each tile is transformed with the orthonormal 8x8 DCT-II,
quantized with a uniform scalar step of 2^(qp/6), and entropy coded as
run-level pairs in zigzag order. encode_block_residual quantizes a block's
tiles through quantize, and apply_block_residual dequantizes them through
dequantize, adds the residual onto the prediction basis and rounds half
away from zero. The encoder and decoder share that reconstruction path,
so there is no drift.

Like dct8_forward, the block-level functions work on batches: leading axes
of the basis planes and of the levels pass through. The encoder stacks a
block's RDO candidates on one such axis and costs them all in one call to
encode_block_residual, block_tiles_bits and apply_block_residual; the
decoder calls the same functions on one block. Every candidate's tiles
meet the same per-tile arithmetic either way, so a batch gives bitwise the
levels, bits and pixels of one call per candidate.
"""

from __future__ import annotations

import numpy as np

from .core import BLOCK, CHROMA_BLOCK, Block32, round_half_away
from .entropy import (
    BitReader,
    BitWriter,
    StreamError,
    se_decode,
    se_encode,
    ue_decode,
    ue_encode,
)

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

# Coded length of ue(v) for every value a run or level mapping can produce.
_UE_LEN = np.array([2 * (v + 1).bit_length() - 1 for v in range(1 << 16)],
                   dtype=np.int64)


def dct8_forward(tile: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II of one or more 8x8 tiles (leading axes pass through)."""
    t = np.asarray(tile, dtype=np.float64)
    return np.einsum("ij,...jk,lk->...il", DCT_MATRIX, t, DCT_MATRIX)


def dct8_inverse(coeffs: np.ndarray) -> np.ndarray:
    c = np.asarray(coeffs, dtype=np.float64)
    return np.einsum("ji,...jk,kl->...il", DCT_MATRIX, c, DCT_MATRIX)


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
    """Inverse of quantize: zigzag levels (..., 64) back to coefficient
    tiles (..., 8, 8)."""
    step = qstep(qp)
    lv = np.asarray(levels, np.float64)
    # C order on purpose: einsum picks its loop order from the strides, and
    # another order can round dct8_inverse differently.
    flat = np.empty(lv.shape)
    flat[..., ZIGZAG] = lv
    return flat.reshape(lv.shape[:-1] + (_N, _N)) * step


def code_coeffs(w: BitWriter, levels: np.ndarray) -> int:
    """Write one tile's 64 zigzag levels as run-level pairs; returns bits written."""
    start = w.bit_position
    nz = np.nonzero(levels)[0]
    ue_encode(w, len(nz))
    prev = -1
    for idx in nz:
        ue_encode(w, int(idx) - prev - 1)
        se_encode(w, int(levels[idx]))
        prev = int(idx)
    return w.bit_position - start


def _read_coeffs(r: BitReader, levels: np.ndarray) -> None:
    """Read one tile's run-level pairs into 64 zeroed zigzag levels."""
    count = ue_decode(r)
    if count > 64:
        raise StreamError(f"coefficient count {count} exceeds tile size")
    pos = 0
    for _ in range(count):
        pos += ue_decode(r)
        if pos >= 64:
            raise StreamError("coefficient run overflows tile")
        level = se_decode(r)
        if level == 0:
            raise StreamError("zero level in run-level pair")
        levels[pos] = level
        pos += 1


def decode_coeffs(r: BitReader) -> np.ndarray:
    """Read one tile's run-level pairs back to 64 zigzag levels."""
    levels = np.zeros(64, dtype=np.int32)
    _read_coeffs(r, levels)
    return levels


def coeff_bits(levels: np.ndarray) -> np.ndarray:
    """Exact coded size of each tile's levels, shape (..., 64) -> (...),
    without writing them. Equals what code_coeffs emits per tile."""
    lv = np.asarray(levels)
    nz = lv != 0
    scan = np.arange(64)
    # Each nonzero's run is the gap back to the previous nonzero: the
    # running maximum of nonzero positions, shifted one place right.
    last = np.maximum.accumulate(np.where(nz, scan, -1), axis=-1)
    prev = np.concatenate(
        [np.full(lv.shape[:-1] + (1,), -1), last[..., :-1]], axis=-1)
    se_codes = np.where(lv > 0, 2 * lv - 1, -2 * lv)
    pair_bits = np.where(nz, _UE_LEN[scan - prev - 1] + _UE_LEN[se_codes], 0)
    return _UE_LEN[nz.sum(axis=-1)] + pair_bits.sum(axis=-1)


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


def apply_block_residual(basis: Block32, levels: np.ndarray, qp: int) -> Block32:
    """Reconstruct coding units from their bases and coded residual levels.

    levels is (..., 24, 64) and its leading axes match the basis planes',
    as encode_block_residual returns them. This is the single
    reconstruction path used by both the encoder's local loop and the
    decoder, so the two stay bit-identical by construction.
    """
    levels = np.asarray(levels)
    if levels.shape[-2:] != (TILES_PER_BLOCK, 64):
        raise ValueError(f"expected {TILES_PER_BLOCK} tiles of 64 levels, "
                         f"got shape {levels.shape}")
    res = dct8_inverse(dequantize(levels, qp))
    planes = []
    offset = 0
    for bas, size in zip(_block_planes(basis), (BLOCK, CHROMA_BLOCK, CHROMA_BLOCK)):
        n = (size // _N) ** 2
        rplane = _tiles_to_plane(res[..., offset:offset + n, :, :], size, size)
        rec = round_half_away(bas.astype(np.float64) + rplane)
        planes.append(np.clip(rec, 0, 255).astype(np.uint8))
        offset += n
    return Block32(*planes)


def write_block_tiles(w: BitWriter, tiles: np.ndarray) -> int:
    """Write all 24 tiles of one coding unit; returns bits written."""
    start = w.bit_position
    for t in tiles:
        code_coeffs(w, t)
    return w.bit_position - start


def read_block_tiles(r: BitReader) -> np.ndarray:
    """Read all 24 tiles of one coding unit as (24, 64) levels."""
    levels = np.zeros((TILES_PER_BLOCK, 64), dtype=np.int32)
    for row in levels:
        _read_coeffs(r, row)
    return levels


def block_tiles_bits(tiles: np.ndarray) -> np.ndarray:
    """Exact coded size of each block's 24 tiles, (..., 24, 64) -> (...);
    equals what write_block_tiles emits."""
    return coeff_bits(tiles).sum(axis=-1)
