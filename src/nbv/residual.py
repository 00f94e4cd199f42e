"""Transform-coded residuals shared by all three block kinds.

A coding unit decomposes into 24 8x8 tiles (16 luma, 4 Cb, 4 Cr, each group
in raster order). Each tile is transformed with the orthonormal 8x8 DCT-II,
quantized with a uniform scalar step of 2^(qp/6), and entropy coded as
run-level pairs in zigzag order. encode_block_residual quantizes a block's
tiles through quantize, and apply_block_residual dequantizes them through
dequantize, adds the residual onto the prediction basis and rounds half
away from zero. The encoder and decoder share that reconstruction path,
so there is no drift.
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


def decode_coeffs(r: BitReader) -> np.ndarray:
    """Read one tile's run-level pairs back to 64 zigzag levels."""
    count = ue_decode(r)
    if count > 64:
        raise StreamError(f"coefficient count {count} exceeds tile size")
    levels = np.zeros(64, dtype=np.int32)
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
    return levels


def coeff_bits(levels: np.ndarray) -> int:
    """Exact coded size of one tile's levels without writing them."""
    nz = np.nonzero(levels)[0]
    if len(nz) == 0:
        return 1
    runs = np.diff(nz, prepend=-1) - 1
    vals = levels[nz]
    se_codes = np.where(vals > 0, 2 * vals - 1, -2 * vals)
    return int(_UE_LEN[len(nz)] + _UE_LEN[runs].sum() + _UE_LEN[se_codes].sum())


def _plane_tiles(plane: np.ndarray) -> np.ndarray:
    """View an (8m, 8n) plane as (m*n, 8, 8) tiles in raster order."""
    h, w = plane.shape
    return (plane.reshape(h // _N, _N, w // _N, _N)
            .transpose(0, 2, 1, 3)
            .reshape(-1, _N, _N))


def _tiles_to_plane(tiles: np.ndarray, h: int, w: int) -> np.ndarray:
    return (tiles.reshape(h // _N, w // _N, _N, _N)
            .transpose(0, 2, 1, 3)
            .reshape(h, w))


def _block_planes(block: Block32):
    return (block.y, block.cb, block.cr)


def encode_block_residual(source: Block32, basis: Block32, qp: int) -> list[np.ndarray]:
    """Quantized residual levels for all 24 tiles, each 64 values in zigzag order."""
    out: list[np.ndarray] = []
    for src, bas in zip(_block_planes(source), _block_planes(basis)):
        res = src.astype(np.int32) - bas.astype(np.int32)
        zz = quantize(dct8_forward(_plane_tiles(res)), qp)
        out.extend(zz[i] for i in range(zz.shape[0]))
    return out


def apply_block_residual(basis: Block32, tiles: list[np.ndarray], qp: int) -> Block32:
    """Reconstruct a coding unit from its basis and coded residual levels.

    This is the single reconstruction path used by both the encoder's local
    loop and the decoder, so the two stay bit-identical by construction.
    """
    if len(tiles) != TILES_PER_BLOCK:
        raise ValueError(f"expected {TILES_PER_BLOCK} tiles, got {len(tiles)}")
    res = dct8_inverse(dequantize(tiles, qp))
    planes = []
    offset = 0
    for bas, size in ((basis.y, BLOCK), (basis.cb, CHROMA_BLOCK), (basis.cr, CHROMA_BLOCK)):
        n = (size // _N) ** 2
        rplane = _tiles_to_plane(res[offset:offset + n], size, size)
        rec = round_half_away(bas.astype(np.float64) + rplane)
        planes.append(np.clip(rec, 0, 255).astype(np.uint8))
        offset += n
    return Block32(*planes)


def write_block_tiles(w: BitWriter, tiles: list[np.ndarray]) -> int:
    """Write all 24 tiles of one coding unit; returns bits written."""
    start = w.bit_position
    for t in tiles:
        code_coeffs(w, t)
    return w.bit_position - start


def read_block_tiles(r: BitReader) -> list[np.ndarray]:
    return [decode_coeffs(r) for _ in range(TILES_PER_BLOCK)]


def block_tiles_bits(tiles: list[np.ndarray]) -> int:
    """Exact coded size of all 24 tiles; equals what write_block_tiles emits."""
    return sum(coeff_bits(t) for t in tiles)
