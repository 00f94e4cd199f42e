"""The 8x8 transform, quantization, and what a residual costs.

Prediction errors are coded per 8x8 tile: orthonormal DCT, divide by a
step that doubles every 6 qp, round half away from zero, run-level code
the survivors in zigzag order. A 32x32 block is 16 luma tiles plus 4+4
chroma tiles, 24 in all. Lower qp keeps more coefficients and costs more
bits; qp 0 has step 1 and reconstructs within +/-2 per sample. The
decoder side (dequantization and inverse DCT) runs in exact integer
arithmetic, so every machine rebuilds the same pixels; the float inverse
below is the reference it is tested against. The residual section runs
what the encoder runs on each candidate: blocks cut into tiles once,
levels, rebuilt tiles and bits all in tile layout.
"""

import numpy as np

from nbv.core import Block32
from nbv.residual import (
    block_tiles,
    block_tiles_bits,
    dct8_forward,
    dct8_inverse,
    encode_tiles,
    qstep,
    rebuild_tiles,
)

rng = np.random.default_rng(3)

tile = rng.integers(0, 256, (8, 8)).astype(np.float64) - 128
coeffs = dct8_forward(tile)
print(f"random tile: DC {coeffs[0, 0]:.1f}, "
      f"largest AC {np.abs(coeffs).ravel()[1:].max():.1f}")
print(f"inverse error: {np.abs(dct8_inverse(coeffs) - tile).max():.2e}")

print("\nquantizer step doubles every 6 qp")
for qp in (0, 6, 12, 24, 51):
    print(f"  qp {qp:2d}: step {qstep(qp):9.3f}")


def mk_block(seed):
    r = np.random.default_rng(seed)
    return Block32(r.integers(0, 256, (32, 32), dtype=np.uint8),
                   r.integers(0, 256, (16, 16), dtype=np.uint8),
                   r.integers(0, 256, (16, 16), dtype=np.uint8))


# the 24 tiles of each block, (24, 8, 8): 16 luma, then 4 Cb and 4 Cr
src, pred = block_tiles(mk_block(10)), block_tiles(mk_block(11))

print("\nresidual cost and error vs qp (random source, random prediction)")
for qp in (0, 12, 24, 36):
    levels = encode_tiles(src, pred, qp)
    recon = rebuild_tiles(pred, levels, qp)
    d = recon.astype(np.int32) - src
    print(f"  qp {qp:2d}: {block_tiles_bits(levels):6d} bits, "
          f"max error {np.abs(d).max():3d}, SSD {int((d * d).sum()):9d}")

# perfect prediction leaves nothing to code: 24 single-bit tiles
silent = encode_tiles(src, src, 24)
print(f"\nperfect prediction: {block_tiles_bits(silent)} bits for 24 tiles")
