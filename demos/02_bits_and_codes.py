"""Bit-level I/O and the variable-length codes the stream is built from.

Everything in the stream reduces to three primitives: raw fixed-width bits
(MSB first), unsigned exponential Golomb codes for counts and magnitudes,
and a signed mapping on top for differences. Small values get short codes;
the code is prefix-free so no separators are needed.
"""

import numpy as np

from nbv.bitstream import (
    BlockMode,
    FrameUnit,
    StreamHeader,
    parse_stream,
    write_frame,
    write_header,
)
from nbv.entropy import (
    BitReader,
    BitWriter,
    se_to_ue,
    ue_decode,
    ue_encode,
    ue_to_se,
    write_ue_codes,
)
from nbv.residual import tile_codes


def codeword(write, value) -> str:
    w = BitWriter()
    write(w, value)
    bits = w.bit_position
    return format(int.from_bytes(w.to_bytes(), "big") >> (8 * len(w.to_bytes()) - bits),
                  f"0{bits}b")


print("unsigned codes")
for v in range(8):
    print(f"  ue({v}) = {codeword(ue_encode, v)}")

print("\nsigned codes (zigzag of the unsigned code)")
for v in (0, 1, -1, 2, -2, 3):
    print(f"  se({v:2d}) = ue({se_to_ue(v)}) = {codeword(ue_encode, se_to_ue(v))}")

# a mixed stream reads back in order with no markers between values
w = BitWriter()
w.write_bits(0b101, 3)
ue_encode(w, 17)
ue_encode(w, se_to_ue(-4))
w.byte_align()
data = w.to_bytes()
r = BitReader(data)
print(f"\nmixed stream: {data.hex()} "
      f"-> {r.read_bits(3):03b}, {ue_decode(r)}, {ue_to_se(ue_decode(r))}")

# coefficient tiles use run-level coding in scan order: a count, then
# (zero run, nonzero level) pairs; an all-zero tile costs a single bit.
# tile_codes gives any number of tiles' code numbers, all ue codes
tile = np.zeros(64, dtype=np.int32)
tile[0], tile[1], tile[8] = 21, -3, 5
codes, counts = tile_codes(tile)
print(f"\ntile with {counts} nonzero coefficients: codes {codes.tolist()}, "
      f"{write_ue_codes(BitWriter(), codes)} bits")
zero_codes = tile_codes(np.zeros(64, dtype=np.int32))[0]
print(f"all-zero tile: {write_ue_codes(BitWriter(), zero_codes)} bit")

# tiles travel in frame units: here a one-frame stream of one intra DC
# block whose first of 24 tiles is ours, read back by the decoder's parser
blocks = np.zeros((1, 24, 64), dtype=np.int32)
blocks[0, 0] = tile
unit = FrameUnit("I", [], np.full((1, 1), BlockMode.INTRA_DC, np.int8),
                 np.zeros((1, 1, 2), np.int32), blocks)
w = BitWriter()
write_header(w, StreamHeader(32, 32, 1, 20, False, 16))
written = write_frame(w, unit, 1, 1)
sizes = []
_, units = parse_stream(w.to_bytes(), sizes)
(_, back), = units
print(f"one-block frame unit: {written.total} bits, {written}, "
      f"read back as {sizes[1]}, "
      f"round trip exact: {np.array_equal(back.blocks[0, 0], tile)}")
