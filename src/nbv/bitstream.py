"""Container wire format: header, parameter-set units, and frame units.

Layout (all multi-bit fields MSB-first, every unit zero-padded to a byte
boundary at its end):

  header      "NBV2", width u16, height u16, frame_count u32, qp u8,
              gnn_enabled u8, gnn_interval u8
  unit        tag u8: 1 = parameter set, 2 = frame
  param set   layer_count u8, hidden sizes u16 each, then per weight layer:
              scale as IEEE 754 binary32 big-endian, weights row-major then
              biases as 10-bit two's complement, padded to a byte per layer
  frame       frame type 1 bit (0 = I, 1 = P), region count ue, regions as
              ue(x0) ue(y0) ue(x1) ue(y1) + kind bit (0 = forced,
              1 = selectable), one selection bit per selectable-region block
              in raster order (1 = generate), then per-block payloads in
              frame raster order: mode symbol ue for predicted blocks
              (P frames: 0 inter, 1 DC, 2 horizontal, 3 vertical; I frames:
              0 DC, 1 horizontal, 2 vertical), se motion-vector difference
              against the left neighbor's vector for inter, then the 24
              residual tiles. Generated blocks carry no mode symbol; their
              membership is implied by the regions and selection bits.
  order       frame 0 and the frame after a parameter set are I frames; a
              set needs gnn_enabled and a frame after it; a frame may
              generate blocks only within the latest set's set_frames.
              parse_stream enforces this, and the decoder relies on it.

A FrameUnit holds a frame's blocks as three arrays: each block's BlockMode
(GEN where it is generated), its motion-vector difference (zero unless
inter) and its 24 tiles of residual levels.

Everything after a frame's selection bits is exp-Golomb codes, so
write_frame and the frame parser code that payload in bulk, a frame at a
time: the writer builds all of the frame's code numbers and packs them in
one call, and the parser walks the codes of each chunk the bulk reader
returns a whole block at a time, with one Python step per block, finding
its tiles through jump tables; a block that a chunk cuts is read again,
whole, from the next chunk. It writes modes and vectors and scatters
levels straight into the unit's arrays, int16 levels as MAX_LEVEL allows.
The layout above is the same bit for bit as coding each field on its own.
Neither counts bits as it goes: both hand _frame_bits the unit and the bit
counts of its head, payload and padding, and it prices the mode symbols
and vector differences with block_syntax_bits, the RD search's own cost,
so a unit's FrameBits are counted in one place.

The writers refuse exactly what the parsers refuse: both run
StreamHeader.check and QuantizedGnnParams.check, which hold every limit on
a header's and a parameter set's fields (a parser raises StreamError).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .core import StreamHeader
from .entropy import (
    BitReader,
    BitWriter,
    StreamError,
    read_ue_codes,
    se_to_ue,
    ue_decode,
    ue_encode,
    ue_lengths,
    ue_to_se,
    write_ue_codes,
)
from .gnn import (
    INPUT_SIZE,
    OUTPUT_SIZE,
    QuantizedGnnParams,
    QuantizedLayer,
    check_architecture,
)
from .residual import (
    MAX_LEVEL,
    TILES_PER_BLOCK,
    block_tile_starts,
    scatter_tiles,
    tile_codes,
    tile_jumps,
)

MAGIC = b"NBV2"
UNIT_PARAM_SET = 1
UNIT_FRAME = 2

# Categories every bit of a stream falls into, for accounting.
BIT_CATEGORIES = ("header", "param_sets", "regions_and_modes", "mvs", "residuals")


class BlockMode(IntEnum):
    """Block kinds in RD tie rank. A coded block's mode symbol is its rank,
    less one in an I frame, which has no inter mode; GEN has no symbol."""

    INTER = 0
    INTRA_DC = 1
    INTRA_H = 2
    INTRA_V = 3
    GEN = 4


def _mode_symbol(frame_type: str, mode):
    """A coded block's mode symbol; works on ints and on integer arrays."""
    return mode - (frame_type == "I")


def block_syntax_bits(frame_type: str, mode, mvd=None):
    """Bits write_frame spends on blocks' mode symbols and motion-vector
    differences; generated blocks carry neither.

    mode is a BlockMode or an array of them, and mvd the (..., 2)
    differences to match, read where a block is inter only.
    """
    mode = np.asarray(mode)
    bits = np.where(mode == BlockMode.GEN, 0,
                    ue_lengths(_mode_symbol(frame_type, mode)))
    if mvd is not None:
        mv_bits = ue_lengths(se_to_ue(np.asarray(mvd, dtype=np.int64))).sum(axis=-1)
        bits = bits + np.where(mode == BlockMode.INTER, mv_bits, 0)
    return bits


def _checked(check, *args):
    """check(*args), its ValueError raised as StreamError."""
    try:
        return check(*args)
    except ValueError as e:
        raise StreamError(str(e)) from e


def write_header(w: BitWriter, h: StreamHeader) -> int:
    h.check()
    start = w.bit_position
    for byte in MAGIC:
        w.write_bits(byte, 8)
    w.write_bits(h.width, 16)
    w.write_bits(h.height, 16)
    w.write_bits(h.frame_count, 32)
    w.write_bits(h.qp, 8)
    w.write_bits(1 if h.gnn_enabled else 0, 8)
    w.write_bits(h.gnn_interval, 8)
    w.byte_align()
    return w.bit_position - start


def parse_header(r: BitReader) -> StreamHeader:
    magic = bytes(r.read_bits(8) for _ in range(4))
    if magic != MAGIC:
        if magic[:3] == MAGIC[:3]:
            raise StreamError("unsupported stream version "
                              f"{magic.decode('latin-1')} (this decoder reads "
                              f"{MAGIC.decode()})")
        raise StreamError(f"bad magic {magic!r}")
    width = r.read_bits(16)
    height = r.read_bits(16)
    frame_count = r.read_bits(32)
    qp = r.read_bits(8)
    gnn_enabled = r.read_bits(8)
    gnn_interval = r.read_bits(8)
    r.byte_align()
    if gnn_enabled > 1:
        raise StreamError("gnn_enabled flag must be 0 or 1")
    header = StreamHeader(width, height, frame_count, qp, bool(gnn_enabled),
                          gnn_interval)
    _checked(header.check)
    return header


# Every 5 bytes of packed levels hold four 10-bit fields. _pack_levels'
# callers and _unpack_levels handle this many such groups per numpy pass,
# so their scratch memory is bounded whatever the layer size.
_LEVEL_GROUPS = 1 << 14
_BYTE_SHIFTS = np.arange(32, -8, -8, dtype=np.int64)
_FIELD_SHIFTS = np.arange(30, -10, -10, dtype=np.int64)


def _pack_levels(flat: np.ndarray) -> bytes:
    """Pack levels as consecutive 10-bit two's-complement fields, four in
    each 5 bytes; a partial last group is zero-padded to a whole byte."""
    n = len(flat)
    codes = np.zeros(-(-n // 4) * 4, dtype=np.int64)
    codes[:n] = flat
    codes &= 0x3FF
    words = (codes.reshape(-1, 4) << _FIELD_SHIFTS).sum(axis=1)
    raw = ((words[:, None] >> _BYTE_SHIFTS) & 0xFF).astype(np.uint8)
    return raw.tobytes()[:(10 * n + 7) // 8]


def _unpack_levels(raw: bytes, n: int) -> np.ndarray:
    """Unpack n consecutive 10-bit two's-complement fields to int16 levels."""
    groups = -(-n // 4)
    out = np.empty(4 * groups, dtype=np.int16)
    for lo in range(0, groups, _LEVEL_GROUPS):
        hi = min(groups, lo + _LEVEL_GROUPS)
        part = raw[5 * lo:5 * hi].ljust(5 * (hi - lo), b"\0")
        words = (np.frombuffer(part, np.uint8).reshape(-1, 5).astype(np.int64)
                 << _BYTE_SHIFTS).sum(axis=1)
        codes = (words[:, None] >> _FIELD_SHIFTS) & 0x3FF
        out[4 * lo:4 * hi] = ((codes ^ 512) - 512).reshape(-1)  # sign extend
    return out[:n]


def write_param_set(w: BitWriter, qparams: QuantizedGnnParams) -> int:
    """Write one parameter-set unit including its tag; returns bits written."""
    start = w.bit_position
    sizes = qparams.check()
    w.write_bits(UNIT_PARAM_SET, 8)
    w.write_bits(len(sizes), 8)
    for s in sizes[1:-1]:
        w.write_bits(s, 16)
    step = 4 * _LEVEL_GROUPS
    for layer in qparams.layers:
        w.write_bytes(struct.pack(">f", float(layer.scale)))
        # the weights, then the biases, as one run of fields; slices of
        # whole groups pack to whole bytes, so they are written one by one
        weights = layer.weights.reshape(-1)
        whole = len(weights) - len(weights) % 4
        for lo in range(0, whole, step):
            w.write_bytes(_pack_levels(weights[lo:min(whole, lo + step)]))
        w.write_bytes(_pack_levels(np.concatenate([weights[whole:], layer.biases])))
    return w.bit_position - start


def param_set_bits(layer_sizes) -> int:
    """Bits write_param_set emits for an architecture, tag included."""
    sizes = check_architecture(layer_sizes)
    bits = 8 + 8 + 16 * (len(sizes) - 2)
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        n = fan_out * (fan_in + 1)
        bits += 32 + 8 * ((10 * n + 7) // 8)
    return bits


def _parse_param_set_body(r: BitReader) -> QuantizedGnnParams:
    n_layers = r.read_bits(8)
    hidden = [r.read_bits(16) for _ in range(n_layers - 2)]
    # cut to the count read, so that a count below 2 is refused too
    sizes = _checked(check_architecture, [INPUT_SIZE, *hidden, OUTPUT_SIZE][:n_layers])
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        scale = np.float32(struct.unpack(">f", r.read_bytes(4))[0])
        n = fan_out * (fan_in + 1)
        vals = _unpack_levels(r.read_bytes((10 * n + 7) // 8), n)
        layers.append(QuantizedLayer(
            vals[:fan_out * fan_in].reshape(fan_out, fan_in),
            vals[fan_out * fan_in:], scale))
    qparams = QuantizedGnnParams(layers)
    _checked(qparams.check)
    return qparams


def parse_param_set(r: BitReader) -> QuantizedGnnParams:
    tag = r.read_bits(8)
    if tag != UNIT_PARAM_SET:
        raise StreamError(f"expected parameter-set unit, found tag {tag}")
    return _parse_param_set_body(r)


@dataclass(eq=False)
class RegionSpec:
    """Inclusive block-coordinate rectangle marked for generation."""

    x0: int
    y0: int
    x1: int
    y1: int
    selectable: bool  # forced regions generate every block, no per-block bit

    @property
    def area(self) -> tuple[slice, slice]:
        """The (row, col) slices of a block map that this region covers."""
        return np.s_[self.y0:self.y1 + 1, self.x0:self.x1 + 1]


# region_map's block kinds; 0 is a block outside every region
FORCED, SELECTABLE = 1, 2


def region_map(regions: list[RegionSpec], cols: int, rows: int) -> np.ndarray:
    """(rows, cols) int8 map of each block's region kind: 0, FORCED or
    SELECTABLE.

    A region off the grid or inverted is a ValueError, and so is one that
    covers a block an earlier region holds, so the work is linear in the
    grid whatever the region count.
    """
    kinds = np.zeros((rows, cols), dtype=np.int8)
    for reg in regions:
        # bounds first: a negative slice index would wrap, not fail
        if not (0 <= reg.x0 <= reg.x1 < cols and 0 <= reg.y0 <= reg.y1 < rows):
            raise ValueError(
                f"region ({reg.x0},{reg.y0})-({reg.x1},{reg.y1}) "
                f"outside {cols}x{rows} grid or inverted"
            )
        area = kinds[reg.area]  # a view into kinds
        if area.any():
            raise ValueError("regions overlap")
        area[...] = SELECTABLE if reg.selectable else FORCED
    return kinds


@dataclass(eq=False)
class FrameUnit:
    frame_type: str  # "I" or "P"
    regions: list[RegionSpec]
    modes: np.ndarray  # (rows, cols) int8 BlockMode values
    mvds: np.ndarray  # (rows, cols, 2) int32 (dx, dy), zero unless inter
    blocks: np.ndarray  # (rows * cols, 24, 64) levels, zigzag, raster order;
    # int16 as parsed and encoded, since levels are within +-MAX_LEVEL


@dataclass
class FrameBits:
    """Where one frame unit's bits went; modes covers everything not
    mv/residual, the zero bits that end the unit on a byte too."""

    modes: int = 0
    mvs: int = 0
    residuals: int = 0

    @property
    def total(self) -> int:
        return self.modes + self.mvs + self.residuals


def _frame_bits(fu: FrameUnit, head: int, payload: int, pad: int) -> FrameBits:
    """A frame unit's FrameBits from its head (the tag to the selection
    bits), its payload's and its padding's bit counts. The mode symbols and
    vector differences cost what block_syntax_bits says; the rest of the
    payload is the tiles'."""
    mode_bits = int(block_syntax_bits(fu.frame_type, fu.modes).sum())
    syntax = int(block_syntax_bits(fu.frame_type, fu.modes, fu.mvds).sum())
    return FrameBits(head + mode_bits + pad, syntax - mode_bits, payload - syntax)


def _check_frame_unit(fu: FrameUnit, cols: int, rows: int) -> None:
    if fu.frame_type not in ("I", "P"):
        raise ValueError(f"bad frame type {fu.frame_type!r}")
    kinds = region_map(fu.regions, cols, rows)
    if (fu.modes.shape != (rows, cols) or fu.mvds.shape != (rows, cols, 2)
            or fu.blocks.shape != (rows * cols, TILES_PER_BLOCK, 64)):
        raise ValueError("unit arrays do not match the grid")
    if np.any((fu.modes < BlockMode.INTER) | (fu.modes > BlockMode.GEN)):
        raise ValueError("mode outside BlockMode")
    gen = fu.modes == BlockMode.GEN
    if np.any(gen & (kinds == 0)):
        raise ValueError("generated block outside every region")
    if np.any((kinds == FORCED) & ~gen):
        raise ValueError("forced-region block not marked generated")
    inter = fu.modes == BlockMode.INTER
    if fu.frame_type == "I" and np.any(inter):
        raise ValueError("inter block in an I frame")
    if np.any(fu.mvds[~inter]):
        raise ValueError("motion vector difference on a non-inter block")
    if np.any(np.abs(fu.mvds.astype(np.int64)) >= 1 << 31):  # beyond se codes
        raise ValueError("motion vector difference beyond +-(2^31 - 1)")


def write_frame(w: BitWriter, fu: FrameUnit, cols: int, rows: int) -> FrameBits:
    """Write one frame unit including its tag; returns the bit breakdown."""
    _check_frame_unit(fu, cols, rows)
    # The parser refuses these levels, so the writer refuses them too,
    # before it writes anything.
    if np.any((fu.blocks > MAX_LEVEL) | (fu.blocks < -MAX_LEVEL)):
        raise ValueError(f"residual level beyond +-{MAX_LEVEL}")
    start = w.bit_position
    w.write_bits(UNIT_FRAME, 8)
    w.write_bits(0 if fu.frame_type == "I" else 1, 1)
    ue_encode(w, len(fu.regions))
    for reg in fu.regions:
        for corner in (reg.x0, reg.y0, reg.x1, reg.y1):
            ue_encode(w, corner)
        w.write_bits(1 if reg.selectable else 0, 1)
    gen = fu.modes == BlockMode.GEN
    for reg in fu.regions:
        if reg.selectable:
            w.write_bit_array(gen[reg.area].reshape(-1))
    head = w.bit_position - start
    # The payload is all exp-Golomb codes: each coded block's mode symbol
    # and an inter block's vector difference, before its 24 tiles' codes.
    modes = fu.modes.reshape(-1)
    coded = np.flatnonzero(modes != BlockMode.GEN)
    inter = coded[modes[coded] == BlockMode.INTER]
    symbols = _mode_symbol(fu.frame_type, modes[coded])
    mv_codes = se_to_ue(fu.mvds.reshape(-1, 2)[inter].T.reshape(-1).astype(np.int64))
    tiles, counts = tile_codes(fu.blocks)
    block_codes = TILES_PER_BLOCK + 2 * counts.sum(axis=1)
    block_start = np.cumsum(block_codes) - block_codes
    # codes inserted at one place keep their given order: the symbol, then
    # the x and the y difference
    payload = write_ue_codes(w, np.insert(
        tiles, block_start[np.concatenate((coded, inter, inter))],
        np.concatenate((symbols, mv_codes))))
    return _frame_bits(fu, head, payload, w.byte_align())


def _read_payloads(r: BitReader, fu: FrameUnit) -> None:
    """Read every coded block's mode symbol, vector difference and tiles in
    bulk, into the unit's arrays; its modes hold GEN where the regions and
    selection bits put it.

    A whole block is the only item the walk consumes, so every chunk of
    codes starts at a block boundary. Per chunk, tile_jumps composes each
    tile's jump to the next 24 times, and a block takes one Python step
    for its mode symbol and vector difference and one table look-up for
    its tiles; the chunk's tiles are then decoded by one scatter into the
    unit's levels. A block that the chunk cuts is not consumed: the walk
    checks the tiles of it that the chunk holds and stops, and the next
    chunk reads the block again from its start. A fault raises the
    message of the first faulty item in stream order: the tiles before a
    bad mode symbol or count are checked first.
    """
    modes = fu.modes.reshape(-1)  # views into the unit's arrays
    mvds = fu.mvds.reshape(-1, 2)
    tile_rows = fu.blocks.reshape(-1, 64)
    generated = (modes == BlockMode.GEN).tolist()
    first_mode = int(fu.frame_type == "I")  # the mode of symbol 0
    begun = 0  # blocks read whole

    def walk(chunk):
        nonlocal begun
        values = chunk.values
        value = values.item
        n = len(values)
        jumps = tile_jumps(values)
        tile_end, block_end = jumps[0].item, jumps[-1].item
        first_row = begun * TILES_PER_BLOCK
        k = 0
        heads: list[int] = []  # blocks with a mode symbol, and its index
        head_codes: list[int] = []
        whole: list[int] = []  # first tile of each whole block
        cut: list[int] = []  # the tiles held of a block the chunk cuts
        try:
            while begun < len(generated):
                at = k
                if not generated[begun]:
                    if at >= n:
                        break
                    mode = first_mode + value(at)
                    if mode >= BlockMode.GEN:
                        raise StreamError(
                            f"bad {fu.frame_type}-frame mode symbol {value(at)}")
                    at += 3 if mode == BlockMode.INTER else 1
                    if at > n:
                        break
                end = block_end(at)
                if end > n:
                    while (after := tile_end(at)) <= n:
                        cut.append(at)
                        at = after
                    if at < n and value(at) > 64:
                        raise StreamError(
                            f"coefficient count {value(at)} exceeds tile size")
                    break
                if at > k:  # a mode symbol at k
                    heads.append(begun)
                    head_codes.append(k)
                whole.append(at)
                k = end
                begun += 1
        finally:
            # the tiles walked so far come first in stream order: a fault
            # in them wins over one the walk raised
            starts = np.concatenate((
                block_tile_starts(jumps, np.array(whole, dtype=np.int64)),
                np.array(cut, dtype=np.int64)))
            scatter_tiles(values, starts, tile_rows[first_row:first_row + len(starts)])
        head_at = np.array(head_codes, dtype=np.int64)
        symbols = values[head_at]
        modes[heads] = first_mode + symbols
        inter = symbols == BlockMode.INTER - first_mode  # -1, none, in an I frame
        mv_values = values[head_at[inter, None] + (1, 2)]
        mvds[np.array(heads, dtype=np.int64)[inter]] = ue_to_se(mv_values)
        return k, begun == len(generated)

    read_ue_codes(r, walk)


def _parse_frame_body(r: BitReader, cols: int,
                      rows: int) -> tuple[FrameUnit, FrameBits]:
    """A frame unit after its tag, and its FrameBits, tag included."""
    start = r.bit_position - 8  # tag already consumed
    frame_type = "I" if r.read_bits(1) == 0 else "P"
    n_regions = ue_decode(r)
    if n_regions > cols * rows:
        raise StreamError(f"region count {n_regions} exceeds grid")
    regions = []
    for _ in range(n_regions):
        corners = [ue_decode(r) for _ in range(4)]  # x0, y0, x1, y1
        regions.append(RegionSpec(*corners, r.read_bits(1) == 1))
    gen = _checked(region_map, regions, cols, rows) == FORCED
    for reg in regions:
        if reg.selectable:
            area = gen[reg.area]  # a view into gen
            area.flat = r.read_bit_array(area.size)
    head = r.bit_position - start
    fu = FrameUnit(frame_type, regions, (gen * BlockMode.GEN).astype(np.int8),
                   np.zeros((rows, cols, 2), dtype=np.int32),
                   np.zeros((rows * cols, TILES_PER_BLOCK, 64), dtype=np.int16))
    _read_payloads(r, fu)
    payload = r.bit_position - start - head
    return fu, _frame_bits(fu, head, payload, r.byte_align())


def parse_stream(data: bytes, bits: list | None = None):
    """Parse a stream; returns (header, unit generator).

    The generator yields ('param_set', QuantizedGnnParams) and
    ('frame', FrameUnit) in stream order, stops after the header's frame
    count, and rejects unknown tags, trailing bytes and units out of the
    layout's order, so whatever it yields can be decoded. When `bits` is a
    list, the header's size in bits is appended to it, then each unit's
    bits before the unit is yielded: an int for a parameter set, a
    FrameBits for a frame. Both include the unit's tag.
    """
    r = BitReader(data)
    header = parse_header(r)
    cols, rows = header.grid()
    # every block costs at least one ue(0) per tile
    if header.frame_count * cols * rows * TILES_PER_BLOCK > r.bits_remaining:
        raise StreamError(f"{r.bits_remaining} bits cannot hold "
                          f"{header.frame_count} frames of {cols}x{rows} blocks")
    if bits is not None:
        bits.append(r.bit_position)

    def units():
        done = 0
        set_frames = None  # the latest parameter set's frames
        after_set = False  # whether the unit before was a parameter set
        while done < header.frame_count:
            start = r.bit_position
            tag = r.read_bits(8)
            if tag == UNIT_PARAM_SET:
                unit = "param_set", _parse_param_set_body(r)
                unit_bits = r.bit_position - start
                if not header.gnn_enabled:
                    raise StreamError("parameter set in a generator-disabled stream")
                if after_set:
                    raise StreamError("consecutive parameter sets without a frame")
                set_frames = header.set_frames(done)
            elif tag == UNIT_FRAME:
                fu, unit_bits = _parse_frame_body(r, cols, rows)
                if after_set and fu.frame_type != "I":
                    raise StreamError("parameter set must be followed by a keyframe")
                if fu.frame_type == "P" and not done:
                    raise StreamError("frame 0 is predicted but has no reference")
                if np.any(fu.modes == BlockMode.GEN):
                    if set_frames is None:
                        raise StreamError(f"frame {done} uses generated blocks "
                                          "before any parameter set")
                    if done not in set_frames:
                        raise StreamError(
                            f"frame {done} generates blocks outside its parameter set's "
                            f"frames {set_frames.start}..{set_frames.stop - 1}")
                unit = "frame", fu
                done += 1
            else:
                raise StreamError(f"unknown unit tag {tag}")
            if bits is not None:
                bits.append(unit_bits)
            after_set = tag == UNIT_PARAM_SET
            yield unit
        if r.bits_remaining:
            raise StreamError(f"{r.bits_remaining} trailing bits after last frame")

    return header, units()
