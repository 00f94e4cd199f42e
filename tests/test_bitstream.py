"""Container format: header, parameter sets, frame units, stream framing."""

import struct
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nbv.bitstream
from conftest import (
    frame_unit,
    mutate,
    parse_frame,
    random_unit,
    read_payloads_oracle,
    write_stream,
)
from nbv.bitstream import (
    FORCED,
    SELECTABLE,
    UNIT_FRAME,
    UNIT_PARAM_SET,
    BlockMode,
    FrameUnit,
    RegionSpec,
    StreamHeader,
    _pack_levels,
    block_syntax_bits,
    param_set_bits,
    parse_header,
    parse_param_set,
    parse_stream,
    region_map,
    write_frame,
    write_header,
    write_param_set,
)
from nbv.core import MAX_LUMA_SAMPLES, SequenceConfig, block_grid_dims
from nbv.decoder import decode_sequence
from nbv.entropy import (
    _CHUNK_MAX,
    BitReader,
    BitWriter,
    StreamError,
    se_to_ue,
    ue_encode,
    write_ue_codes,
)
from nbv.gnn import QuantizedGnnParams, QuantizedLayer, init_params, quantize_params
from nbv.residual import MAX_LEVEL, TILES_PER_BLOCK, block_tiles_bits, tile_codes

DEFAULT_ARCH = (3, 25, 40, 60, 1536)


def zero_tiles():
    return [np.zeros(64, dtype=np.int32) for _ in range(24)]


def qparams_for(arch, seed=0):
    return quantize_params(init_params(arch, seed=seed))


def ue_bits(*values) -> int:
    """Bits ue_encode writes for the values, one call each."""
    w = BitWriter()
    for v in values:
        ue_encode(w, v)
    return w.bit_position


def single_block_unit(frame_type="I", mode=BlockMode.INTRA_DC, mvd=None,
                      regions=()):
    return frame_unit(frame_type, [(mode, mvd, zero_tiles())], regions=regions)


class TestHeader:
    def round_trip(self, header):
        w = BitWriter()
        nbits = write_header(w, header)
        back = parse_header(BitReader(w.to_bytes()))
        return nbits, w.to_bytes(), back

    def test_fixed_15_byte_layout(self):
        h = StreamHeader(320, 192, 64, 20, True, 16)
        nbits, raw, back = self.round_trip(h)
        assert nbits == 120 and len(raw) == 15
        assert raw[:4] == b"NBV2"
        assert back == h

    def test_field_extremes_round_trip(self):
        h = StreamHeader(0xFFFF, 1, 0xFFFFFFFF, 51, False, 255)
        _, _, back = self.round_trip(h)
        assert back == h

    def test_bad_magic_rejected(self):
        with pytest.raises(StreamError):
            parse_header(BitReader(b"XXXX" + bytes(11)))

    def test_version_1_rejected_by_name(self):
        w = BitWriter()
        write_header(w, StreamHeader(32, 32, 1, 20, True, 16))
        old = b"NBV1" + w.to_bytes()[4:]
        with pytest.raises(StreamError, match="unsupported stream version NBV1"):
            parse_header(BitReader(old))

    def test_out_of_range_fields_rejected_on_parse(self):
        raw = bytearray(self.round_trip(StreamHeader(32, 32, 1, 20, True, 16))[1])
        raw[12] = 52  # qp byte
        with pytest.raises(StreamError):
            parse_header(BitReader(bytes(raw)))
        raw[12] = 20
        raw[13] = 2  # generator flag must be 0 or 1
        with pytest.raises(StreamError):
            parse_header(BitReader(bytes(raw)))
        raw[13] = 1
        raw[14] = 121  # enabled generator caps the interval
        with pytest.raises(StreamError):
            parse_header(BitReader(bytes(raw)))

    def test_writer_validates_before_emitting(self):
        with pytest.raises(ValueError):
            write_header(BitWriter(), StreamHeader(0, 32, 1, 20, True, 16))
        with pytest.raises(ValueError):
            write_header(BitWriter(), StreamHeader(32, 32, 1, 99, True, 16))


def around(*limits):
    """Each limit and its two neighbors."""
    return st.sampled_from(sorted({v + d for v in limits for d in (-1, 0, 1)}))


class TestWriterParserSymmetry:
    """The writers refuse exactly what the parsers refuse, and what they
    write parses back to what was written."""

    @settings(max_examples=400, deadline=None)
    @given(width=around(1, 8192, 0xFFFF), height=around(1, 4352, 0xFFFF),
           frame_count=around(0, 0xFFFFFFFF), qp=around(0, 51, 255),
           gnn_enabled=st.booleans(), gnn_interval=around(0, 120, 255))
    def test_header(self, width, height, frame_count, qp, gnn_enabled, gnn_interval):
        header = StreamHeader(width, height, frame_count, qp, gnn_enabled, gnn_interval)
        w = BitWriter()
        try:
            write_header(w, header)
            written = w.to_bytes()
        except ValueError:
            written = None
        try:  # the header's fixed-width fields, with no check on their values
            raw = struct.pack(">4sHHIBBB", b"NBV2", width, height, frame_count,
                              qp, gnn_enabled, gnn_interval)
        except struct.error:
            assert written is None  # a field wider than the header holds
            return
        try:
            parsed = parse_header(BitReader(raw))
        except StreamError:
            parsed = None
        assert (written is None) == (parsed is None)
        if written is not None:
            assert written == raw and parsed == header

    @pytest.mark.parametrize("layer,field,value,legal", [
        (0, "scale", 0.0, False),
        (1, "scale", -0.25, False),
        (0, "scale", float("nan"), False),
        (1, "scale", float("inf"), False),
        (0, "weights", 511, True),
        (1, "biases", -511, True),
        (0, "weights", 512, False),
        (1, "biases", -512, False),
        (0, "short biases", None, False),
        (1, "fan-in mismatch", None, False),
        (1, "float weights", 0.0, True),
        (0, "float weights", 0.5, False),
        (1, "float biases", -0.5, False),
        (0, "float biases", float("nan"), False),
    ])
    def test_param_set(self, layer, field, value, legal):
        q = qparams_for((3, 5, 1536), seed=9)
        target = q.layers[layer]
        if field == "scale":
            target.scale = np.float32(value)
        elif field == "short biases":
            target.biases = target.biases[:-1]
        elif field == "fan-in mismatch":  # layer 0 has 5 outputs
            target.weights = target.weights[:, :4]
        elif field.startswith("float"):  # whole levels in a float array are legal
            name = field.split()[1]
            levels = getattr(target, name).astype(np.float64)
            levels[0] += value
            setattr(target, name, levels)
        else:
            getattr(target, field)[0] = value
        w = BitWriter()
        if not legal:
            with pytest.raises(ValueError):
                write_param_set(w, q)
            assert w.bit_position == 0
        if field in ("short biases", "fan-in mismatch"):
            return  # no wire form: the parser takes the shapes from the sizes
        if field.startswith("float") and not legal:
            return  # no wire form: a 10-bit field holds only whole levels
        # the unit as the layout lays it out, with no check on its values
        raw = struct.pack(">BBH", UNIT_PARAM_SET, 3, 5) + b"".join(
            struct.pack(">f", l.scale)
            + _pack_levels(np.concatenate([l.weights.reshape(-1), l.biases]))
            for l in q.layers)
        if legal:
            assert write_param_set(w, q) == 8 * len(raw) and w.to_bytes() == raw
            back = parse_param_set(BitReader(raw))
            for a, b in zip(q.layers, back.layers):
                assert a.scale == b.scale
                assert np.array_equal(a.weights, b.weights)
                assert np.array_equal(a.biases, b.biases)
        else:
            with pytest.raises(StreamError):
                parse_param_set(BitReader(raw))


class TestParamSetUnit:
    def test_default_architecture_exact_size(self):
        assert param_set_bits(DEFAULT_ARCH) == 973_152
        assert param_set_bits(DEFAULT_ARCH) // 8 == 121_644
        q = qparams_for(DEFAULT_ARCH)
        w = BitWriter()
        assert write_param_set(w, q) == 973_152

    def test_round_trip_preserves_levels_and_scales(self):
        q = qparams_for((3, 25, 1536), seed=4)
        w = BitWriter()
        write_param_set(w, q)
        back = parse_param_set(BitReader(w.to_bytes()))
        assert back.layer_sizes == (3, 25, 1536)
        for a, b in zip(q.layers, back.layers):
            assert a.scale == b.scale
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.biases, b.biases)

    def test_extreme_levels_round_trip(self):
        layers = [QuantizedLayer(
            np.full((1536, 3), -511, np.int16),
            np.full(1536, 511, np.int16),
            np.float32(0.25),
        )]
        q = QuantizedGnnParams(layers)
        w = BitWriter()
        write_param_set(w, q)
        back = parse_param_set(BitReader(w.to_bytes()))
        assert np.all(back.layers[0].weights == -511)
        assert np.all(back.layers[0].biases == 511)

    def test_each_layer_is_byte_aligned(self):
        # hidden width 5: first layer holds 20 levels = 200 bits, padded to 208
        assert param_set_bits((3, 5, 1536)) == (
            8 + 8 + 16
            + 32 + 8 * ((10 * 20 + 7) // 8)
            + 32 + 8 * ((10 * (1536 * 6) + 7) // 8)
        )

    def test_forbidden_negative_extreme_rejected(self):
        q = qparams_for((3, 1536), seed=5)
        w = BitWriter()
        write_param_set(w, q)
        raw = bytearray(w.to_bytes())
        # first packed level sits right after tag, layer count, and scale
        raw[6] = 0b10000000
        raw[7] &= 0b00111111
        with pytest.raises(StreamError):
            parse_param_set(BitReader(bytes(raw)))

    def test_widest_layer_parses_in_a_small_multiple_of_its_size(self):
        # 3-4096-1536 holds 6.3 M levels; every four are the same 5 bytes
        arch = (3, 4096, 1536)
        pattern = np.array([-511, 511, 0, -1], np.int16)
        w = BitWriter()
        for value, n in ((UNIT_PARAM_SET, 8), (len(arch), 8), (arch[1], 16)):
            w.write_bits(value, n)
        data = w.to_bytes()
        counts = [o * (i + 1) for i, o in zip(arch[:-1], arch[1:])]
        for n in counts:
            data += struct.pack(">f", 0.5) + _pack_levels(pattern) * (n // 4)
        assert len(data) * 8 == param_set_bits(arch)
        tracemalloc.start()
        try:
            q = parse_param_set(BitReader(data))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(data)
        for layer, n in zip(q.layers, counts):
            levels = np.concatenate([layer.weights.reshape(-1), layer.biases])
            assert np.array_equal(levels, np.tile(pattern, n // 4))
        last = _pack_levels(np.array([-511, 511, 0, -512]))  # -512 at the end
        with pytest.raises(StreamError, match="out of 10-bit range"):
            parse_param_set(BitReader(data[:-5] + last))

    def test_packing_matches_ten_bits_a_level(self):
        rng = np.random.default_rng(8)
        for n in list(range(13)) + [4 * 4099 + 3]:
            levels = rng.integers(-512, 512, n)
            bits = [(int(v) >> s) & 1 for v in levels for s in range(9, -1, -1)]
            assert _pack_levels(levels) == np.packbits(
                np.array(bits, np.uint8)).tobytes()

    @pytest.mark.parametrize("where,value", [("weights", 512), ("biases", -512),
                                             ("weights", -32768)])
    def test_levels_beyond_511_rejected_on_write(self, where, value):
        q = qparams_for((3, 5, 1536), seed=1)
        getattr(q.layers[-1], where)[0] = value
        with pytest.raises(ValueError, match="out of 10-bit range"):
            write_param_set(BitWriter(), q)

    def test_widest_layer_writes_in_a_small_multiple_of_its_size(self):
        # fan-in 1023 leaves the weights off a 4-field group, so the last
        # group holds weights and biases
        for arch in ((3, 1024, 1536), (3, 1023, 1536)):
            q = qparams_for(arch, seed=2)
            w = BitWriter()
            tracemalloc.start()
            try:
                write_param_set(w, q)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            data = w.to_bytes()
            assert len(data) * 8 == param_set_bits(arch)
            assert peak < 4 * len(data)
            back = parse_param_set(BitReader(data))
            for a, b in zip(q.layers, back.layers):
                assert np.array_equal(a.weights, b.weights)
                assert np.array_equal(a.biases, b.biases)

    def test_architecture_caps_enforced_at_parse(self):
        w = BitWriter()
        w.write_bits(1, 8)  # unit tag
        w.write_bits(9, 8)  # too many layers
        with pytest.raises(StreamError):
            parse_param_set(BitReader(w.to_bytes()))
        w = BitWriter()
        w.write_bits(1, 8)
        w.write_bits(3, 8)
        w.write_bits(4097, 16)  # hidden layer too wide
        with pytest.raises(StreamError):
            parse_param_set(BitReader(w.to_bytes()))

    def test_bad_scale_rejected(self):
        q = qparams_for((3, 1536), seed=6)
        w = BitWriter()
        write_param_set(w, q)
        raw = bytearray(w.to_bytes())
        raw[2:6] = b"\x00\x00\x00\x00"  # zero scale
        with pytest.raises(StreamError):
            parse_param_set(BitReader(bytes(raw)))

    def test_truncated_set_rejected(self):
        q = qparams_for((3, 1536), seed=7)
        w = BitWriter()
        write_param_set(w, q)
        with pytest.raises(StreamError):
            parse_param_set(BitReader(w.to_bytes()[:100]))


class TestRegions:
    """region_map is the only region geometry: it places the regions and
    refuses those off the grid, inverted or overlapping."""

    def test_right_edge_margin_on_large_grid(self):
        kinds = region_map([RegionSpec(112, 0, 119, 67, False)], 120, 68)
        assert np.count_nonzero(kinds) == np.count_nonzero(kinds == FORCED) == 8 * 68
        assert np.all(kinds[:, 112:] == FORCED)

    def test_out_of_grid_rejected(self):
        with pytest.raises(ValueError, match="outside 3x2 grid"):
            region_map([RegionSpec(0, 0, 3, 0, True)], 3, 2)

    def test_inverted_rejected(self):
        with pytest.raises(ValueError, match="or inverted"):
            region_map([RegionSpec(2, 0, 1, 0, True)], 3, 2)

    @pytest.mark.parametrize("corners", [(-1, 0, 2, 0), (0, -1, 0, 1),
                                         (-1, -1, -1, -1)])
    def test_negative_corner_rejected(self, corners):
        # sliced unchecked, -1 wraps to the last column or row
        with pytest.raises(ValueError, match="outside 3x2 grid"):
            region_map([RegionSpec(*corners, True)], 3, 2)
        unit = single_block_unit(regions=[RegionSpec(*corners, True)])
        with pytest.raises(ValueError, match="outside 1x1 grid"):
            write_frame(BitWriter(), unit, 1, 1)

    def test_overlap_rejected(self):
        regs = [RegionSpec(0, 0, 1, 1, True), RegionSpec(1, 1, 2, 1, False)]
        with pytest.raises(ValueError, match="regions overlap"):
            region_map(regs, 3, 2)

    def test_disjoint_accepted(self):
        regs = [RegionSpec(0, 0, 0, 1, True), RegionSpec(2, 0, 2, 1, False)]
        assert region_map(regs, 3, 2).tolist() == [[SELECTABLE, 0, FORCED],
                                                   [SELECTABLE, 0, FORCED]]
        regs.append(RegionSpec(1, 0, 1, 0, True))  # touches both
        assert np.count_nonzero(region_map(regs, 3, 2)) == 5

    def test_block_count(self):
        regs = [RegionSpec(1, 0, 2, 0, True), RegionSpec(0, 1, 0, 1, False)]
        assert region_map(regs, 3, 2).tolist() == [[0, SELECTABLE, SELECTABLE],
                                                   [FORCED, 0, 0]]
        assert region_map([], 3, 2).tolist() == [[0, 0, 0], [0, 0, 0]]


class TestRegionScale:
    """One-block regions over the largest legal grid cost time linear in
    the grid, not in the square of the region count."""

    COLS, ROWS = block_grid_dims(8192, 4352)  # MAX_LUMA_SAMPLES: 34,816 blocks

    def regions(self):
        return [RegionSpec(x, y, x, y, False)
                for y in range(self.ROWS) for x in range(self.COLS)]

    def test_region_map_is_linear(self):
        regions = self.regions()
        start = time.perf_counter()
        kinds = region_map(regions, self.COLS, self.ROWS)
        assert time.perf_counter() - start < 1.0
        assert np.all(kinds == FORCED)
        regions.append(RegionSpec(self.COLS - 1, self.ROWS - 1,
                                  self.COLS - 1, self.ROWS - 1, True))
        with pytest.raises(ValueError, match="regions overlap"):
            region_map(regions, self.COLS, self.ROWS)

    def test_parse_is_linear(self):
        # every block a forced one-block region, then its 24 empty tiles
        cols, rows = self.COLS, self.ROWS
        w = BitWriter()
        w.write_bits(UNIT_FRAME, 8)
        w.write_bits(0, 1)
        ue_encode(w, cols * rows)
        for reg in self.regions():
            for corner in (reg.x0, reg.y0, reg.x1, reg.y1):
                ue_encode(w, corner)
            w.write_bits(0, 1)
        w.write_bit_array(np.ones(cols * rows * TILES_PER_BLOCK, np.uint8))
        w.byte_align()
        data = w.to_bytes()
        start = time.perf_counter()
        unit, _ = parse_frame(BitReader(data), cols, rows)
        assert time.perf_counter() - start < 1.0
        assert len(unit.regions) == cols * rows
        assert np.all(unit.modes == BlockMode.GEN)

    def test_largest_frame_parses_into_int16_levels(self):
        # every block intra DC with 24 empty tiles: 25 ue(0) codes a block
        cols, rows = self.COLS, self.ROWS
        w = BitWriter()
        w.write_bits(UNIT_FRAME, 8)
        w.write_bits(0, 1)
        ue_encode(w, 0)
        w.write_bit_array(np.ones(cols * rows * (1 + TILES_PER_BLOCK), np.uint8))
        w.byte_align()
        data = w.to_bytes()
        tracemalloc.start()
        try:
            unit, _ = parse_frame(BitReader(data), cols, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert unit.blocks.dtype == np.int16 and not unit.blocks.any()
        assert np.all(unit.modes == BlockMode.INTRA_DC)
        # the 107 MB level array and a few MB of chunk scratch; int32
        # levels alone would take 214 MB
        assert peak < unit.blocks.nbytes + (8 << 20)


class TestFrameUnit:
    def test_minimal_intra_frame_bit_layout(self):
        w = BitWriter()
        bits = write_frame(w, single_block_unit(), 1, 1)
        # tag 8, type 1, region count 1, mode 1, 24 empty tiles, pad to 40
        assert bits.total == 40
        assert (bits.modes, bits.mvs, bits.residuals) == (16, 0, 24)

    def test_inter_frame_bit_layout(self):
        unit = single_block_unit("P", BlockMode.INTER, mvd=(0, 0))
        w = BitWriter()
        bits = write_frame(w, unit, 1, 1)
        assert bits.total == 40
        assert (bits.modes, bits.mvs, bits.residuals) == (14, 2, 24)

    def test_selectable_region_spends_one_bit_per_block(self):
        reg = RegionSpec(0, 0, 0, 0, True)
        unit = single_block_unit("I", BlockMode.GEN, regions=[reg])
        w = BitWriter()
        bits = write_frame(w, unit, 1, 1)
        # generated block carries no mode symbol, only the selection bit
        assert bits.total == 48
        assert (bits.modes, bits.mvs, bits.residuals) == (24, 0, 24)

    def test_round_trip_mixed_modes(self):
        rng = np.random.default_rng(8)
        cols, rows = 3, 2
        regions = [RegionSpec(0, 0, 0, 1, False), RegionSpec(2, 0, 2, 1, True)]
        blocks = []
        for i in range(cols * rows):
            by, bx = divmod(i, cols)
            if bx == 0 or (bx, by) == (2, 0):  # forced column, one selected
                mode, mvd = BlockMode.GEN, None
            elif by == 1 and bx == 1:
                mode, mvd = BlockMode.INTER, (-3, 7)
            else:
                mode, mvd = BlockMode.INTRA_V, None
            tiles = zero_tiles()
            tiles[0][:5] = rng.integers(-9, 10, 5)
            blocks.append((mode, mvd, tiles))
        unit = frame_unit("P", blocks, cols, regions)
        w = BitWriter()
        bits = write_frame(w, unit, cols, rows)
        back, got_bits = parse_frame(BitReader(w.to_bytes()), cols, rows)
        assert back.frame_type == "P"
        for a, b in zip(back.regions, regions):
            assert (a.x0, a.y0, a.x1, a.y1, a.selectable) == (
                b.x0, b.y0, b.x1, b.y1, b.selectable)
        assert np.array_equal(back.modes, unit.modes)
        assert np.array_equal(back.mvds, unit.mvds)
        assert np.array_equal(back.blocks, unit.blocks)
        assert (got_bits.modes, got_bits.mvs, got_bits.residuals) == (
            bits.modes, bits.mvs, bits.residuals)

    def test_selection_bits_run_region_by_region(self):
        # Bits of the first region in its own raster order (1001), then the
        # second region's (1); frame raster order would give 10101.
        cols, rows = 3, 2
        regions = [RegionSpec(1, 0, 2, 1, True), RegionSpec(0, 1, 0, 1, True)]
        generated = {(1, 0), (2, 1), (0, 1)}
        blocks = []
        for by in range(rows):
            for bx in range(cols):
                mode = BlockMode.GEN if (bx, by) in generated else BlockMode.INTRA_DC
                blocks.append((mode, None, zero_tiles()))
        unit = frame_unit("P", blocks, cols, regions)
        w = BitWriter()
        write_frame(w, unit, cols, rows)
        assert w.to_bytes().hex() == (
            "02b56b559affffffffffff5fffffffffffebfffffffffffc")

    def test_unit_consistency_enforced_on_write(self):
        bad = single_block_unit("I", BlockMode.INTER, mvd=(0, 0))
        with pytest.raises(ValueError):
            write_frame(BitWriter(), bad, 1, 1)  # inter block in an I frame
        bad = single_block_unit("I", BlockMode.GEN)  # no region
        with pytest.raises(ValueError):
            write_frame(BitWriter(), bad, 1, 1)
        reg = RegionSpec(0, 0, 0, 0, False)
        bad = single_block_unit("I", BlockMode.INTRA_DC, regions=[reg])
        with pytest.raises(ValueError):
            write_frame(BitWriter(), bad, 1, 1)  # forced block left ungenerated

    @pytest.mark.parametrize("mode", [-1, 5, 7])
    def test_mode_outside_block_mode_rejected_on_write(self, mode):
        # P-frame mode 7 would be written as ue(7), which the parser refuses
        unit = single_block_unit("P")
        unit.modes[0, 0] = mode
        w = BitWriter()
        with pytest.raises(ValueError, match="mode outside BlockMode"):
            write_frame(w, unit, 1, 1)
        assert w.bit_position == 0

    @pytest.mark.parametrize("mode", [BlockMode.INTRA_DC, BlockMode.INTRA_H,
                                      BlockMode.INTRA_V, BlockMode.GEN])
    def test_vector_difference_on_non_inter_block_rejected_on_write(self, mode):
        unit = single_block_unit("P", mode, mvd=(0, -1),
                                 regions=[RegionSpec(0, 0, 0, 0, True)])
        with pytest.raises(ValueError, match="non-inter block"):
            write_frame(BitWriter(), unit, 1, 1)

    @pytest.mark.parametrize("mvd", [(-2**31, 0), (0, 2**31)])
    def test_vector_difference_beyond_se_codes_rejected_on_write(self, mvd):
        unit = single_block_unit("P", BlockMode.INTER)
        unit.mvds = np.array([[mvd]], dtype=np.int64)
        w = BitWriter()
        with pytest.raises(ValueError, match="vector difference beyond"):
            write_frame(w, unit, 1, 1)
        assert w.bit_position == 0
        unit.mvds[0, 0] = np.sign(mvd) * (2**31 - 1)  # the largest se codes
        write_frame(w, unit, 1, 1)

    def test_arrays_off_the_grid_rejected_on_write(self):
        unit = frame_unit("P", [(BlockMode.INTER, (1, 2), zero_tiles())] * 2, cols=2)
        write_frame(BitWriter(), unit, 2, 1)
        bad = [unit.modes.reshape(2, 1), unit.mvds[:, :1], unit.blocks[:, :23]]
        for i, array in enumerate(bad):
            fields = [unit.modes, unit.mvds, unit.blocks]
            fields[i] = array
            with pytest.raises(ValueError, match="do not match the grid"):
                write_frame(BitWriter(), FrameUnit("P", [], *fields), 2, 1)
        with pytest.raises(ValueError, match="do not match the grid"):
            write_frame(BitWriter(), unit, 1, 2)

    def test_bad_mode_symbols_rejected_on_parse(self):
        w = BitWriter()
        w.write_bits(2, 8)  # frame tag
        w.write_bits(1, 1)  # P frame
        w.write_bits(1, 1)  # ue(0): no regions
        w.write_bits(0b00101, 5)  # ue(4): beyond the last P mode symbol
        with pytest.raises(StreamError):
            parse_frame(BitReader(w.to_bytes()), 1, 1)
        w = BitWriter()
        w.write_bits(2, 8)
        w.write_bits(0, 1)  # I frame
        w.write_bits(1, 1)
        w.write_bits(0b00100, 5)  # ue(3): beyond the last I mode symbol
        with pytest.raises(StreamError):
            parse_frame(BitReader(w.to_bytes()), 1, 1)

    @pytest.mark.parametrize("level", [2040, 2041, -2041])
    def test_levels_beyond_2040_rejected_on_parse(self, level):
        # The writer refuses such levels, so the frame unit is coded by
        # hand: tag, I frame, no regions, the DC mode symbol, then tiles.
        header = StreamHeader(32, 32, 1, 0, False, 16)
        tiles = np.zeros((24, 64), dtype=np.int32)
        tiles[5, 3] = level
        w = BitWriter()
        write_header(w, header)
        w.write_bits(2, 8)
        w.write_bits(0, 1)
        ue_encode(w, 0)
        ue_encode(w, 0)
        write_ue_codes(w, tile_codes(tiles)[0])
        w.byte_align()
        data = w.to_bytes()
        if abs(level) <= 2040:
            unit = single_block_unit("I")
            unit.blocks[0, 5, 3] = level
            assert data == write_stream(header, [("frame", unit)])
            assert decode_sequence(data)[0][0].y.dtype == np.uint8
        else:
            with pytest.raises(StreamError, match="level beyond"):
                decode_sequence(data)

    @pytest.mark.parametrize("level", [2041, -2041, 2**31 - 1, -2**31])
    def test_levels_beyond_2040_rejected_on_write(self, level):
        unit = single_block_unit("P", BlockMode.INTER, mvd=(1, 0))
        unit.blocks[0, 23, 63] = level
        w = BitWriter()
        with pytest.raises(ValueError, match="level beyond"):
            write_frame(w, unit, 1, 1)
        assert w.bit_position == 0

    @staticmethod
    def regions_rejected_on_parse(corners, error):
        # a 2x1 grid, so that two regions do not exceed the block count
        w = BitWriter()
        w.write_bits(2, 8)
        w.write_bits(0, 1)
        ue_encode(w, len(corners))
        for region in corners:
            for v in region:
                ue_encode(w, v)
            w.write_bits(0, 1)
        with pytest.raises(StreamError, match=error):
            parse_frame(BitReader(w.to_bytes()), 2, 1)

    def test_overlapping_regions_rejected_on_parse(self):
        # the same one-block region twice
        self.regions_rejected_on_parse([(0, 0, 0, 0)] * 2, "regions overlap")

    @pytest.mark.parametrize("corners", [(2, 0, 2, 0), (0, 0, 0, 1), (1, 0, 0, 0)])
    def test_off_grid_or_inverted_regions_rejected_on_parse(self, corners):
        self.regions_rejected_on_parse([corners], "outside 2x1 grid or inverted")

    def test_region_count_beyond_grid_rejected(self):
        w = BitWriter()
        w.write_bits(2, 8)
        w.write_bits(0, 1)
        ue_encode(w, 5)  # more regions than blocks
        with pytest.raises(StreamError):
            parse_frame(BitReader(w.to_bytes()), 1, 1)


class TestBlockSyntaxBits:
    """block_syntax_bits against the bits write_frame emits for one block."""

    # Frame syntax around the block in a 1x1 grid: tag 8, frame type 1 and
    # ue(0) regions 1; a selectable region adds ue(1) 3, four ue(0)
    # corners 4, the kind bit and the selection bit.
    OVERHEAD = {False: 10, True: 18}
    MVDS = ([(v, 0) for v in range(-70, 71)] + [(0, v) for v in range(-70, 71)]
            + list(zip(range(-70, 71), range(70, -71, -1))))

    def emitted_syntax_bits(self, unit, with_region):
        w = BitWriter()
        bits = write_frame(w, unit, 1, 1)
        data = w.to_bytes()
        # The last residual tile is all zero, coded as a single 1 bit, so the
        # unit's last set bit ends the syntax; alignment pads with zeros.
        last = max(i for i in range(8 * len(data))
                   if data[i // 8] >> (7 - i % 8) & 1)
        assert bits.residuals == 24 and bits.total == 8 * len(data)
        return last + 1 - self.OVERHEAD[with_region] - bits.residuals

    def cases(self):
        for with_region in (False, True):
            regions = [RegionSpec(0, 0, 0, 0, True)] if with_region else []
            for frame_type in ("I", "P"):
                modes = [BlockMode.INTRA_DC, BlockMode.INTRA_H, BlockMode.INTRA_V]
                for mode in modes:
                    yield with_region, single_block_unit(frame_type, mode,
                                                         regions=regions)
                if frame_type == "P":
                    for mvd in self.MVDS:
                        yield with_region, single_block_unit(
                            "P", BlockMode.INTER, mvd, regions=regions)
                if with_region:
                    yield with_region, single_block_unit(
                        frame_type, BlockMode.GEN, regions=regions)

    def test_cost_equals_emitted_bits(self):
        n = 0
        for with_region, unit in self.cases():
            mode, mvd = unit.modes[0, 0], unit.mvds[0, 0].tolist()
            expected = self.emitted_syntax_bits(unit, with_region)
            got = block_syntax_bits(unit.frame_type, mode, mvd)
            assert got == expected, (unit.frame_type, mode, mvd)
            n += 1
        assert n == 2 * (3 + 3 + len(self.MVDS)) + 2


class TestStreamFraming:
    def small_stream(self):
        header = StreamHeader(32, 32, 2, 20, True, 16)
        q = qparams_for((3, 1536), seed=9)
        units = [
            ("param_set", q),
            ("frame", single_block_unit("I")),
            ("frame", single_block_unit("P", BlockMode.INTER, mvd=(1, -1))),
        ]
        return header, units

    def test_round_trip(self):
        header, units = self.small_stream()
        data = write_stream(header, units)
        back_header, back_units = parse_stream(data)
        back_units = list(back_units)
        assert back_header == header
        assert [k for k, _ in back_units] == ["param_set", "frame", "frame"]
        assert back_units[1][1].frame_type == "I"
        assert back_units[2][1].mvds[0, 0].tolist() == [1, -1]

    def test_frame_count_must_match_header(self):
        header, units = self.small_stream()
        with pytest.raises(ValueError):
            write_stream(header, units[:2])

    def test_trailing_bytes_rejected(self):
        header, units = self.small_stream()
        data = write_stream(header, units) + b"\x00"
        _, back_units = parse_stream(data)
        with pytest.raises(StreamError):
            list(back_units)

    def test_unknown_tag_rejected(self):
        header, units = self.small_stream()
        data = bytearray(write_stream(header, units))
        data[15] = 7  # first unit tag
        _, back_units = parse_stream(bytes(data))
        with pytest.raises(StreamError):
            list(back_units)

    def test_truncation_rejected(self):
        header, units = self.small_stream()
        data = write_stream(header, units)
        _, back_units = parse_stream(data[:-2])
        with pytest.raises(StreamError):
            list(back_units)

    def test_zero_frame_stream_is_header_only(self):
        header = StreamHeader(32, 32, 0, 20, False, 16)
        data = write_stream(header, [])
        assert len(data) == 15
        back_header, back_units = parse_stream(data)
        assert list(back_units) == []
        assert back_header.frame_count == 0


def random_frame(rng, cols, rows, frame_type=None):
    """A frame unit of random modes, vectors and tiles, of a random type
    unless one is given; the right block column is a selectable region
    with random selections."""
    frame_type = frame_type or "IP"[int(rng.integers(2))]
    regions = [RegionSpec(cols - 1, 0, cols - 1, rows - 1, True)]
    gen_map = np.zeros((rows, cols), dtype=bool)
    gen_map[:, -1] = rng.random(rows) < 0.5
    modes = [BlockMode.INTRA_DC, BlockMode.INTRA_H, BlockMode.INTRA_V]
    if frame_type == "P":
        modes.append(BlockMode.INTER)
    density = rng.uniform(0.0, 1.0)
    blocks = []
    for i in range(cols * rows):
        by, bx = divmod(i, cols)
        mode = BlockMode.GEN if gen_map[by, bx] else modes[rng.integers(len(modes))]
        mvd = None
        if mode == BlockMode.INTER:
            mvd = tuple(int(v) for v in rng.integers(-70, 71, 2) << rng.integers(0, 8))
        tiles = rng.integers(-300, 301, (24, 64)) >> rng.integers(0, 9, (24, 1))
        tiles[rng.random((24, 64)) > density] = 0
        blocks.append((mode, mvd, tiles))
    return frame_unit(frame_type, blocks, cols, regions)


def dense_frame():
    """A random 4x2 frame unit whose levels are all nonzero, 23 kbit a block."""
    rng = np.random.default_rng(40)
    unit = random_frame(rng, 4, 2)
    unit.blocks[:] = rng.choice([-900, -5, 3, 700], unit.blocks.shape)
    return unit


def largest_block_row():
    """A P-frame row of six of the largest legal blocks: inter, with the
    vector difference (2^31 - 1, -(2^31 - 1)) and 24 tiles of 64 levels of
    +-MAX_LEVEL, 37,303 bits a block."""
    tiles = np.tile(np.where(np.arange(64) % 2, MAX_LEVEL, -MAX_LEVEL), 24)
    big = 2**31 - 1
    return frame_unit("P", [(BlockMode.INTER, (big, -big), tiles)] * 6, cols=6)


class TestBulkFramePayload:
    """Random frames through write_frame and parse_stream: the payloads come
    back and every bit is charged where the cost functions say. The
    streams are legal: the first frame is an I frame, and a stream whose
    frames generate blocks has the generator on and a parameter set first."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_frames_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        cols, rows = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        units = [random_frame(rng, cols, rows, "I" if i == 0 else None) for i in range(3)]
        gen = any((u.modes == BlockMode.GEN).any() for u in units)
        header = StreamHeader(32 * cols, 32 * rows, len(units), 20, gen, 16)
        sets = [("param_set", qparams_for((3, 1536)))] if gen else []
        data = write_stream(header, sets + [("frame", u) for u in units])
        sizes = []
        _, parsed = parse_stream(data, sizes)
        parsed = list(parsed)
        assert [k for k, _ in parsed] == ["param_set"] * len(sets) + ["frame"] * len(units)
        assert sizes[1:1 + len(sets)] == [param_set_bits((3, 1536))] * len(sets)
        parsed, frame_bits = parsed[len(sets):], sizes[1 + len(sets):]
        assert len(parsed) == len(frame_bits) == len(units)
        for unit, (kind, back), bits in zip(units, parsed, frame_bits):
            assert kind == "frame" and back.frame_type == unit.frame_type
            assert np.array_equal(back.modes, unit.modes)
            assert np.array_equal(back.mvds, unit.mvds)
            assert np.array_equal(back.blocks, unit.blocks)
            syntax = mvs = 0
            for mode, mvd in zip(unit.modes.reshape(-1).tolist(),
                                 unit.mvds.reshape(-1, 2).tolist()):
                syntax += block_syntax_bits(unit.frame_type, mode, mvd)
                if mode == BlockMode.INTER:
                    mvs += ue_bits(se_to_ue(mvd[0]), se_to_ue(mvd[1]))
            tiles = int(block_tiles_bits(unit.blocks).sum())
            # tag, frame type, one region: count, corners, kind, selections
            fixed = 9 + ue_bits(1, cols - 1, 0, cols - 1, rows - 1)
            fixed += 1 + rows
            pad = -(fixed + syntax + tiles) % 8
            assert (bits.modes + bits.mvs, bits.mvs, bits.residuals) == (
                fixed + syntax + pad, mvs, tiles)
        assert 8 * len(data) == sum(sizes[:1 + len(sets)]) + sum(b.total for b in frame_bits)

    def test_frame_larger_than_the_chunk_cap(self):
        for unit in (dense_frame(), largest_block_row()):
            rows, cols = unit.modes.shape
            w = BitWriter()
            bits = write_frame(w, unit, cols, rows)
            assert bits.residuals > 8 * 24 * 64 * 10
            back, got = parse_frame(BitReader(w.to_bytes()), cols, rows)
            assert got == bits
            assert np.array_equal(back.modes, unit.modes)
            assert np.array_equal(back.mvds, unit.mvds)
            assert np.array_equal(back.blocks, unit.blocks)

    def test_largest_legal_block_outgrows_the_ramp_cap(self):
        unit = largest_block_row()
        bits = (block_tiles_bits(unit.blocks)
                + block_syntax_bits("P", unit.modes.reshape(-1), unit.mvds.reshape(-1, 2)))
        assert bits.tolist() == [37_303] * 6
        assert 37_303 > _CHUNK_MAX


def parsed_or_error(data: bytes, cols: int, rows: int):
    """What parse_frame makes of a frame unit: its arrays, bits and end
    position, or the message of the StreamError it ends in."""
    r = BitReader(data)
    try:
        unit, bits = parse_frame(r, cols, rows)
    except StreamError as e:
        return str(e)
    corners = [(g.x0, g.y0, g.x1, g.y1, g.selectable) for g in unit.regions]
    return (unit.frame_type, corners, unit.modes.tolist(), unit.mvds.tolist(),
            unit.blocks.tolist(), bits, r.bit_position)


def parse_both(data: bytes, cols: int, rows: int):
    """parsed_or_error through the frame parser and through the tile-by-tile
    oracle reader in its place."""
    got = parsed_or_error(data, cols, rows)
    with mock.patch.object(nbv.bitstream, "_read_payloads", read_payloads_oracle):
        want = parsed_or_error(data, cols, rows)
    return got, want


def draw_frame(draw):
    """(unit, cols, rows) of a random legal frame unit: I or P, every
    mode, no region or one forced or selectable region, levels from empty
    to dense up to +-MAX_LEVEL and vector differences up to +-2^20, so
    the payload runs from a few bits to several hundred kbit, many
    windows long."""
    frame_type = draw(st.sampled_from("IP"))
    cols, rows = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    regions = []
    if draw(st.booleans()):
        x0, y0 = draw(st.integers(0, cols - 1)), draw(st.integers(0, rows - 1))
        regions.append(RegionSpec(x0, y0, draw(st.integers(x0, cols - 1)),
                                  draw(st.integers(y0, rows - 1)), draw(st.booleans())))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    unit = random_unit(rng, frame_type, cols, rows, regions)
    unit.mvds <<= draw(st.integers(0, 14))
    return unit, cols, rows


def written(unit: FrameUnit, cols: int, rows: int):
    """(unit bytes, FrameBits) from write_frame."""
    w = BitWriter()
    bits = write_frame(w, unit, cols, rows)
    return w.to_bytes(), bits


class TestParserOracle:
    """The frame parser against the tile-by-tile reader it replaced
    (conftest.read_payloads_oracle): equal units, bits and end positions,
    or the same StreamError, the first fault in stream order."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_random_frames_equal_the_oracle(self, data):
        unit, cols, rows = draw_frame(data.draw)
        unit_bytes, bits = written(unit, cols, rows)
        got, want = parse_both(unit_bytes, cols, rows)
        assert not isinstance(want, str)
        assert got == want
        # The bit breakdown, counted apart from the RD cost function that
        # prices it: the vector differences coded one at a time, and the
        # tiles' codes as the writer packs them.
        inter = unit.mvds[unit.modes == BlockMode.INTER].reshape(-1).tolist()
        assert bits.mvs == ue_bits(*(se_to_ue(d) for d in inter))
        assert bits.residuals == write_ue_codes(BitWriter(), tile_codes(unit.blocks)[0])
        assert got[5] == bits  # the parsed unit's FrameBits

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mutated_frames_equal_the_oracle(self, data):
        # bit flips past the unit's tag, or a truncation
        unit, cols, rows = draw_frame(data.draw)
        unit_bytes, _ = written(unit, cols, rows)
        tag, body = unit_bytes[:1], unit_bytes[1:]
        got, want = parse_both(tag + mutate(body, data.draw), cols, rows)
        assert got == want

    @staticmethod
    def intra_row(*blocks) -> bytes:
        """An I-frame unit of one row of blocks, each given as its list of
        code values (mode symbol, then the tiles' codes)."""
        w = BitWriter()
        w.write_bits(UNIT_FRAME, 8)
        w.write_bits(0, 1)
        ue_encode(w, 0)
        write_ue_codes(w, [v for block in blocks for v in block])
        w.byte_align()
        return w.to_bytes()

    # a tile's codes: the count, then run and level code per pair
    EMPTY = [0] * 23
    ZERO_LEVEL = [1, 0, 0]
    OVERFLOW = [1, 64, 1]
    BEYOND = [1, 0, 2 * MAX_LEVEL + 1]
    COUNT = [65]

    @pytest.mark.parametrize("first,second,error", [
        (ZERO_LEVEL, OVERFLOW, "zero level"),
        (OVERFLOW, ZERO_LEVEL, "run overflows"),
        (BEYOND, ZERO_LEVEL, "level beyond"),
        (ZERO_LEVEL, COUNT, "zero level"),
        (COUNT, ZERO_LEVEL, "count 65 exceeds"),
    ])
    def test_first_fault_in_stream_order_names_the_error(self, first, second, error):
        # two faulty tiles, in blocks 0 and 2 of one window
        data = self.intra_row([0] + first + self.EMPTY, [0] + [0] * 24,
                              [0] + second + self.EMPTY)
        for got in parse_both(data, 3, 1):
            assert error in got

    @pytest.mark.parametrize("fault,error", [
        (ZERO_LEVEL, "zero level"), (COUNT, "count 65 exceeds")])
    def test_tiles_before_a_bad_mode_symbol_are_checked_first(self, fault, error):
        data = self.intra_row([0] + fault + self.EMPTY, [3] + [0] * 24)
        for got in parse_both(data, 2, 1):
            assert error in got
        data = self.intra_row([3] + [0] * 24, [0] + fault + self.EMPTY)
        for got in parse_both(data, 2, 1):
            assert "bad I-frame mode symbol 3" in got


def peak_bytes(call) -> int:
    """Peak traced allocation while call runs; call must raise StreamError."""
    tracemalloc.start()
    try:
        with pytest.raises(StreamError):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestResourceCaps:
    """Crafted headers end in StreamError before anything frame-sized is
    allocated."""

    def crafted(self, width, height, frames, payload=b""):
        # built by hand: write_header refuses a picture above the cap
        return struct.pack(">4sHHIBBB", b"NBV2", width, height, frames,
                           20, 0, 16) + payload

    def test_picture_above_the_luma_cap_rejected(self):
        data = self.crafted(0xFFFF, 0xFFFF, 1, bytes(64))
        for call in (lambda: parse_header(BitReader(data)),
                     lambda: parse_stream(data), lambda: decode_sequence(data)):
            assert peak_bytes(call) < 10 << 20

    def test_cap_is_hevc_level_6_2(self):
        assert MAX_LUMA_SAMPLES == 35_651_584 == 8192 * 4352
        parse_header(BitReader(self.crafted(8192, 4352, 1)))
        with pytest.raises(StreamError):
            parse_header(BitReader(self.crafted(8192, 4353, 1)))

    def test_stream_too_short_for_its_frames_rejected(self):
        data = self.crafted(8192, 4096, 1000, bytes(1024))
        assert parse_header(BitReader(data)).frame_count == 1000
        for call in (lambda: parse_stream(data), lambda: decode_sequence(data)):
            assert peak_bytes(call) < 10 << 20

    def test_shortest_possible_frames_accepted(self):
        # one ue(0) per tile is the least a block can cost
        header = StreamHeader(64, 32, 3, 20, False, 16)
        units = [("frame", frame_unit("I", [(BlockMode.INTRA_DC, None, zero_tiles())] * 2,
                                      cols=2)) for _ in range(3)]
        data = write_stream(header, units)
        assert len(data) * 8 - 120 < 3 * 2 * 24 + 3 * 24
        assert len(list(parse_stream(data)[1])) == 3
        with pytest.raises(StreamError):
            parse_stream(data[:15 + (3 * 2 * 24) // 8 - 1])

    def test_config_above_the_luma_cap_rejected(self):
        SequenceConfig(8192, 4352, 1, 20).validate()
        with pytest.raises(ValueError):
            SequenceConfig(8192, 4353, 1, 20).validate()
