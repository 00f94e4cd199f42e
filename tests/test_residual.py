"""Transform, quantization, and run-level residual coding."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nbv.residual
from conftest import (
    apply_block_residual,
    dct8_inverse_int64,
    dequantize,
    dequantize_int,
    parse_frame,
    parse_tiles,
    quantize,
    rand_frame,
    start_tile_frame,
    tile_frame,
)
from nbv.core import Block32, BlockCoord, extract_block, round_half_away
from nbv.entropy import (
    BitReader,
    BitWriter,
    StreamError,
    se_to_ue,
    ue_encode,
    ue_lengths,
    write_ue_codes,
)
from nbv.residual import (
    _RECON_CHUNK,
    DCT_INT,
    DCT_MATRIX,
    FORWARD_BASIS,
    LEVEL_SCALE,
    MAX_LEVEL,
    RECON_BASIS,
    TILES_PER_BLOCK,
    ZIGZAG,
    add_residual,
    block_tiles,
    block_tiles_bits,
    coeff_bits,
    dct8_forward,
    dct8_inverse,
    encode_block_residual,
    encode_tiles,
    qstep,
    residual_planes,
    tile_codes,
)


def rand_tiles(rng, sparsity=0.9, scale=40):
    """One block's 24 level tiles with mostly-zero entries."""
    tiles = []
    for _ in range(24):
        levels = rng.integers(-scale, scale + 1, 64)
        levels[rng.random(64) < sparsity] = 0
        tiles.append(levels.astype(np.int32))
    return tiles


class TestTransform:
    def test_basis_is_orthonormal(self):
        eye = DCT_MATRIX @ DCT_MATRIX.T
        assert np.max(np.abs(eye - np.eye(8))) < 1e-12

    def test_uniform_tile_is_pure_dc(self):
        coeffs = dct8_forward(np.full((8, 8), 16.0))
        assert coeffs[0, 0] == pytest.approx(128.0, abs=1e-9)
        ac = coeffs.copy()
        ac[0, 0] = 0.0
        assert np.max(np.abs(ac)) < 1e-9

    def test_energy_preserved(self):
        rng = np.random.default_rng(0)
        tile = rng.normal(0, 50, (8, 8))
        coeffs = dct8_forward(tile)
        assert np.sum(coeffs**2) == pytest.approx(np.sum(tile**2), rel=1e-12)

    def test_inverse_recovers_forward_batched(self):
        rng = np.random.default_rng(1)
        tiles = rng.uniform(-255, 255, (10_000, 8, 8))
        back = dct8_inverse(dct8_forward(tiles))
        assert np.max(np.abs(back - tiles)) < 1e-9


class TestQuantization:
    @pytest.mark.parametrize("qp,step", [(0, 1.0), (6, 2.0), (12, 4.0), (18, 8.0)])
    def test_step_doubles_every_six(self, qp, step):
        assert qstep(qp) == pytest.approx(step)

    def test_max_qp_step(self):
        assert qstep(51) == pytest.approx(362.038, abs=1e-3)

    def test_qp_out_of_range(self):
        with pytest.raises(ValueError):
            qstep(52)
        with pytest.raises(ValueError):
            qstep(-1)

    def test_rounding_half_away(self):
        coeffs = np.zeros((8, 8))
        coeffs[0, 0] = 5.0
        levels = quantize(coeffs, 6)  # step 2: 2.5 -> 3
        assert levels[0] == 3
        coeffs[0, 0] = -0.4
        assert quantize(coeffs, 0)[0] == 0
        coeffs[0, 0] = -5.0
        assert quantize(coeffs, 6)[0] == -3

    def test_quantize_dequantize_error_bound(self):
        rng = np.random.default_rng(2)
        coeffs = rng.uniform(-100, 100, (8, 8))
        for qp in (0, 12, 24):
            back = dequantize(quantize(coeffs, qp), qp)
            assert np.max(np.abs(back - coeffs)) <= qstep(qp) / 2 + 1e-9

    def test_batch_matches_single_tiles(self):
        rng = np.random.default_rng(3)
        coeffs = rng.uniform(-300, 300, (24, 8, 8))
        tiles = [quantize(c, 20) for c in coeffs]  # as blocks carry them
        assert np.array_equal(quantize(coeffs, 20), tiles)
        single = np.stack([dequantize(t, 20) for t in tiles])
        assert np.array_equal(dequantize(tiles, 20), single)

    def test_zigzag_is_a_permutation(self):
        assert sorted(ZIGZAG.tolist()) == list(range(64))
        # first scan steps walk the top-left corner
        assert ZIGZAG[0] == 0 and ZIGZAG[1] == 1 and ZIGZAG[2] == 8
        assert ZIGZAG[63] == 63

    def test_quantize_orders_by_scan(self):
        coeffs = np.zeros((8, 8))
        coeffs[1, 0] = 12.0  # flat index 8, scan position 2
        levels = quantize(coeffs, 0)
        assert levels[2] == 12 and np.count_nonzero(levels) == 1
        assert dequantize(levels, 0)[1, 0] == pytest.approx(12.0)


def residual_kinds(rng, n=240):
    """(name, source, basis) uint8 tile batches, (n, 24, 8, 8) each, whose
    differences are random, flat, constant along each row or constant
    along each column. A tile's DC coefficient is its sum over 8, which at
    a power-of-two step can put its quotient exactly on a half step."""
    shape = (n, TILES_PER_BLOCK, 8, 8)
    basis = rng.integers(0, 256, shape, dtype=np.uint8)
    flat = rng.integers(-255, 256, (n, TILES_PER_BLOCK, 1, 1))
    rows = rng.integers(-255, 256, (n, TILES_PER_BLOCK, 8, 1))
    cols = rng.integers(-255, 256, (n, TILES_PER_BLOCK, 1, 8))
    kinds = [("random", rng.integers(0, 256, shape, dtype=np.uint8), basis)]
    for name, d in (("flat", flat), ("row-constant", rows), ("column-constant", cols)):
        # a basis that keeps basis + d within 0..255 everywhere
        lo, hi = np.maximum(0, -d), np.minimum(255, 255 - d)
        bas = (lo + rng.integers(0, 256, shape) % (hi - lo + 1)).astype(np.uint8)
        kinds.append((name, (bas + d).astype(np.uint8), bas))
    return kinds


def two_stage(source, basis, qp):
    """encode_tiles' levels from the two 8x8 passes of dct8_forward, then
    the division by the step and the zigzag gather of quantize."""
    return quantize(dct8_forward(np.subtract(source, basis, dtype=np.int16)), qp)


class TestFoldedForward:
    """encode_tiles' one product against the two-stage form."""

    def test_basis_is_both_passes_and_the_scan(self):
        rng = np.random.default_rng(7)
        tiles = rng.uniform(-255, 255, (50, 8, 8))
        want = dct8_forward(tiles).reshape(-1, 64)[:, ZIGZAG]
        assert np.max(np.abs(tiles.reshape(-1, 64) @ FORWARD_BASIS - want)) < 1e-9
        assert np.max(np.abs(FORWARD_BASIS.T @ FORWARD_BASIS - np.eye(64))) < 1e-12

    @pytest.mark.parametrize("qp", range(52))
    def test_levels_match_the_two_stage_form(self, qp):
        """Identical unless qp is a multiple of 6; there a level may differ
        only where the two-stage quotient lies on a half step."""
        step = qstep(qp)
        for name, src, bas in residual_kinds(np.random.default_rng(qp)):
            got = encode_tiles(src, bas, qp)
            want = two_stage(src, bas, qp)
            assert got.dtype == np.int16 and got.shape == want.shape
            assert np.max(np.abs(got), initial=0) <= MAX_LEVEL
            differ = got != want
            if qp % 6:
                assert not differ.any(), (name, int(differ.sum()))
                continue
            d = np.subtract(src, bas, dtype=np.int16)
            quotient = dct8_forward(d).reshape(want.shape)[..., ZIGZAG] / step
            half_off = np.abs(np.abs(quotient) % 1 - 0.5)
            assert np.all(half_off[differ] < 1e-9), name
            assert np.all(np.abs(got[differ] - want[differ]) == 1), name

    @pytest.mark.parametrize("qp", [0, 8, 20, 32])
    def test_batch_size_does_not_move_levels(self, qp):
        """A block's levels do not depend on how many blocks share the
        product, from one block (24 rows) to 400 (9,600 rows), so a BLAS
        kernel chosen by the matrix size may not round a row differently."""
        for name, src, bas in residual_kinds(np.random.default_rng(100 + qp), n=400):
            whole = encode_tiles(src, bas, qp)
            for lo, hi in ((0, 1), (1, 3), (3, 40), (40, 137), (137, 400)):
                assert np.array_equal(encode_tiles(src[lo:hi], bas[lo:hi], qp),
                                      whole[lo:hi]), (name, lo, hi)
        assert encode_tiles(src[:0], bas[:0], qp).shape == (0, TILES_PER_BLOCK, 64)


def legal_levels(rng, n, qp):
    """n random tiles from empty to dense, every |level * qstep| <= 2040."""
    bound = int(MAX_LEVEL // qstep(qp))
    levels = rng.integers(-bound, bound + 1, (n, 64))
    levels[rng.random((n, 64)) < rng.uniform(0.0, 1.0, (n, 1))] = 0
    return levels.astype(np.int32)


def kernel_tiles(levels, qp):
    """The codec's residual of any number of (n, 64) level tiles, (n, 8, 8),
    through residual_planes (so clipped to +-255): the tiles are padded
    with empty ones to whole blocks."""
    levels = np.asarray(levels)
    n = len(levels)
    padded = np.zeros((-(-n // 24) * 24, 64), levels.dtype)
    padded[:n] = levels
    tiles = block_tiles(residual_planes(padded.reshape(-1, 24, 64), qp))
    return tiles.reshape(-1, 8, 8)[:n]


def int64_residual(levels, qp):
    """The plain int64 residual of level tiles, clipped as the codec clips."""
    return np.clip(dct8_inverse_int64(dequantize_int(levels, qp)), -255, 255)


def dct8_inverse_int(coeffs):
    """The integer inverse DCT of dequantize_int's tiles with both passes
    in float64, a second exact form of dct8_inverse_int64: each DCT_INT
    column sums to at most 43,284 < 2^16 in absolute value.
    For |C| < 2^32, pass 1's sums t stay below 2^48. Pass 2 takes them
    split in 24-bit halves, t >> 24 and t & 0xFFFFFF, each below 2^24 in
    absolute value, so its two products stay below 2^40; they are joined
    in int64, below 2^32 * 43,284^2 < 2^63."""
    basis = DCT_INT.astype(np.float64)
    t = basis.T @ np.asarray(coeffs, np.float64)
    high = np.floor(t * 2.0 ** -24)
    t -= high * 2.0 ** 24
    x = (high @ basis).astype(np.int64)
    x <<= 24
    x += (t @ basis).astype(np.int64)
    x += (1 << 39) - (x < 0)
    x >>= 40
    return x


class TestFixedPoint:
    """The integer reconstruction against its float reference."""

    def test_scale_table_is_two_to_the_sixth_root(self):
        assert LEVEL_SCALE.tolist() == [4096, 4598, 5161, 5793, 6502, 7298]
        for qp in range(52):
            one = dequantize_int(np.eye(64, dtype=np.int32)[0], qp)[0, 0]
            assert one == int(LEVEL_SCALE[qp % 6]) << (qp // 6)
            assert abs(one / 4096 - qstep(qp)) <= qstep(qp) * 1e-4

    def test_dequantize_places_levels_by_scan(self):
        levels = np.zeros(64, dtype=np.int32)
        levels[2] = 12  # scan position 2 is row 1, column 0
        coeffs = dequantize_int(levels, 0)
        assert coeffs.dtype == np.int64
        assert coeffs[1, 0] == 12 << 12 and np.count_nonzero(coeffs) == 1
        assert np.array_equal(dequantize_int(levels, 6), 2 * coeffs)

    def test_dequantize_error_bound(self):
        rng = np.random.default_rng(2)
        coeffs = rng.uniform(-100, 100, (8, 8))
        for qp in (0, 12, 24, 51):
            back = dequantize_int(quantize(coeffs, qp), qp) / 4096
            assert np.max(np.abs(back - coeffs)) <= qstep(qp) / 2 + 100 * 1e-4

    def test_batch_matches_single_tiles(self):
        levels = legal_levels(np.random.default_rng(3), 24, 20)
        single = np.stack([dequantize_int(t, 20) for t in levels])
        assert np.array_equal(dequantize_int(levels, 20), single)

    @pytest.mark.parametrize("qp", [0, 8, 20, 32, 51])
    def test_within_one_of_the_float_reference(self, qp):
        levels = legal_levels(np.random.default_rng(qp), 20_000, qp)
        want = np.clip(round_half_away(dct8_inverse(dequantize(levels, qp))), -255, 255)
        assert np.max(np.abs(kernel_tiles(levels, qp) - want)) <= 1

    def test_dc_only_tiles_are_exact(self):
        levels = np.zeros((6, 64), dtype=np.int32)
        levels[:, 0] = [16, -16, 2040, -2040, 4, -4]  # 8 * pixel value at qp 0
        res = kernel_tiles(levels, 0)
        for tile, want in zip(res, (2, -2, 255, -255, 1, -1)):  # +-0.5 -> +-1
            assert np.all(tile == want)
        assert np.all(kernel_tiles(levels[4:5], 6) == 1)

    def test_exact_halves_round_away_from_zero(self):
        # at qp 48 the scale is 2^20, so a pixel is its sum over
        # RECON_BASIS / 2^20; this tile puts pixel (3, 5) at -73.5 exactly
        levels = np.zeros(64, np.int64)
        for z, level in ((3, 2), (11, 1), (18, -2), (31, 1), (33, 1), (34, 1),
                         (37, 2), (40, 1), (43, 1), (47, -2), (49, 1), (54, 1),
                         (58, -2)):
            levels[z] = level
        basis = RECON_BASIS.tolist()
        for sign in (1, -1):
            got = kernel_tiles(sign * levels[None], 48)[0]
            for m in range(64):
                x = sum(sign * int(v) * basis[z][m] for z, v in enumerate(levels))
                want = min((abs(x) + (1 << 19)) >> 20, 255)  # exact Python ints
                assert got[m // 8, m % 8] == (want if x > 0 else -want)
            assert got[3, 5] == sign * -74

    def test_split_oracle_rounds_exact_halves_away_from_zero(self):
        # DCT_INT[2, 0] = 7568 = 2^4 * 473, so a coefficient of 2^31 there
        # puts pixel (0, 0) at 473^2 / 2 exactly
        basis = DCT_INT[2].tolist()
        for sign in (1, -1):
            coeffs = np.zeros((8, 8), np.int64)
            coeffs[2, 2] = sign << 31
            for inverse in (dct8_inverse_int, dct8_inverse_int64):
                got = inverse(coeffs)
                for i in range(8):
                    for j in range(8):
                        x = (sign << 31) * basis[i] * basis[j]  # exact Python ints
                        want = (abs(x) + (1 << 39)) >> 40
                        assert got[i, j] == (want if x > 0 else -want)
                assert got[0, 0] == sign * (473**2 + 1) // 2

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 51), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_result_is_independent_of_layout_and_batching(self, qp, n, seed):
        rng = np.random.default_rng(seed)
        levels = legal_levels(rng, n * 24, qp).reshape(n, 24, 64)
        want = block_tiles(residual_planes(levels, qp))
        assert np.array_equal(want, int64_residual(levels, qp))
        transposed = np.ascontiguousarray(levels.swapaxes(-1, -2)).swapaxes(-1, -2)
        assert not transposed.flags.c_contiguous
        strided = np.zeros(levels.shape[:-1] + (128,), np.int32)
        strided[..., ::2] = levels
        for layout in (np.asfortranarray(levels), transposed, strided[..., ::2],
                       levels.astype(np.int16), levels.astype(np.int64)):
            assert np.array_equal(block_tiles(residual_planes(layout, qp)), want)
        assert np.array_equal(block_tiles(residual_planes(levels[::-1], qp)),
                              want[::-1])
        one_at_a_time = np.stack([block_tiles(residual_planes(b, qp))
                                  for b in levels])
        assert np.array_equal(one_at_a_time, want)


class TestReconBasis:
    """residual_planes' one matrix product against the plain int64 form:
    equal bit for bit at every qp, the extremes of the legal levels too."""

    def test_basis_is_both_passes_in_scan_order(self):
        assert RECON_BASIS.dtype == np.int64 and RECON_BASIS.shape == (64, 64)
        for z, flat in enumerate(ZIGZAG.tolist()):
            k, l = divmod(flat, 8)
            want = np.outer(DCT_INT[k], DCT_INT[l]).ravel()
            assert np.array_equal(RECON_BASIS[z], want)

    def test_bounds_of_the_exact_range(self):
        # the largest partial sum of the float64 product, then its product
        # with the largest level scale in int64
        column = int(np.abs(RECON_BASIS).sum(axis=0).max())
        assert column == 43_284**2
        assert column * MAX_LEVEL < 2**53
        top_scale = max(int(LEVEL_SCALE[qp % 6]) << (qp // 6) for qp in range(52))
        assert top_scale == 5793 << 8  # qp 51
        assert column * MAX_LEVEL * top_scale < 2**63

    @staticmethod
    def batches(qp):
        rng = np.random.default_rng(1000 + qp)
        extreme = np.full((2, 24, 64), MAX_LEVEL)
        extreme[1] = -MAX_LEVEL
        signs = rng.choice([-MAX_LEVEL, MAX_LEVEL], (4, 24, 64))
        # each value alone at each of the 64 scan positions, 16 blocks
        one_hot = np.zeros((6 * 64, 64), np.int64)
        one_hot[np.arange(6 * 64), np.arange(6 * 64) % 64] = np.repeat(
            [MAX_LEVEL, -MAX_LEVEL, 1, -1, 255, -1024], 64)
        # 834 blocks, 20,016 tiles, from empty to dense
        random = rng.integers(-MAX_LEVEL, MAX_LEVEL + 1, (834 * 24, 64))
        random[rng.random(random.shape) < rng.uniform(0.0, 1.0, (len(random), 1))] = 0
        return [extreme, signs, one_hot.reshape(-1, 24, 64), random.reshape(-1, 24, 64)]

    @pytest.mark.parametrize("qp", range(52))
    def test_equals_the_int64_form(self, qp):
        for levels in self.batches(qp):
            want = int64_residual(levels, qp)
            for dtype in (np.int16, np.int32):
                got = block_tiles(residual_planes(levels.astype(dtype), qp))
                assert np.array_equal(got, want)


class TestInverseAgainstInt64:
    """The float64 split oracle equals the int64 products bit for bit, at
    the extremes of the legal levels too."""

    @staticmethod
    def batches(qp):
        rng = np.random.default_rng(qp)
        extreme = rng.choice([-MAX_LEVEL, MAX_LEVEL], (64, 64))
        extreme[:2] = [MAX_LEVEL], [-MAX_LEVEL]  # all +2040, all -2040
        single = np.zeros((4 * 64, 64), np.int64)
        single[np.arange(4 * 64), np.arange(4 * 64) % 64] = np.repeat(
            [MAX_LEVEL, -MAX_LEVEL, 1, -1], 64)
        sparse = rng.integers(-MAX_LEVEL, MAX_LEVEL + 1, (2000, 64))
        sparse[rng.random((2000, 64)) < rng.uniform(0.5, 1.0, (2000, 1))] = 0
        return [extreme, single, sparse]

    @pytest.mark.parametrize("qp", [0, 8, 20, 32, 51])
    def test_equals_the_int64_products(self, qp):
        for levels in self.batches(qp):
            coeffs = dequantize_int(levels, qp)
            assert np.array_equal(dct8_inverse_int(coeffs), dct8_inverse_int64(coeffs))

    def test_bound_of_the_exact_range(self):
        # the largest dequantized coefficient, and pass 1's largest sum
        top = MAX_LEVEL * int(LEVEL_SCALE[51 % 6] << (51 // 6))
        column = int(np.abs(DCT_INT).sum(axis=0).max())
        assert column == 43_284
        assert top < 2**32 and 2**32 * column < 2**48
        assert 2**32 * column**2 < 2**63


class TestLevelBound:
    """Levels beyond +-MAX_LEVEL end in StreamError when a stream is parsed."""

    def test_full_range_residual_quantizes_to_the_bound(self):
        full = Block32(np.full((32, 32), 255, np.uint8), np.full((16, 16), 255, np.uint8),
                       np.full((16, 16), 255, np.uint8))
        empty = Block32(np.zeros((32, 32), np.uint8), np.zeros((16, 16), np.uint8),
                        np.zeros((16, 16), np.uint8))
        for src, basis, dc in ((full, empty, MAX_LEVEL), (empty, full, -MAX_LEVEL)):
            levels = encode_block_residual(src, basis, 0)
            assert np.all(levels[:, 0] == dc) and not np.any(levels[:, 1:])
            back = parse_tiles(tile_frame(levels)[0], 24)
            assert np.array_equal(back, levels)
            rec = apply_block_residual(basis, back, 0)
            for a, b in ((rec.y, src.y), (rec.cb, src.cb), (rec.cr, src.cr)):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("level", [MAX_LEVEL + 1, -MAX_LEVEL - 1, 2**31 - 1])
    def test_level_beyond_the_bound_rejected(self, level):
        w = BitWriter()
        start_tile_frame(w)
        write_ue_codes(w, tile_codes(np.zeros((3, 64), np.int32))[0])
        for v in (2, 0):  # two coefficients, the first at position 0
            ue_encode(w, v)
        ue_encode(w, se_to_ue(1))
        ue_encode(w, 5)
        ue_encode(w, se_to_ue(level))
        with pytest.raises(StreamError, match="level beyond"):
            parse_frame(BitReader(w.to_bytes()), 1, 1)

    def test_level_two_to_the_forty_rejected(self):
        # se(2^40) is ue(2^41 - 1): 41 zeros, a 1, then 41 zeros
        w = BitWriter()
        start_tile_frame(w)
        for v in (1, 0):
            ue_encode(w, v)
        for n in (32, 9):
            w.write_bits(0, n)
        w.write_bits(1, 1)
        for n in (32, 9):
            w.write_bits(0, n)
        with pytest.raises(StreamError):
            parse_frame(BitReader(w.to_bytes()), 1, 1)


# what the frame parser says about each fault in a tile
FAULTS = {"count": "count 65 exceeds", "run": "run overflows",
          "zero_level": "zero level"}


def bad_tile_rejected(fault, *codes):
    """A one-block frame whose first tile is the given ue codes must end
    in the StreamError of that fault."""
    w = BitWriter()
    start_tile_frame(w)
    for v in codes:
        ue_encode(w, v)
    with pytest.raises(StreamError, match=FAULTS[fault]):
        parse_frame(BitReader(w.to_bytes()), 1, 1)


class TestCoefficientCoding:
    def test_all_zero_tile_costs_one_bit(self):
        w = BitWriter()
        bits = write_ue_codes(w, tile_codes(np.zeros(64, dtype=np.int32))[0])
        assert bits == 1
        assert coeff_bits(np.zeros(64, dtype=np.int32)) == 1

    def test_dc_only_tile_codeword(self):
        levels = np.zeros(64, dtype=np.int32)
        levels[0] = 3
        w = BitWriter()
        bits = write_ue_codes(w, tile_codes(levels)[0])
        # count=1 "010", run=0 "1", level 3 -> "00110"
        assert bits == 9
        assert f"{int.from_bytes(w.to_bytes(), 'big'):016b}"[:9] == "010" + "1" + "00110"

    def test_round_trip_many_random_tiles(self):
        rng = np.random.default_rng(3)
        tiles = rng.integers(-31, 32, (10_000, 64))
        tiles[rng.random((10_000, 64)) < 0.85] = 0
        tiles = tiles.astype(np.int32)
        assert np.array_equal(parse_tiles(tile_frame(tiles)[0], 10_000), tiles)

    def test_coeff_bits_matches_written_bits(self):
        rng = np.random.default_rng(4)
        batch, written = [], []
        for _ in range(200):
            levels = rng.integers(-300, 301, 64)
            levels[rng.random(64) < rng.uniform(0.3, 1.0)] = 0
            levels = levels.astype(np.int32)
            w = BitWriter()
            written.append(write_ue_codes(w, tile_codes(levels)[0]))
            assert written[-1] == coeff_bits(levels)
            batch.append(levels)
        # one call over all tiles gives each tile's count
        assert np.array_equal(coeff_bits(np.reshape(batch, (10, 20, 64))),
                              np.reshape(written, (10, 20)))

    def test_count_above_tile_size_rejected(self):
        bad_tile_rejected("count", 65)

    def test_run_overflow_rejected(self):
        # two coefficients: the first lands at position 62, the second
        # would land at 64; ue(1) is se(1)
        bad_tile_rejected("run", 2, 62, 1, 1, 1)

    def test_zero_level_rejected(self):
        bad_tile_rejected("zero_level", 1, 0, 0)


def scalar_tile_codes(w, levels):
    """The run-level syntax spelled out one code at a time."""
    nz = np.flatnonzero(levels)
    ue_encode(w, len(nz))
    prev = -1
    for idx in nz:
        ue_encode(w, int(idx) - prev - 1)
        ue_encode(w, se_to_ue(int(levels[idx])))
        prev = int(idx)


def random_tile_batch(rng, n):
    """n tiles from empty to dense, with levels up to qp 0's extremes."""
    tiles = rng.integers(-2040, 2041, (n, 64)) >> rng.integers(0, 12, (n, 1))
    tiles[rng.random((n, 64)) < rng.uniform(0.0, 1.0, (n, 1))] = 0
    tiles[: n // 8] = 0
    tiles[n // 8: n // 4, 63] = rng.choice([-1, 1], n // 4 - n // 8)
    return tiles.astype(np.int32)


class TestBulkTiles:
    """The bulk tile codes against a one-code-at-a-time spelling."""

    @pytest.mark.parametrize("seed", range(3))
    def test_written_bits_equal_scalar_codes(self, seed):
        tiles = random_tile_batch(np.random.default_rng(seed), 300)
        scalar, bulk = BitWriter(), BitWriter()
        for w in (scalar, bulk):
            w.write_bits(0, seed + 1)
        for t in tiles:
            scalar_tile_codes(scalar, t)
        assert (write_ue_codes(bulk, tile_codes(tiles)[0])
                == scalar.bit_position - seed - 1)
        assert bulk.to_bytes() == scalar.to_bytes()

    def test_code_lengths_equal_coeff_bits(self):
        tiles = random_tile_batch(np.random.default_rng(5), 200)
        for t, want in zip(tiles, coeff_bits(tiles)):
            codes, counts = tile_codes(t)
            assert counts == np.count_nonzero(t)
            assert ue_lengths(codes).sum() == want

    @pytest.mark.parametrize("seed", range(3))
    def test_many_tiles_read_back_across_chunks(self, seed):
        tiles = random_tile_batch(np.random.default_rng(10 + seed), 500)
        data, bits = tile_frame(tiles)
        assert bits > 100_000  # several chunks at the cap
        assert np.array_equal(parse_tiles(data, len(tiles)), tiles)

    @pytest.mark.parametrize("fault", ["count", "run", "zero_level"])
    def test_fault_in_a_later_tile_is_stream_error(self, fault):
        w = BitWriter()
        start_tile_frame(w)
        tiles = random_tile_batch(np.random.default_rng(1), 23)
        write_ue_codes(w, tile_codes(tiles)[0])
        if fault == "count":
            ue_encode(w, 65)
        elif fault == "run":
            for v in (2, 30, 1, 33, 1):  # second coefficient lands at 64
                ue_encode(w, v)
        else:
            for v in (1, 0, 0):
                ue_encode(w, v)
        w.write_bits(0xFFFF, 16)
        with pytest.raises(StreamError, match=FAULTS[fault]):
            parse_frame(BitReader(w.to_bytes()), 1, 1)

    def test_every_truncation_is_stream_error(self):
        tiles = random_tile_batch(np.random.default_rng(2), 24)
        data, _ = tile_frame(tiles)
        for cut in range(len(data)):
            with pytest.raises(StreamError):
                parse_frame(BitReader(data[:cut]), 1, 1)


class TestBlockResidual:
    def block_pair(self, seed):
        fr = rand_frame(64, 64, seed=seed)
        fr2 = rand_frame(64, 64, seed=seed + 100)
        return extract_block(fr, BlockCoord(0, 0)), extract_block(fr2, BlockCoord(0, 0))

    def test_block_has_24_tiles(self):
        src, basis = self.block_pair(0)
        tiles = encode_block_residual(src, basis, qp=20)
        assert len(tiles) == 24
        assert all(t.shape == (64,) for t in tiles)

    def test_lossless_at_qp0_within_two(self):
        for seed in range(5):
            src, basis = self.block_pair(seed)
            tiles = encode_block_residual(src, basis, qp=0)
            rec = apply_block_residual(basis, tiles, qp=0)
            for a, b in ((rec.y, src.y), (rec.cb, src.cb), (rec.cr, src.cr)):
                assert np.max(np.abs(a.astype(int) - b.astype(int))) <= 2

    def test_identical_basis_codes_to_silence(self):
        src, _ = self.block_pair(1)
        tiles = encode_block_residual(src, src, qp=20)
        assert all(np.count_nonzero(t) == 0 for t in tiles)
        assert block_tiles_bits(tiles) == 24
        rec = apply_block_residual(src, tiles, qp=20)
        assert np.array_equal(rec.y, src.y)

    def test_distortion_never_worse_at_lower_qp(self):
        src, basis = self.block_pair(2)

        def sse(qp):
            rec = apply_block_residual(basis, encode_block_residual(src, basis, qp), qp)
            total = 0
            for a, b in ((rec.y, src.y), (rec.cb, src.cb), (rec.cr, src.cr)):
                d = a.astype(np.int64) - b.astype(np.int64)
                total += int((d * d).sum())
            return total

        errs = [sse(qp) for qp in (0, 12, 24, 36)]
        assert errs == sorted(errs)

    def test_tiles_round_trip_through_bits(self):
        rng = np.random.default_rng(5)
        tiles = rand_tiles(rng)
        data, bits = tile_frame(tiles)
        assert bits == block_tiles_bits(tiles)
        back = parse_tiles(data, 24)
        assert len(back) == 24
        for a, b in zip(tiles, back):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("case", ["zero", "last_scan_position", "dense", "qp0_extremes"])
    def test_tile_bits_equal_written_bits(self, case):
        rng = np.random.default_rng(6)
        tiles = np.zeros((24, 64), dtype=np.int32)
        if case == "last_scan_position":
            tiles[:, 63] = rng.choice([-3, -1, 1, 2], 24)
        elif case == "dense":
            tiles[:] = rng.choice([-5, -2, -1, 1, 3, 7], (24, 64))
        elif case == "qp0_extremes":
            # the largest levels qp 0 produces: a DC of 8 * 255 = 2040
            tiles[:] = rng.choice([-1000, 1000], (24, 64))
            tiles[:, 0] = rng.choice([-2040, 2040], 24)
        data, bits = tile_frame(tiles)
        assert block_tiles_bits(tiles) == bits
        assert np.array_equal(parse_tiles(data, 24), tiles)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_stacked_candidates_match_single_calls(self, n):
        rng = np.random.default_rng(n)
        src, _ = self.block_pair(n)
        bases = [extract_block(rand_frame(64, 64, seed=50 + 10 * n + i), BlockCoord(0, 0))
                 for i in range(n)]
        # half of them near the source, so that small residuals occur too
        for b in bases[::2]:
            for dst, ref in ((b.y, src.y), (b.cb, src.cb), (b.cr, src.cr)):
                noise = rng.integers(-6, 7, ref.shape)
                dst[:] = np.clip(ref.astype(int) + noise, 0, 255)
        stacked = Block32(np.stack([b.y for b in bases]),
                          np.stack([b.cb for b in bases]),
                          np.stack([b.cr for b in bases]))
        for qp in (0, 14, 33):
            levels = encode_block_residual(src, stacked, qp)
            bits = block_tiles_bits(levels)
            rec = apply_block_residual(stacked, levels, qp)
            assert levels.shape == (n, 24, 64) and bits.shape == (n,)
            for i, b in enumerate(bases):
                single = encode_block_residual(src, b, qp)
                assert np.array_equal(levels[i], single)
                assert bits[i] == block_tiles_bits(single)
                one = apply_block_residual(b, single, qp)
                for a, c in ((rec.y[i], one.y), (rec.cb[i], one.cb), (rec.cr[i], one.cr)):
                    assert a.dtype == c.dtype == np.uint8
                    assert np.array_equal(a, c)

    def test_reconstruction_clamps_to_8bit(self):
        src, _ = self.block_pair(3)
        dark = Block32(
            np.zeros((32, 32), np.uint8),
            np.zeros((16, 16), np.uint8),
            np.zeros((16, 16), np.uint8),
        )
        tiles = encode_block_residual(src, dark, qp=0)
        rec = apply_block_residual(dark, tiles, qp=0)
        assert rec.y.dtype == np.uint8
        assert np.max(np.abs(rec.y.astype(int) - src.y.astype(int))) <= 2


def level_batches():
    """(name, (..., 24, 64) levels) batches from empty to dense."""
    rng = np.random.default_rng(31)
    last = np.zeros((3, 24, 64), np.int32)
    last[1, 7, 63] = -5  # one nonzero, at the last scan position
    extreme = rng.choice([-MAX_LEVEL, MAX_LEVEL], (2, 24, 64)).astype(np.int32)
    sparse = rng.integers(-40, 41, (4, 5, 24, 64)).astype(np.int32)
    sparse[rng.random(sparse.shape) < 0.97] = 0
    # every tile coded, and a tile count that is not a multiple of the chunk
    dense = rng.integers(-MAX_LEVEL, MAX_LEVEL + 1,
                         (_RECON_CHUNK // 24 + 3, 24, 64)).astype(np.int32)
    return [("empty", np.zeros((5, 24, 64), np.int32)), ("scan_63", last),
            ("extreme", extreme), ("sparse", sparse), ("dense", dense)]


class TestResidualPlanes:
    """residual_planes inverse transforms only the coded tiles; each plane
    must equal the dense integer inverse of every tile, clipped to +-255."""

    @pytest.mark.parametrize("qp", [0, 8, 20, 32, 51])
    @pytest.mark.parametrize("name,levels", level_batches())
    def test_equals_the_dense_clipped_inverse(self, qp, name, levels):
        want = int64_residual(levels, qp)
        planes = residual_planes(levels, qp)
        assert planes.y.shape == levels.shape[:-2] + (32, 32)
        assert planes.cb.shape == planes.cr.shape == levels.shape[:-2] + (16, 16)
        assert all(p.dtype == np.int16 for p in (planes.y, planes.cb, planes.cr))
        assert np.array_equal(block_tiles(planes), want)

    def test_clip_to_255_is_exact_for_every_uint8_basis(self):
        # a residual beyond +-255 takes every basis to the same end of 0..255
        _, levels = level_batches()[2]
        raw = dct8_inverse_int64(dequantize_int(levels, 51))
        assert np.abs(raw).max() > 255
        planes = residual_planes(levels, 51)
        for value in (0, 1, 128, 254, 255):
            basis = Block32(*(np.full(p.shape, value, np.uint8)
                              for p in (planes.y, planes.cb, planes.cr)))
            got = block_tiles(add_residual(basis, planes))
            assert np.array_equal(got, np.clip(value + raw, 0, 255))

    def test_rejects_a_bad_qp_even_with_nothing_coded(self):
        with pytest.raises(ValueError, match="qp out of range"):
            residual_planes(np.zeros((24, 64), np.int32), 52)

    def test_peak_memory_is_bounded_by_the_chunk_not_the_batch(self):
        levels = np.random.default_rng(6).integers(1, 5, (2040, 24, 64)).astype(np.int32)
        tracemalloc.start()
        try:
            planes = residual_planes(levels, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = sum(p.nbytes for p in (planes.y, planes.cb, planes.cr))
        # the planes and one int16 tile buffer of the same size, plus a
        # few int64 temporaries of one chunk; one dense int64 pass over
        # this batch would alone take 4 * out = 25 MB
        assert peak < 2 * out + 8 * _RECON_CHUNK * 64 * 8


class TestSparsePairs:
    """coeff_bits and tile_codes list run-level pairs from the nonzero
    levels only; on the edge cases they must still agree bit for bit."""

    @staticmethod
    def edge_tiles():
        rng = np.random.default_rng(12)
        empty = np.zeros((3, 64), np.int32)
        full = rng.choice([-MAX_LEVEL, -1, 1, 7, MAX_LEVEL], (3, 64)).astype(np.int32)
        last = np.zeros((3, 64), np.int32)
        last[:, 63] = (1, -2, MAX_LEVEL)
        return np.concatenate([empty, full, last, empty[:1], last[:1], full[:1]])

    def test_bits_equal_the_ue_lengths_of_the_codes(self):
        tiles = self.edge_tiles()
        bits = coeff_bits(tiles)
        codes, counts = tile_codes(tiles)
        assert list(counts) == [0] * 3 + [64] * 3 + [1] * 3 + [0, 1, 64]
        assert ue_lengths(codes).sum() == bits.sum()
        for t, want in zip(tiles, bits):
            one, _ = tile_codes(t)
            assert ue_lengths(one).sum() == want == coeff_bits(t)
        assert np.array_equal(coeff_bits(tiles.reshape(4, 3, 64)), bits.reshape(4, 3))

    @staticmethod
    def nonzero_pairs(flat):
        """The former _pairs, from the 2-D np.nonzero, kept as the oracle."""
        tile, scan = np.nonzero(flat)
        prev = np.empty_like(scan)
        prev[:1] = -1
        prev[1:] = np.where(tile[1:] == tile[:-1], scan[:-1], -1)
        return tile, scan - prev - 1, se_to_ue(flat[tile, scan].astype(np.int64))

    @pytest.mark.parametrize("dtype", [np.int16, np.int32])
    def test_equal_the_2d_nonzero_form(self, monkeypatch, dtype):
        rng = np.random.default_rng(14)
        sparse = rng.integers(-9, 10, (40, 64))
        sparse[rng.random((40, 64)) < 0.9] = 0
        batches = [self.edge_tiles(), np.zeros((5, 64), np.int32),
                   sparse, rng.choice([-MAX_LEVEL, -3, 2, MAX_LEVEL], (6, 64)),
                   np.zeros((0, 64), np.int32)]
        for tiles in (t.astype(dtype) for t in batches):
            got = coeff_bits(tiles), *tile_codes(tiles)
            with monkeypatch.context() as m:
                m.setattr(nbv.residual, "_pairs", self.nonzero_pairs)
                want = coeff_bits(tiles), *tile_codes(tiles)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def test_scan_63_alone_runs_63_zeros(self):
        tile = np.zeros(64, np.int32)
        tile[63] = -2
        codes, count = tile_codes(tile)
        # count 1, run 63, level -2 (se code 4)
        assert count == 1 and list(codes) == [1, 63, 4]
