"""Frames, padding, block access, config validation, and raw 4:2:0 file I/O."""

import tracemalloc

import numpy as np
import pytest

from conftest import rand_frame
from nbv.core import (
    BLOCK,
    CHROMA_BLOCK,
    MAX_SEARCH_RANGE,
    SAMPLES_PER_BLOCK,
    Block32,
    BlockCoord,
    SequenceConfig,
    blank_frame,
    block_grid_dims,
    extract_block,
    insert_block,
    make_frame,
    read_yuv,
    round_half_away,
    write_yuv,
    yuv_frame_bytes,
)


def test_block_geometry_constants():
    assert BLOCK == 32
    assert CHROMA_BLOCK == 16
    assert SAMPLES_PER_BLOCK == 1536


class TestRoundHalfAway:
    def test_halves_move_away_from_zero(self):
        vals = np.array([0.5, 1.5, 2.5, -0.5, -1.5, -2.5])
        assert np.array_equal(round_half_away(vals),
                              np.array([1.0, 2.0, 3.0, -1.0, -2.0, -3.0]))

    def test_non_halves_round_to_nearest(self):
        vals = np.array([0.4, 0.6, -0.4, -0.6, 2.0, -2.0, 0.0])
        assert np.array_equal(round_half_away(vals),
                              np.array([0.0, 1.0, 0.0, -1.0, 2.0, -2.0, 0.0]))

    @staticmethod
    def four_pass(x):
        """The former sign(x) * floor(|x| + 0.5), kept as the oracle."""
        return np.sign(x) * np.floor(np.abs(x) + 0.5)

    def test_equals_the_four_pass_form(self):
        k = np.arange(0.0, 200.0)
        edges = np.array([0.0, 0.49999999999999994, 2.0 ** 52 + 1, 1e300,
                          5e-324, np.inf, 2.0 ** 52 - 0.5, 2.0 ** 53])
        rng = np.random.default_rng(9)
        vals = np.concatenate([k + 0.5, k, edges, rng.normal(0, 1e3, 10_000),
                               rng.uniform(-4, 4, 10_000)])
        vals = np.concatenate([vals, -vals])
        got, want = round_half_away(vals), self.four_pass(vals)
        # equal in value everywhere; only a zero's sign may differ
        assert np.array_equal(got, want)
        differ = np.signbit(got) != np.signbit(want)
        assert np.all(got[differ] == 0.0)
        buf = vals.copy()  # in place, as encode_tiles and residual_tiles round
        assert round_half_away(buf, out=buf) is buf
        assert buf.tobytes() == got.tobytes()
        assert round_half_away(0.49999999999999994) == 1.0  # 0.5 + it rounds to 1
        assert np.isnan(round_half_away(np.nan))


class TestGridDims:
    @pytest.mark.parametrize("wh,expected", [
        ((3840, 2160), (120, 68)),
        ((32, 32), (1, 1)),
        ((33, 33), (2, 2)),
        ((1, 1), (1, 1)),
        ((96, 64), (3, 2)),
        ((320, 192), (10, 6)),
    ])
    def test_ceiling_division(self, wh, expected):
        assert block_grid_dims(*wh) == expected


class TestFramePadding:
    def test_non_multiple_dims_pad_by_edge_replication(self):
        y = np.arange(48 * 48, dtype=np.uint8).reshape(48, 48)
        cb = np.full((24, 24), 90, np.uint8)
        cr = np.full((24, 24), 160, np.uint8)
        fr = make_frame(y, cb, cr)
        assert (fr.width, fr.height) == (64, 64)
        assert (fr.display_width, fr.display_height) == (48, 48)
        assert fr.cb.shape == (32, 32)
        # padded area replicates the last row/column
        assert np.array_equal(fr.y[:48, 48:], np.repeat(y[:, 47:], 16, axis=1))
        assert np.array_equal(fr.y[48:, :], np.repeat(fr.y[47:48, :], 16, axis=0))

    def test_aligned_dims_pass_through(self):
        fr = rand_frame(64, 32, seed=1)
        assert (fr.width, fr.height) == (64, 32)
        assert (fr.display_width, fr.display_height) == (64, 32)

    def test_blank_frame(self):
        fr = blank_frame(40, 40, value=7)
        assert (fr.display_width, fr.display_height) == (40, 40)
        assert (fr.width, fr.height) == (64, 64)
        assert np.all(fr.y == 7) and np.all(fr.cb == 7) and np.all(fr.cr == 7)


class TestBlockAccess:
    def test_uniform_frame_yields_uniform_block(self):
        fr = blank_frame(64, 64, value=128)
        blk = extract_block(fr, BlockCoord(0, 0))
        assert blk.y.shape == (32, 32) and np.all(blk.y == 128)
        assert blk.cb.shape == (16, 16) and np.all(blk.cb == 128)
        assert blk.cr.shape == (16, 16) and np.all(blk.cr == 128)

    def test_extract_insert_inverse(self):
        fr = rand_frame(96, 64, seed=5)
        ref = fr.copy()
        for by in range(2):
            for bx in range(3):
                c = BlockCoord(bx, by)
                insert_block(fr, c, extract_block(fr, c))
        assert np.array_equal(fr.y, ref.y)
        assert np.array_equal(fr.cb, ref.cb)
        assert np.array_equal(fr.cr, ref.cr)

    def test_insert_lands_at_block_offsets(self):
        fr = blank_frame(64, 64)
        blk = Block32(
            np.full((32, 32), 9, np.uint8),
            np.full((16, 16), 8, np.uint8),
            np.full((16, 16), 7, np.uint8),
        )
        insert_block(fr, BlockCoord(1, 1), blk)
        assert np.all(fr.y[32:, 32:] == 9) and np.all(fr.y[:32, :] == 0)
        assert np.all(fr.cb[16:, 16:] == 8) and np.all(fr.cb[:16, :] == 0)

    def test_batched_insert_equals_one_call_per_block(self):
        src = rand_frame(96, 64, seed=6)
        coords = [(2, 1), (0, 0), (1, 1)]
        blocks = [extract_block(src, BlockCoord(*c)) for c in coords]
        stacked = Block32(*(np.stack(p) for p in
                            zip(*((b.y, b.cb, b.cr) for b in blocks))))
        one, batch = blank_frame(96, 64), blank_frame(96, 64)
        for c, b in zip(coords, blocks):
            insert_block(one, BlockCoord(*c), b)
        insert_block(batch, np.array(coords), stacked)
        for a, b in ((one.y, batch.y), (one.cb, batch.cb), (one.cr, batch.cr)):
            assert np.array_equal(a, b)
        with pytest.raises(ValueError, match="outside 3x2 grid"):
            insert_block(batch, np.array([(0, 0), (3, 1)]), stacked[:2])
        with pytest.raises(ValueError, match="outside 3x2 grid"):
            insert_block(batch, BlockCoord(0, -1), blocks[0])

    def test_out_of_grid_coordinate_rejected(self):
        fr = blank_frame(64, 64)
        with pytest.raises(ValueError):
            extract_block(fr, BlockCoord(2, 0))


class TestYuvIO:
    def test_write_read_round_trip(self, tmp_path):
        frames = [rand_frame(48, 32, seed=s) for s in range(3)]
        path = tmp_path / "clip.yuv"
        nbytes = write_yuv(path, frames)
        assert nbytes == 3 * (48 * 32 + 2 * 24 * 16)
        back = read_yuv(path, 48, 32, 3)
        for a, b in zip(frames, back):
            assert np.array_equal(a.y[:32, :48], b.y[:32, :48])
            assert np.array_equal(a.cb[:16, :24], b.cb[:16, :24])
            assert np.array_equal(a.cr[:16, :24], b.cr[:16, :24])

    def test_written_file_crops_to_display_size(self, tmp_path):
        fr = make_frame(
            np.full((40, 40), 1, np.uint8),
            np.full((20, 20), 2, np.uint8),
            np.full((20, 20), 3, np.uint8),
        )
        path = tmp_path / "one.yuv"
        write_yuv(path, [fr])
        raw = path.read_bytes()
        assert len(raw) == 40 * 40 + 2 * 20 * 20
        assert raw[:1600] == b"\x01" * 1600

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "short.yuv"
        path.write_bytes(bytes(100))
        with pytest.raises(ValueError, match="holds 100 bytes, need 2304"):
            read_yuv(path, 48, 32, 1)

    def test_reading_one_frame_of_a_long_file_holds_one_frame(self, tmp_path):
        fbytes = yuv_frame_bytes(96, 64)
        path = tmp_path / "long.yuv"
        path.write_bytes(np.arange(500 * fbytes, dtype=np.uint8).tobytes())
        tracemalloc.start()
        try:
            frames = read_yuv(path, 96, 64, 1)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * fbytes and held < 2 * fbytes
        assert frames[0].y.reshape(-1)[:3].tolist() == [0, 1, 2]


class TestSequenceConfig:
    def base(self, **kw) -> SequenceConfig:
        args = dict(width=96, height=64, frame_count=8, qp=20)
        args.update(kw)
        return SequenceConfig(**args)

    def test_valid_config_passes(self):
        self.base().validate()

    @pytest.mark.parametrize("kw", [
        {"width": 0},
        {"height": 0},
        {"width": 0x10000},
        {"frame_count": 0},
        {"qp": -1},
        {"qp": 52},
        {"search_range": -1},
        {"gnn_interval": 0},
        {"gnn_interval": 121},  # generator periods cap at 120
        {"gnn_enabled": False, "gnn_interval": 256},
        {"search_range": MAX_SEARCH_RANGE + 1},
        {"search_range": 1_000_000},
    ])
    def test_invalid_config_rejected(self, kw):
        with pytest.raises(ValueError):
            self.base(**kw).validate()

    def test_disabled_generator_allows_longer_keyframe_interval(self):
        self.base(gnn_enabled=False, gnn_interval=200).validate()

    def test_search_range_bounds_are_inclusive(self):
        self.base(search_range=0).validate()
        self.base(search_range=MAX_SEARCH_RANGE).validate()
