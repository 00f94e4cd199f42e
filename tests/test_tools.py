"""Synthetic sequences, quality metrics, and stream bit accounting."""

import math

import numpy as np
import pytest

from nbv.bitstream import BIT_CATEGORIES, param_set_bits
from nbv.core import Frame, block_grid_dims
from nbv.entropy import StreamError
from nbv.gnn import param_count
from nbv.tools import (
    PSNR_CAP,
    SYNTH_KINDS,
    bit_accounting,
    frame_psnr,
    plane_psnr,
    synth_sequence,
)


class TestSynthSequence:
    def test_static_frames_are_identical(self):
        frames = synth_sequence("static", 64, 32, 4, seed=1)
        for fr in frames[1:]:
            assert np.array_equal(fr.y, frames[0].y)
            assert np.array_equal(fr.cb, frames[0].cb)

    def test_same_seed_reproduces_bytes(self):
        a = synth_sequence("pan", 64, 32, 3, velocity=(2, 0), seed=5)
        b = synth_sequence("pan", 64, 32, 3, velocity=(2, 0), seed=5)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.y, fb.y)
            assert np.array_equal(fa.cr, fb.cr)

    def test_different_seed_changes_content(self):
        a = synth_sequence("static", 64, 32, 1, seed=5)
        b = synth_sequence("static", 64, 32, 1, seed=6)
        assert not np.array_equal(a[0].y, b[0].y)

    def test_pan_interior_is_an_exact_shift(self):
        frames = synth_sequence("pan", 96, 64, 5, velocity=(4, 0), seed=2)
        for prev, cur in zip(frames, frames[1:]):
            assert np.array_equal(cur.y[:64, :92], prev.y[:64, 4:96])
            assert np.array_equal(cur.cb[:32, :46], prev.cb[:32, 2:48])

    def test_vertical_pan_shifts_rows(self):
        frames = synth_sequence("pan", 64, 96, 4, velocity=(0, 2), seed=3)
        for prev, cur in zip(frames, frames[1:]):
            assert np.array_equal(cur.y[:94, :64], prev.y[2:96, :64])

    def test_pan_leaving_canvas_rejected(self):
        with pytest.raises(ValueError):
            synth_sequence("pan", 96, 64, 60, velocity=(4, 0), seed=0)

    def test_zoom_out_starts_at_the_unscaled_crop(self):
        static = synth_sequence("static", 96, 64, 1, seed=4)
        zoom = synth_sequence("zoom_out", 96, 64, 3, velocity=(4, 0), seed=4)
        assert np.array_equal(zoom[0].y, static[0].y)
        assert not np.array_equal(zoom[1].y, zoom[0].y)

    def test_zoom_in_reverses_zoom_out(self):
        out = synth_sequence("zoom_out", 96, 64, 4, velocity=(3, 0), seed=5)
        inn = synth_sequence("zoom_in", 96, 64, 4, velocity=(3, 0), seed=5)
        for t in range(4):
            assert np.array_equal(inn[t].y, out[3 - t].y)

    def test_zoom_window_leaving_canvas_rejected(self):
        with pytest.raises(ValueError):
            synth_sequence("zoom_out", 96, 64, 40, velocity=(8, 0), seed=0)

    def test_kind_and_geometry_validation(self):
        assert SYNTH_KINDS == ("static", "pan", "zoom_out", "zoom_in")
        with pytest.raises(ValueError):
            synth_sequence("wobble", 64, 32, 1)
        with pytest.raises(ValueError):
            synth_sequence("static", 63, 32, 1)  # odd luma width
        with pytest.raises(ValueError):
            synth_sequence("static", 64, 32, 0)


class TestPsnr:
    def test_identical_planes_hit_the_cap(self):
        a = np.full((16, 16), 77, np.uint8)
        assert plane_psnr(a, a.copy()) == PSNR_CAP == 99.0

    def test_uniform_difference_closed_form(self):
        a = np.zeros((16, 16), np.uint8)
        b = np.full((16, 16), 16, np.uint8)
        want = 20 * math.log10(255 / 16)
        assert plane_psnr(a, b) == pytest.approx(want, abs=1e-9)
        assert plane_psnr(a, b) == pytest.approx(24.0484, abs=1e-3)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        a = rng.integers(0, 256, (24, 24), dtype=np.uint8)
        b = rng.integers(0, 256, (24, 24), dtype=np.uint8)
        assert plane_psnr(a, b) == plane_psnr(b, a)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            plane_psnr(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_frame_psnr_ignores_padding(self):
        y = np.full((64, 64), 50, np.uint8)
        c = np.full((32, 32), 50, np.uint8)
        a = Frame(y, c, c, display_width=48, display_height=48)
        y2 = y.copy()
        y2[:, 48:] = 0  # damage only the padded columns
        b = Frame(y2, c.copy(), c.copy(), display_width=48, display_height=48)
        assert frame_psnr(a, b) == (99.0, 99.0, 99.0)

    def test_frame_psnr_reports_per_plane(self):
        y = np.full((64, 64), 50, np.uint8)
        c = np.full((32, 32), 50, np.uint8)
        a = Frame(y, c, c, 64, 64)
        b = Frame(y.copy(), np.full((32, 32), 66, np.uint8), c.copy(), 64, 64)
        py, pcb, pcr = frame_psnr(a, b)
        assert py == 99.0 and pcr == 99.0
        assert pcb == pytest.approx(20 * math.log10(255 / 16), abs=1e-9)


class TestBitAccounting:
    def test_categories_sum_to_stream_size(self, pan_encode):
        stream, _ = pan_encode
        acct = bit_accounting(stream)
        assert tuple(acct.categories) == BIT_CATEGORIES
        assert sum(acct.categories.values()) == acct.total_bits == 8 * len(stream)
        ratios = acct.ratios()
        assert sum(ratios.values()) == pytest.approx(1.0)

    def test_matches_encoder_report_per_category(self, pan_encode):
        stream, report = pan_encode
        acct = bit_accounting(stream)
        assert acct.categories["header"] == 120
        assert acct.categories["param_sets"] == sum(
            r.bits_params for r in report.rows)
        assert acct.categories["regions_and_modes"] == sum(
            r.bits_modes for r in report.rows)
        assert acct.categories["mvs"] == sum(r.bits_mv for r in report.rows)
        assert acct.categories["residuals"] == sum(
            r.bits_residual for r in report.rows)

    def test_unit_listing_covers_all_frames(self, pan_encode):
        stream, _ = pan_encode
        acct = bit_accounting(stream)
        kinds = [u.kind for u in acct.units]
        assert kinds.count("frame") == 8
        assert sum(u.bits for u in acct.units) == acct.total_bits - 120

    def test_trailing_bytes_rejected(self, pan_encode):
        stream, _ = pan_encode
        with pytest.raises(StreamError):
            bit_accounting(stream + b"\x00")

    def test_garbage_rejected(self):
        with pytest.raises(StreamError):
            bit_accounting(b"\x00" * 40)


class TestBandwidthArithmetic:
    """The scenario arithmetic of shipping a generator in a stream."""

    ARCH = (3, 25, 40, 60, 1536)  # the default architecture

    def test_parameter_share_of_a_stream(self):
        # 100k parameters at 10 bits, refreshed once per second, over 40 Mbps
        assert 100_000 * 10 / 40e6 == pytest.approx(0.025)
        # the default set, framing included, stays below that share
        share = param_set_bits(self.ARCH) / 40e6
        assert 10 * param_count(self.ARCH) / 40e6 < share < 0.025

    def test_share_scales_with_refresh_rate(self):
        once, twice = (param_set_bits(self.ARCH) * sets / 40e6 for sets in (1, 2))
        assert twice == pytest.approx(2 * once)

    def test_generated_share_of_a_4k_grid(self):
        cols, rows = block_grid_dims(3840, 2160)
        assert (cols, rows) == (120, 68)
        share = 94 / (cols * rows)
        assert share == pytest.approx(94 / 8160)
        assert abs(share - 0.012) <= 0.001

    def test_generator_call_rate(self):
        # one generator evaluation per generated block, 94 a frame at 30 fps
        assert 94 * 30 == 2820
