"""Synthetic sequences, quality metrics, and stream bit accounting."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from nbv import tools
from nbv.bitstream import BIT_CATEGORIES, param_set_bits
from nbv.core import Frame, block_grid_dims, round_half_away
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


# (kind, width, height, frames, velocity, seed) -> sha256 of every plane of
# every frame: each kind at several sizes, the smallest legal one among them,
# and the quarter-size single-frame renders perfbench/content.py scores for
# its workloads (80x48 for pan and zoom, whose first frames are the same
# crop, 160x96 for wide, 24x16 for the smoke run). The last four cross the
# edges of the row bands synthesis renders in: the wide workload's
# 640x384 clip, a zoom each way whose 270-row canvas and 135-row chroma
# canvases end in a partial band, and two frames of a 1280x720 zoom.
SYNTH_GOLDEN = {
    ("static", 2, 2, 2, (1, 0), 0):
        "7ef3c798643bc7121f83cc4441f11e735ae0129ac4b24b6cdd372b7a17bded09",
    ("static", 34, 18, 2, (2, 0), 9):
        "2219931c321841d3420fe8e11a7f963e6a4ddee92d3febb2b41d5c9c1a62cd2a",
    ("static", 64, 32, 3, (2, 0), 5):
        "6863ed4e065054b9a806b5bab3b4c9f9ad2923b0f322d5c26b7e918b705230a8",
    ("static", 96, 64, 4, (4, 0), 7):
        "c64ef6f2d0335bf6ef9d6c50cb89adc0c5ab4bf0954cfd766b88bd948b0ed318",
    ("static", 160, 96, 3, (3, 1), 21):
        "b7e5c0452f5fac51b365d84c7b7009a18cc46f7426b80430fbe044893e63a689",
    ("pan", 2, 2, 2, (1, 0), 0):
        "c0e1eeca85125e073ae230e14831c8eeff13f37dba1c752b8c9d506c0e1cbcac",
    ("pan", 34, 18, 2, (2, 0), 9):
        "3fb96447851d4a5d9e3a6605eaa1c87e784b8cbc325fcc68281f6e5b3867b061",
    ("pan", 64, 32, 3, (2, 0), 5):
        "3b01b5d6cf0a5586b2a9696daccc6212a691bc820cab0769dd772b8917d3ce6d",
    ("pan", 96, 64, 4, (4, 0), 7):
        "3dc197f37f1b0223ab797ddbcb91427ecb787b5e90698c851ed64fbb6c95471f",
    ("pan", 160, 96, 3, (3, 1), 21):
        "fb51af1d5344762b794a2e0efb317c30075dce17d11a6b1a25cb5bff39b77829",
    ("zoom_out", 2, 2, 2, (1, 0), 0):
        "647bcc993a442d1946308ecb9032782dd7c491d7c6a68e5663489cb3970e5c96",
    ("zoom_out", 34, 18, 2, (2, 0), 9):
        "6a811737c61b87ce2300df254ab550582abd26e8a4fbddb182c03872b946ddba",
    ("zoom_out", 64, 32, 3, (2, 0), 5):
        "6c96da4426fa7288768890f5400e919a4f69b14fecc483205a6d89828357528e",
    ("zoom_out", 96, 64, 4, (4, 0), 7):
        "2b11d321f3fe73faaaa7ea469bcc944d034d2e55ef1a5aa11a009bc8f3ddade6",
    ("zoom_out", 160, 96, 3, (3, 1), 21):
        "20a1dce1a7396e867256e41c65c4613316ba53a97207f94f05792b7ab0c1bcea",
    ("zoom_in", 2, 2, 2, (1, 0), 0):
        "e66f8f349fd9564cb93ead48c29079a9c22827053d15e75a4b8af3ee57c17170",
    ("zoom_in", 34, 18, 2, (2, 0), 9):
        "ee4bc33e5ecc98fefdd266bf744ffc835445ec2fe13832b1d59a0ec86ab1095f",
    ("zoom_in", 64, 32, 3, (2, 0), 5):
        "fcd24b13bb0c3a72bbab9936b06748143b44770d5becabb1b0d0916251e4bf94",
    ("zoom_in", 96, 64, 4, (4, 0), 7):
        "30e7987032113582b52f875a7919992a33df20c09481afac8ee2835adcd3e7b3",
    ("zoom_in", 160, 96, 3, (3, 1), 21):
        "64088221007448a8f9c4ef7e07ef19c3ac6457bc68a482fa2cc828bf05954f83",
    ("pan", 320, 192, 8, (4, 0), 3):
        "ad01883ad29e261b708e964ca920f5d78fbbfe0ba1ba546133c6ba208892b136",
    ("zoom_out", 80, 48, 1, (0, 0), 0):
        "99ebc899e1f5814e8e26b68e83b487edb2b250e6e7a996018b0f64d8e216b222",
    ("zoom_out", 80, 48, 1, (0, 0), 336):
        "3dccdff948e32a772f2f26f95e6fa776bc8c76f5212214dc4e3179cb6a92d945",
    ("zoom_out", 80, 48, 1, (0, 0), 1000000):
        "4e947c86be6f7959ef600fd8ddb25204bfd4b2eadae5af20442552120f0b9a35",
    ("pan", 160, 96, 1, (0, 0), 0):
        "c7a5a01bb2b387486dfb3a6b8892fe3babf3a7e4867fe55ce07d44ed0dc6a3c2",
    ("pan", 160, 96, 1, (0, 0), 336):
        "6d0fe1d83cd83150e890df0e957232889a7673d74f08bb274c1ecc68a57fa100",
    ("pan", 160, 96, 1, (0, 0), 1000000):
        "8bdfbfd61e7b8dcb21c4909627d8b0b0f88e04a6c87c03da7b45cbc8382e90ae",
    ("pan", 24, 16, 1, (0, 0), 0):
        "ac6b4a59b52bf52b024f3d7a222c5298f0ab502642f2f61f0dc8e044dff68f02",
    ("pan", 24, 16, 1, (0, 0), 336):
        "126d6dddaa7f60943ce20740aa03c93dcc3165cc990bdb6f321cdde6e4d3eeef",
    ("pan", 24, 16, 1, (0, 0), 1000000):
        "0513c6052f1df48fa79df1c04d46741293038f18c93753ab411f7ff69f0ef107",
    ("pan", 640, 384, 4, (3, 1), 21):
        "7315ce7ed8e70ff3d7ae660d64ac347882942739ce14d9e525a05e1b8ef37f9e",
    ("zoom_out", 98, 90, 4, (3, 0), 13):
        "efcab11feec663842460d7a6165852f9a94a6e98b1cfe400aaa7ba31d5760951",
    ("zoom_in", 98, 90, 4, (3, 0), 14):
        "c8ff18118d0fa964bb5a311a0918d9ce6fea539cd3b8a0c2b60aa93e460d8b6f",
    ("zoom_out", 1280, 720, 2, (8, 0), 21):
        "8c3cfc4d635de363addef15858a50d273e78451338efc76ce6b4a8fb790a90f5",
    # Synthesis renders only the canvas window the frames read. Pans with
    # negative and odd velocities put the window's first row or column on
    # an odd sample, where a frame's chroma offset inside the window is not
    # half its luma offset; a zoom each way reaches the canvas edge on its
    # widest frame; and a 1920x1080 zoom crosses window and band edges.
    ("pan", 200, 120, 6, (-3, -1), 9):
        "af138d8cfbdb26d3622021363ad646bde44396ed8ca749241f988d06620cfb3b",
    ("pan", 96, 64, 5, (0, -3), 4):
        "754d30c7bc4dc282f745730f72f76ae52c08ffb1c1833cd45015876b5a01f837",
    ("pan", 96, 64, 4, (-1, -3), 4):
        "610413193bfc09e96fad51b063f912e167f4e45615df996ab14978d2e20f57c7",
    ("pan", 130, 74, 7, (5, 3), 11):
        "3bdc9434b64d936dce67ba294c9b4b375b56d2ad59fffd9aed0ea704cded0bb3",
    ("static", 66, 38, 2, (0, 0), 12):
        "b6928b8c703104210a507a0e28fdccedfcf97c7b80927f44eeb9f11f24fd9a2c",
    ("zoom_out", 96, 64, 13, (8, 0), 5):
        "6aa56e350a9f40c7df74e902309476be7cb9014f80654c934b1b44d580beb8bf",
    ("zoom_in", 64, 48, 9, (-8, 0), 6):
        "9d89105360a3e15aac3aca4ca76953c98cee7d818bdc7fa0b03112d3f2030114",
    ("zoom_in", 1920, 1080, 2, (333, 0), 27):
        "b7885628f339e8631070e6d41e19ce4604c43ac6fb1d643d747263c0faf7c6cd",
}


def synth_id(case):
    kind, width, height, frames, _, seed = case
    return f"{kind}-{width}x{height}-{frames}f-seed{seed}"


@pytest.mark.parametrize("case", sorted(SYNTH_GOLDEN), ids=synth_id)
def test_synth_sequence_matches_golden(case):
    kind, width, height, frames, velocity, seed = case
    h = hashlib.sha256()
    for f in synth_sequence(kind, width, height, frames, velocity=velocity, seed=seed):
        for plane in (f.y, f.cb, f.cr):
            h.update(plane.tobytes())
    assert h.hexdigest() == SYNTH_GOLDEN[case]


def render_canvas_oracle(w, h, rng, n_sine, n_disks, lo, hi, window):
    """The whole-canvas render with a sine per sample that the banded
    product replaced: the gradient, each amp * sin(2 pi (fx x + fy y) +
    phase), then each disk, in draw order; stretched over the canvas and
    cut to the window before quantization."""
    xs = np.arange(w, dtype=np.float64)
    ys = np.arange(h, dtype=np.float64)[:, None]
    xn, yn = xs / w, ys / h
    gx, gy = rng.uniform(-1.0, 1.0, size=2)
    field = gx * xn + gy * yn
    for _ in range(n_sine):
        fx, fy = rng.uniform(0.5, 7.0, size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.1, 0.5)
        field += amp * np.sin((fx * xn + fy * yn) * (2.0 * np.pi) + phase)
    for _ in range(n_disks):
        cx, cy = rng.uniform(0.0, w), rng.uniform(0.0, h)
        rad = rng.uniform(0.02, 0.12) * min(w, h)
        amp = rng.uniform(-1.0, 1.0)
        dist = np.sqrt((xs - cx) ** 2 + (ys - cy) ** 2)
        field += amp * np.clip(rad + 0.5 - dist, 0.0, 1.0)
    vlo, vhi = field.min(), field.max()
    v = (field[window] - vlo) / (vhi - vlo) if vhi > vlo else np.full(field[window].shape, 0.5)
    v = v * (hi - lo) + lo
    return np.clip(round_half_away(v), 0, 255).astype(np.uint8)


def resample_oracle(win, window, taps_y, taps_x):
    """Bilinear resampling by four 2-D fancy indexes of the whole frame."""
    rows, cols = window
    y0, y1, fy = taps_y[0] - rows.start, taps_y[1] - rows.start, taps_y[2][:, None]
    x0, x1, fx = taps_x[0] - cols.start, taps_x[1] - cols.start, taps_x[2][None, :]
    top = win[np.ix_(y0, x0)] * (1 - fx) + win[np.ix_(y0, x1)] * fx
    bot = win[np.ix_(y1, x0)] * (1 - fx) + win[np.ix_(y1, x1)] * fx
    return np.clip(round_half_away(top * (1 - fy) + bot * fy), 0, 255).astype(np.uint8)


# (kind, width, height, frames, velocity): every kind; the quarter-size
# renders perfbench/content.py scores (80x48, whose 144-row canvas ends
# in a partial band, and 160x96); 270- and 135-row canvases that end in
# partial bands, and 33-row chroma canvases that end in a one-row band;
# and pans whose window starts on an odd row or column, where the chroma
# crop is not half the luma offset inside the window
ORACLE_CASES = [
    ("pan", 80, 48, 1, (0, 0)), ("zoom_out", 80, 48, 1, (0, 0)),
    ("pan", 160, 96, 1, (0, 0)), ("zoom_out", 160, 96, 1, (0, 0)),
    ("static", 64, 32, 3, (2, 0)), ("zoom_in", 98, 90, 4, (3, 0)),
    ("zoom_out", 98, 90, 3, (5, 0)), ("zoom_out", 34, 22, 3, (2, 0)),
    ("pan", 96, 64, 4, (-1, -3)), ("pan", 130, 74, 3, (5, 3)),
]


@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: f"{c[0]}-{c[1]}x{c[2]}")
def test_synthesis_matches_the_per_sample_oracle(case, monkeypatch):
    # The product sums each sample's gradient and sinusoid terms in
    # another order than a sine per sample, which moves the float64 field
    # by about 1e-15 relative; the 8-bit rounding must absorb that.
    kind, width, height, frames, velocity = case
    for seed in range(24):
        got = synth_sequence(kind, width, height, frames, velocity=velocity, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(tools, "_render_canvas", render_canvas_oracle)
            m.setattr(tools, "_resample", resample_oracle)
            want = synth_sequence(kind, width, height, frames, velocity=velocity, seed=seed)
        for fg, fw in zip(got, want):
            for pg, pw in ((fg.y, fw.y), (fg.cb, fw.cb), (fg.cr, fw.cr)):
                assert np.array_equal(pg, pw), (case, seed)


def test_synthesis_takes_a_sine_per_row_and_column_not_per_sample(monkeypatch):
    # One sine and one cosine per canvas row and column for each sinusoid,
    # not a sine per sample: 2 * n_sine * (w + h) values at most.
    evaluated = []
    for name in ("sin", "cos"):
        def counted(x, *args, ufunc=getattr(np, name), **kwargs):
            evaluated.append(np.size(x))
            return ufunc(x, *args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    w, h, n_sine = 288, 192, 4
    tools._render_canvas(w, h, np.random.default_rng(3), n_sine, 40, 0.0, 255.0,
                         (slice(0, h), slice(0, w)))
    assert 0 < sum(evaluated) <= 2 * n_sine * (w + h) < n_sine * w * h


def synthesis_peak(kind, width, height, frames, velocity):
    """tracemalloc peak of one synth_sequence call, and the bytes of the
    frames it returns."""
    synth_sequence(kind, 8, 8, 1)  # first-call imports are not synthesis
    tracemalloc.start()
    try:
        out = synth_sequence(kind, width, height, frames, velocity=velocity, seed=21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sum(p.nbytes for f in out for p in (f.y, f.cb, f.cr))


@pytest.mark.parametrize("kind, width, height, frames, velocity", [
    ("pan", 640, 384, 4, (3, 1)),  # the wide_qp32_nogen benchmark's clip
    ("zoom_out", 320, 192, 16, (2, 0)),  # zoom_qp8_gen's
])
def test_synthesis_peaks_below_two_float64_luma_canvases(kind, width, height,
                                                         frames, velocity):
    # Only the canvas window the frames read is ever float64, so beyond
    # the frames it returns synthesis holds less than half of one float64
    # luma canvas (3x the frame each way). Whole-canvas float64 fields
    # held 2.4 (pan) and 2.1 (zoom) such halves, and whole-canvas
    # temporaries before them 10.
    peak, frame_bytes = synthesis_peak(kind, width, height, frames, velocity)
    assert peak - frame_bytes < (9 * width * height * 8) / 2


def test_paper_scale_zoom_synthesis_peak():
    # 1920x1080x8 zoom_out: 25 MB of frames, 34 MB at the peak; a float64
    # field for the whole canvas peaked at 177 MB
    peak, frame_bytes = synthesis_peak("zoom_out", 1920, 1080, 8, (4, 0))
    assert frame_bytes == 8 * 1920 * 1088 * 3 // 2
    assert peak < 40e6


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

    def test_only_uint8_planes(self):
        a = np.zeros((4, 4), np.uint8)
        with pytest.raises(TypeError):
            plane_psnr(a, a.astype(np.int32))
        with pytest.raises(TypeError):
            plane_psnr(a.astype(np.float64), a)

    @pytest.mark.parametrize("shape", [(1, 1), (37, 53), (384, 640), (1088, 1920)])
    def test_integer_sum_equals_the_float64_mean_to_the_bit(self, shape):
        rng = np.random.default_rng(shape[0])
        a = rng.integers(0, 256, shape, dtype=np.uint8)
        cases = [rng.integers(0, 256, shape, dtype=np.uint8),
                 np.clip(a.astype(np.int16) + rng.integers(-3, 4, shape), 0, 255)
                 .astype(np.uint8),
                 np.where(a < 128, 255, 0).astype(np.uint8)]  # every error near 255
        for b in cases:
            mse = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
            want = PSNR_CAP if mse == 0.0 else min(PSNR_CAP, 10.0 * math.log10(255.0 ** 2 / mse))
            assert plane_psnr(a, b) == want

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
