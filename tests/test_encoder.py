"""Encoder decisions: lambda, mode choice, global motion, regions, reports."""

import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nbv.bitstream
import nbv.encoder
from conftest import encode_frame_oracle, fast_train, forced_stream, rand_frame
from nbv.bitstream import (
    BlockMode,
    RegionSpec,
    param_set_bits,
    parse_stream,
    region_map,
    write_param_set,
)
from nbv.core import (
    BlockCoord,
    Frame,
    SequenceConfig,
    block_grid_dims,
    extract_block,
    make_frame,
)
from nbv.decoder import decode_sequence, mode_counts
from nbv.encoder import (
    PeriodRecord,
    _encode_frame,
    _encode_period,
    _network_pass,
    choose_block_mode,
    encode_sequence,
    estimate_global_motion,
    rd_lambda,
    select_generation_regions,
    train_param_set,
)
from nbv.entropy import BitWriter
from nbv.gnn import (
    QuantizedGnnParams,
    QuantizedLayer,
    SetContext,
    block_to_targets,
    gnn_input,
    init_params,
    quantize_params,
)
from nbv.prediction import MotionVector, motion_field, motion_search
from nbv.tools import synth_sequence
from test_golden import CASES, GOLDEN, encode_case


def frames_equal(a: Frame, b: Frame) -> bool:
    return (np.array_equal(a.y, b.y) and np.array_equal(a.cb, b.cb)
            and np.array_equal(a.cr, b.cr))


class TestLambda:
    def test_reference_points(self):
        assert rd_lambda(12) == pytest.approx(0.85)
        assert rd_lambda(15) == pytest.approx(1.7)
        assert rd_lambda(0) == pytest.approx(0.053125)

    def test_doubles_every_three_steps(self):
        for qp in range(0, 49):
            assert rd_lambda(qp + 3) == pytest.approx(2 * rd_lambda(qp))


class TestModeChoice:
    """choose_block_mode reads each candidate's slot as its BlockMode, so
    the candidates are in rank order and a tie goes to the earlier slot."""

    def test_strict_minimum_wins_regardless_of_order(self):
        for perm in itertools.permutations([110.0, 120.0, 105.0, 130.0, 140.0]):
            got = choose_block_mode(np.array(perm))
            assert perm[got] == 105.0

    def test_exact_tie_prefers_earlier_mode_rank(self):
        for first in BlockMode:
            j = np.full(len(BlockMode), 200.0)
            j[first:] = 100.0
            assert choose_block_mode(j) == first
        # an empty slot costs inf and loses even to a huge cost
        j = np.array([np.inf, 1e30, 1e30, np.inf, 1e30])
        assert choose_block_mode(j) == BlockMode.INTRA_DC

    def test_tie_between_intra_and_generated(self):
        j = np.full(len(BlockMode), np.inf)
        j[[BlockMode.INTRA_DC, BlockMode.GEN]] = 10.0
        assert choose_block_mode(j) == BlockMode.INTRA_DC

    def test_empty_candidate_list_rejected(self):
        with pytest.raises(ValueError):
            choose_block_mode(np.zeros(0))
        with pytest.raises(ValueError):
            choose_block_mode(np.zeros((3, 0)))

    def test_leading_axes_pass_through_with_the_rank_tie_rule(self):
        # random costs on few values, so ties are common, and empty slots;
        # each row's choice is the smallest J, then the smallest rank
        rng = np.random.default_rng(8)
        j = rng.integers(0, 4, (6, 7, len(BlockMode))).astype(np.float64)
        j[rng.random(j.shape) < 0.3] = np.inf
        j[..., BlockMode.INTRA_DC] = np.minimum(j[..., BlockMode.INTRA_DC], 9.0)
        got = choose_block_mode(j)
        assert got.shape == (6, 7)
        for index in np.ndindex(6, 7):
            row = j[index].tolist()
            assert got[index] == min(range(len(row)), key=lambda k: (row[k], k))

    def test_array_cost_equals_the_scalar_cost(self):
        # J = SSD + lambda * bits over the candidate axis in int64 and float64
        # gives, value for value, the Python sum of an int SSD and int bits.
        rng = np.random.default_rng(5)
        ssd = rng.integers(0, 1536 * 255 ** 2, 500, dtype=np.int64)
        bits = rng.integers(0, 1 << 20, 500, dtype=np.int64)
        for qp in range(52):
            lam = rd_lambda(qp)
            want = [int(d) + lam * int(b) for d, b in zip(ssd, bits)]
            assert (ssd + lam * bits).tolist() == want


def patchy_pair(rng, width: int, height: int, shift: tuple[int, int],
                noise: int) -> tuple[Frame, Frame]:
    """Two frames cut from one canvas of flat 8x8 patches plus noise of the
    given amplitude, the second moved by `shift` pels. Flat patches give
    intra predictions exact ties and every block kind a chance to win."""
    m = 8
    ch, cw = height + 2 * m, width + 2 * m
    coarse = rng.integers(0, 256, (3, -(-ch // 8), -(-cw // 8)))
    canvas = np.kron(coarse, np.ones((1, 8, 8), np.int64))[:, :ch, :cw]
    canvas = np.clip(canvas + rng.integers(-noise, noise + 1, canvas.shape),
                     0, 255).astype(np.uint8)

    def window(x0, y0):
        cy, cx = y0 // 2, x0 // 2
        return make_frame(
            canvas[0, y0:y0 + height, x0:x0 + width],
            canvas[1, cy:cy + (height + 1) // 2, cx:cx + (width + 1) // 2],
            canvas[2, cy:cy + (height + 1) // 2, cx:cx + (width + 1) // 2])

    return window(m, m), window(m + shift[0], m + shift[1])


class TestDiagonalEncodeOracle:
    """The encoder codes a frame one anti-diagonal of blocks at a time,
    every candidate of every block on it in one batch. On any frame it
    must make the decisions, levels, pixels and distortion of the
    block-by-block raster walk encode_frame_oracle."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_frames_equal_the_raster_oracle(self, data):
        draw = data.draw
        cols, rows = draw(st.integers(1, 5)), draw(st.integers(1, 4))
        width = 32 * cols - draw(st.integers(0, 31))
        height = 32 * rows - draw(st.integers(0, 31))
        qp = draw(st.sampled_from([0, 8, 20, 32, 51]))
        kind = draw(st.sampled_from(["none", "forced", "selectable"]))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        shift = tuple(int(v) for v in rng.integers(-6, 7, 2))
        frames = patchy_pair(rng, width, height, shift,
                             draw(st.sampled_from([0, 3, 40])))
        regions, qparams, ctx = [], None, None
        if kind != "none":
            x0, y0 = draw(st.integers(0, cols - 1)), draw(st.integers(0, rows - 1))
            regions = [RegionSpec(x0, y0, draw(st.integers(x0, cols - 1)),
                                  draw(st.integers(y0, rows - 1)),
                                  kind == "selectable")]
            qparams = quantize_params(init_params((3, 1536),
                                                  seed=int(rng.integers(100))))
            ctx = SetContext(cols, rows, 0, 2)
        lam = rd_lambda(qp)
        prev = None
        for frame_idx, frame_type in enumerate("IP"):
            args = (frames[frame_idx], prev, frame_idx, frame_type, regions,
                    qparams, ctx, qp, lam, 4)
            unit, res = _encode_frame(*args)
            want, want_recon, want_dist = encode_frame_oracle(*args)
            assert np.array_equal(unit.modes, want.modes), frame_type
            assert np.array_equal(unit.mvds, want.mvds), frame_type
            assert np.array_equal(unit.blocks, want.blocks), frame_type
            assert frames_equal(res.recon, want_recon), frame_type
            assert res.distortion == want_dist, frame_type
            prev = want_recon


def windowed_pair(shift: tuple[int, int], size=(128, 96), margin=16, seed=21):
    """Two frames cut from one canvas, the second moved by `shift` pels."""
    w, h = size
    rng = np.random.default_rng(seed)
    cw, ch = w + 2 * margin, h + 2 * margin
    canvas_y = rng.integers(0, 256, (ch, cw), dtype=np.uint8)
    canvas_c = rng.integers(0, 256, (ch // 2, cw // 2), dtype=np.uint8)

    def window(x0, y0):
        return make_frame(
            canvas_y[y0:y0 + h, x0:x0 + w].copy(),
            canvas_c[y0 // 2:(y0 + h) // 2, x0 // 2:(x0 + w) // 2].copy(),
            canvas_c[y0 // 2:(y0 + h) // 2, x0 // 2:(x0 + w) // 2].copy(),
        )

    ref = window(margin, margin)
    cur = window(margin + shift[0], margin + shift[1])
    return cur, ref


class TestGlobalMotion:
    def test_identical_frames_report_zero(self):
        fr = rand_frame(128, 96, seed=22)
        assert estimate_global_motion(fr, fr, 8) == MotionVector(0, 0)

    @pytest.mark.parametrize("shift", [(4, 0), (-4, 0), (0, 6), (3, -2)])
    def test_recovers_window_shift(self, shift):
        cur, ref = windowed_pair(shift)
        assert estimate_global_motion(cur, ref, 8) == MotionVector(*shift)

    def test_majority_wins_over_static_minority(self):
        cur, ref = windowed_pair((4, 0))
        # freeze four sampled blocks: their best match becomes (0,0)
        for bx, by in [(0, 0), (1, 1), (2, 2), (3, 0)]:
            y0, x0 = by * 32, bx * 32
            cur.y[y0:y0 + 32, x0:x0 + 32] = ref.y[y0:y0 + 32, x0:x0 + 32]
        assert estimate_global_motion(cur, ref, 8) == MotionVector(4, 0)

    def test_median_ties_truncate_toward_zero(self):
        cur, ref = windowed_pair((4, 0))
        # the 4x4 sample lattice on a 4x3 grid visits block row 1 twice, so
        # freezing rows 0 and 2 splits the sixteen samples exactly in half
        # and the even-count median averages 0 and 4 before truncating
        for by in (0, 2):
            for bx in range(4):
                y0, x0 = by * 32, bx * 32
                cur.y[y0:y0 + 32, x0:x0 + 32] = ref.y[y0:y0 + 32, x0:x0 + 32]
        gm = estimate_global_motion(cur, ref, 8)
        assert gm == MotionVector(2, 0)

    @pytest.mark.parametrize("size, seed", [((128, 96), 23), ((100, 70), 24),
                                            ((320, 192), 25)])
    def test_matches_the_median_of_sixteen_block_searches(self, size, seed):
        cur, ref = windowed_pair((3, -1), size=size, seed=seed)
        rng = np.random.default_rng(seed)
        cur.y[:] = np.clip(cur.y + rng.integers(-40, 41, cur.y.shape), 0, 255)
        cols, rows = block_grid_dims(cur.width, cur.height)
        dxs, dys = [], []
        for by in [min(rows - 1, ((2 * i + 1) * rows) // 8) for i in range(4)]:
            for bx in [min(cols - 1, ((2 * i + 1) * cols) // 8) for i in range(4)]:
                c = BlockCoord(bx, by)
                mv, _ = motion_search(extract_block(cur, c), ref, c, 5)
                dxs.append(mv.dx)
                dys.append(mv.dy)
        want = MotionVector(int(float(np.median(dxs))), int(float(np.median(dys))))
        assert estimate_global_motion(cur, ref, 5) == want


def whole_frame_global_motion(cur, ref, r):
    """The median of the whole-frame field at the 16-block sample lattice,
    duplicates counted, as global motion was read before it searched only
    the sample blocks."""
    field = motion_field(cur, ref, r)
    cols, rows = block_grid_dims(cur.width, cur.height)
    bxs = [min(cols - 1, ((2 * i + 1) * cols) // 8) for i in range(4)]
    bys = [min(rows - 1, ((2 * i + 1) * rows) // 8) for i in range(4)]
    sample = np.ix_(bys, bxs)
    return MotionVector(int(float(np.median(field.dx[sample]))),
                        int(float(np.median(field.dy[sample]))))


class TestGlobalMotionSampleSearch:
    """Global motion searches only its sample blocks' windows; it must read
    what the whole-frame field reads there."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(cols=st.integers(1, 11), rows=st.integers(1, 9),
           cut=st.tuples(st.integers(0, 15), st.integers(0, 15)),
           r=st.integers(0, 6), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_frames(self, cols, rows, cut, r, seed):
        width, height = 32 * cols - 2 * cut[0], 32 * rows - 2 * cut[1]
        cur = rand_frame(width, height, seed=seed)
        ref = rand_frame(width, height, seed=seed + 1)
        assert estimate_global_motion(cur, ref, r) == (
            whole_frame_global_motion(cur, ref, r))

    @pytest.mark.parametrize("size, shift, r", [
        # the shift at the search range: the sampled edge blocks' windows
        # clamp at every side of the frame
        ((320, 192), (8, 8), 8), ((320, 192), (-8, -8), 8),
        ((128, 96), (12, -12), 12),
        # grids under 8 blocks: the lattice samples blocks more than once
        ((32, 32), (3, 1), 4), ((32, 224), (0, -5), 6), ((224, 64), (5, 2), 3),
        ((96, 64), (-4, 6), 8),
    ])
    def test_edge_and_narrow_grids(self, size, shift, r):
        cur, ref = windowed_pair(shift, size=size, seed=sum(size))
        rng = np.random.default_rng(sum(size))
        cur.y[:] = np.clip(cur.y + rng.integers(-30, 31, cur.y.shape), 0, 255)
        assert estimate_global_motion(cur, ref, r) == (
            whole_frame_global_motion(cur, ref, r))


class TestRegionSelection:
    def test_zero_motion_yields_no_regions(self):
        assert select_generation_regions(MotionVector(0, 0), 10, 6, 1) == []

    def test_positive_dx_marks_the_right_edge(self):
        regs = select_generation_regions(MotionVector(4, 0), 10, 6, 1)
        assert len(regs) == 1
        r = regs[0]
        assert (r.x0, r.y0, r.x1, r.y1) == (9, 0, 9, 5)
        assert r.selectable

    def test_negative_dx_marks_the_left_edge(self):
        regs = select_generation_regions(MotionVector(-4, 0), 10, 6, 1)
        assert [(r.x0, r.x1) for r in regs] == [(0, 0)]

    def test_width_grows_with_elapsed_frames(self):
        regs = select_generation_regions(MotionVector(-4, 0), 10, 6, 16)
        # 4 pels over 16 frames sweeps two block columns
        assert [(r.x0, r.x1) for r in regs] == [(0, 1)]

    def test_width_clamps_to_quarter_extent(self):
        regs = select_generation_regions(MotionVector(32, 0), 10, 6, 16)
        assert [(r.x0, r.x1) for r in regs] == [(8, 9)]

    def test_two_axis_motion_yields_disjoint_margins(self):
        regs = select_generation_regions(MotionVector(8, 2), 10, 6, 8)
        assert len(regs) == 2
        right, bottom = regs
        assert (right.x0, right.x1) == (8, 9)  # two columns for 8 pels/frame
        assert (bottom.y0, bottom.y1) == (5, 5)
        assert bottom.x1 < right.x0  # horizontal bar is trimmed, no overlap

    def test_zoom_hint_marks_all_four_edges(self):
        regs = select_generation_regions(MotionVector(0, 0), 120, 68, 1,
                                         hint="out")
        boxes = [(r.x0, r.y0, r.x1, r.y1) for r in regs]
        assert boxes == [
            (0, 0, 29, 67),
            (90, 0, 119, 67),
            (30, 0, 89, 16),
            (30, 51, 89, 67),
        ]
        assert all(r.selectable for r in regs)

    def test_zoom_hint_on_tiny_grid_stays_valid(self):
        regs = select_generation_regions(MotionVector(0, 0), 2, 2, 1, hint="in")
        assert [(r.x0, r.x1) for r in regs] == [(0, 0), (1, 1)]

    def test_unknown_hint_rejected(self):
        with pytest.raises(ValueError):
            select_generation_regions(MotionVector(0, 0), 4, 4, 1, hint="pan")

    def test_planner_output_is_pinned(self):
        # Every grid from 1x1 to 6x5, motion component, elapsed-frame count
        # and hint below, one line per call; the sha256 was taken before the
        # planner's margin geometry was rewritten and must not move.
        comps = (-9, -1, 0, 1, 9)
        lines = []
        for cols, rows, dx, dy, since, hint in itertools.product(
                range(1, 7), range(1, 6), comps, comps, (0, 1, 16),
                ("none", "out", "in")):
            regs = select_generation_regions(MotionVector(dx, dy), cols, rows,
                                             since, hint)
            region_map(regs, cols, rows)  # on the grid, no overlap
            boxes = ";".join(f"{r.x0},{r.y0},{r.x1},{r.y1},{int(r.selectable)}"
                             for r in regs)
            lines.append(f"{cols}x{rows} {dx},{dy} {since} {hint}: {boxes}")
        assert len(lines) == 6750
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "437ba14ca852dceca2e0c29652cdc509010361ffe172598dc3462494b4a5d01a")


class TestTrainParamSet:
    def setup_method(self):
        self.frames = synth_sequence("static", 96, 64, 2, seed=4)
        self.ctx = SetContext(cols=3, rows=2, start_frame=0, span=2)
        self.arch = (3, 8, 1536)

    def test_dataset_counts_blocks_in_regions(self):
        reg = [RegionSpec(2, 0, 2, 1, False)]
        q, n = train_param_set(self.frames[:1], 0, [reg], self.ctx,
                               self.arch, fast_train(20))
        assert n == 2 and q is not None

    def test_shared_region_across_frames_doubles_dataset(self):
        reg = [RegionSpec(2, 0, 2, 1, False)]
        q, n = train_param_set(self.frames, 0, [reg, reg], self.ctx,
                               self.arch, fast_train(20))
        assert n == 4

    def test_no_regions_anywhere_trains_nothing(self):
        q, n = train_param_set(self.frames, 0, [[], []], self.ctx,
                               self.arch, fast_train(20))
        assert q is None and n == 0

    def test_dataset_is_the_float64_rows_rounded_to_float32(self, monkeypatch):
        seen = []

        def fake_train(sizes, x, t, cfg):
            seen.append((x, t))
            return init_params(sizes, 0)

        monkeypatch.setattr(nbv.encoder, "train", fake_train)
        regs = [[RegionSpec(2, 0, 2, 1, False)], [RegionSpec(0, 1, 2, 1, True)]]
        train_param_set(self.frames, 5, regs, SetContext(3, 2, 5, 2), self.arch,
                        fast_train(1))
        coords = [(0, 2, 0), (0, 2, 1), (1, 0, 1), (1, 1, 1), (1, 2, 1)]
        want_x = [gnn_input(SetContext(3, 2, 5, 2), BlockCoord(bx, by), 5 + f)
                  for f, bx, by in coords]
        want_t = [block_to_targets(extract_block(self.frames[f], BlockCoord(bx, by)))
                  for f, bx, by in coords]
        (x, t), = seen
        assert x.dtype == t.dtype == np.float32
        assert x.tobytes() == np.asarray(want_x).astype(np.float32).tobytes()
        assert t.tobytes() == np.asarray(want_t).astype(np.float32).tobytes()

    def test_peak_memory_is_a_few_float32_target_arrays(self):
        # the 576 margin blocks of the zoom_qp8_gen benchmark's clip; float64
        # rows kept beside a float64 copy of them peaked at 7.0 target arrays
        frames = synth_sequence("zoom_out", 320, 192, 16, velocity=(2, 0), seed=21)
        regs = select_generation_regions(MotionVector(0, 0), 10, 6, 0, "out")
        targets_nbytes = 576 * 1536 * 4
        tracemalloc.start()
        try:
            _, n = train_param_set(frames, 0, [regs] * 16, SetContext(10, 6, 0, 16),
                                   (3, 25, 40, 60, 1536), fast_train(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 576
        assert peak < 4 * targets_nbytes


class TestEncodeSequence:
    def test_report_bits_sum_to_stream_size(self, pan_encode):
        stream, report = pan_encode
        total = sum(
            r.bits_header + r.bits_params + r.bits_modes + r.bits_mv
            + r.bits_residual for r in report.rows
        )
        assert total == report.total_bits == 8 * len(stream)

    def test_header_bits_charged_to_first_frame_only(self, pan_encode):
        _, report = pan_encode
        assert report.rows[0].bits_header == 120
        assert all(r.bits_header == 0 for r in report.rows[1:])

    def test_keyframe_cadence_follows_interval(self, pan_encode):
        _, report = pan_encode
        types = [r.type for r in report.rows]
        assert types == ["I", "P", "P", "P", "I", "P", "P", "P"]

    def test_inter_blocks_dominate_panning_p_frames(self, pan_encode):
        _, report = pan_encode
        assert report.mode_histogram["inter"] > 0
        assert sum(report.mode_histogram.values()) == 8 * 6  # blocks in 8 frames

    def test_deterministic_bytes(self, pan_frames, pan_config):
        stream_a, _ = encode_sequence(pan_frames, pan_config,
                                      train_cfg=fast_train())
        stream_b, _ = encode_sequence(pan_frames, pan_config,
                                      train_cfg=fast_train())
        assert stream_a == stream_b

    def test_disabled_generator_emits_plain_stream(self, pan_frames):
        cfg = SequenceConfig(width=96, height=64, frame_count=8, qp=20,
                             gnn_interval=4, gnn_enabled=False)
        stream, report = encode_sequence(pan_frames, cfg)
        assert all(r.bits_params == 0 for r in report.rows)
        assert all(r.n_gen_blocks == 0 for r in report.rows)
        _, decode_report = decode_sequence(stream)
        assert decode_report.n_param_sets == 0
        assert all(r.n_gen == 0 for r in decode_report.rows)

    def test_static_scene_collapses_to_baseline(self, static_frames):
        on = SequenceConfig(width=96, height=64, frame_count=6, qp=20,
                            gnn_interval=3, gnn_enabled=True,
                            gnn_arch=(3, 8, 1536))
        off = SequenceConfig(width=96, height=64, frame_count=6, qp=20,
                             gnn_interval=3, gnn_enabled=False)
        stream_on, _ = encode_sequence(static_frames, on, train_cfg=fast_train(30))
        stream_off, _ = encode_sequence(static_frames, off)
        # no motion -> no regions -> no parameter set survives the fallback,
        # and the streams differ only in the header's generator flag
        assert stream_on[:13] == stream_off[:13]
        assert stream_on[15:] == stream_off[15:]

    def test_fallback_never_loses_to_baseline(self, pan_frames, pan_config,
                                              pan_encode):
        _, report_on = pan_encode
        off = SequenceConfig(width=96, height=64, frame_count=8, qp=20,
                             gnn_interval=4, gnn_enabled=False)
        _, report_off = encode_sequence(pan_frames, off)
        assert report_on.rd_cost <= report_off.rd_cost

    def test_reconstructions_match_decoder_exactly(self, pan_encode):
        stream, report = pan_encode
        decoded, _ = decode_sequence(stream)
        assert len(decoded) == len(report.recon_frames)
        for a, b in zip(decoded, report.recon_frames):
            assert frames_equal(a, b)

    def test_frame_count_mismatch_rejected(self, pan_frames, pan_config):
        with pytest.raises(ValueError):
            encode_sequence(pan_frames[:-1], pan_config)

    def test_display_size_mismatch_rejected(self, pan_config):
        wrong = synth_sequence("static", 64, 64, 8, seed=0)
        with pytest.raises(ValueError):
            encode_sequence(wrong, pan_config)

    def test_bad_zoom_hint_rejected(self, pan_frames, pan_config):
        with pytest.raises(ValueError):
            encode_sequence(pan_frames, pan_config, zoom_hint="sideways")

    def test_empty_input_rejected(self):
        cfg = SequenceConfig(width=32, height=32, frame_count=0, qp=20)
        with pytest.raises(ValueError):
            encode_sequence([], cfg)

    def test_csv_has_one_row_per_frame(self, pan_encode):
        _, report = pan_encode
        lines = report.to_csv().strip().split("\n")
        assert lines[0].split(",")[:3] == ["frame", "type", "psnr_y"]
        assert len(lines) == 1 + 8


class TestMotionFieldPerFrame:
    def count_searches(self, frames, config, monkeypatch, hint="none"):
        """What one encode searched: motion_field calls, whether each frame
        _encode_frame codes is a P frame, whether each written frame is,
        estimate_global_motion calls and block_motion calls."""
        calls, coded, written, gm_calls, block_calls = [], [], [], [], []
        real_field = nbv.encoder.motion_field
        real_encode = nbv.encoder._encode_frame
        real_write = nbv.encoder.write_frame
        real_gm = nbv.encoder.estimate_global_motion
        real_block = nbv.encoder.block_motion

        def counting_field(*args):
            calls.append(args)
            return real_field(*args)

        def counting_encode(*args):
            coded.append(args[3] == "P")
            return real_encode(*args)

        def counting_write(w, unit, *args):
            written.append(unit.frame_type == "P")
            return real_write(w, unit, *args)

        # a replayed frame is written by rewrite_frame
        real_rewrite = nbv.encoder.rewrite_frame

        def counting_rewrite(w, unit, *args):
            written.append(bool(unit[1] & 0x80))  # the type bit after the tag: P
            return real_rewrite(w, unit, *args)

        def counting_gm(*args):
            gm_calls.append(args)
            return real_gm(*args)

        def counting_block(*args):
            block_calls.append(args)
            return real_block(*args)

        monkeypatch.setattr(nbv.encoder, "motion_field", counting_field)
        monkeypatch.setattr(nbv.encoder, "_encode_frame", counting_encode)
        monkeypatch.setattr(nbv.encoder, "write_frame", counting_write)
        monkeypatch.setattr(nbv.encoder, "rewrite_frame", counting_rewrite)
        monkeypatch.setattr(nbv.encoder, "estimate_global_motion", counting_gm)
        monkeypatch.setattr(nbv.encoder, "block_motion", counting_block)
        encode_sequence(frames, config, train_cfg=fast_train(20), zoom_hint=hint)
        return calls, coded, written, gm_calls, block_calls

    @pytest.mark.parametrize("gnn", [False, True])
    def test_one_search_per_p_frame_coded(self, pan_frames, pan_config,
                                          gnn, monkeypatch):
        # qp 8 and a one-unit network, so the bound admits the network pass
        config = dataclasses.replace(pan_config, qp=8, gnn_enabled=gnn,
                                     gnn_arch=(3, 1, 1536))
        calls, coded, written, gm_calls, block_calls = self.count_searches(
            pan_frames, config, monkeypatch)
        assert len(coded) >= 8 and sum(coded) >= 6
        # a replayed P frame is written without a search of its own; here
        # the generator never wins, so the network pass replays every frame
        assert len(calls) == sum(coded)
        assert (sum(coded) < sum(written)) == gnn
        assert bool(gm_calls) == gnn
        # each global-motion estimate searches its sample blocks once
        assert len(block_calls) == len(gm_calls)

    def test_hinted_encode_makes_no_global_motion_search(self, pan_frames,
                                                         pan_config, monkeypatch):
        config = dataclasses.replace(pan_config, qp=8, gnn_arch=(3, 1, 1536))
        calls, coded, written, gm_calls, block_calls = self.count_searches(
            pan_frames, config, monkeypatch, hint="out")
        # the network pass ran: more frames were written than the clip holds
        assert len(written) > len(pan_frames)
        assert gm_calls == block_calls == []
        assert len(calls) == sum(coded)


class TestForcedGenerationWirePath:
    """Forced regions exercise generated blocks end to end regardless of RD."""

    def test_forced_blocks_are_generated_on_every_frame(self):
        data, period = forced_stream()
        decoded, report = decode_sequence(data)
        assert report.n_param_sets == 1
        assert [r.n_gen for r in report.rows] == [2, 2, 2]
        for got, res in zip(decoded, period.results):
            assert frames_equal(got, res.recon)
            assert mode_counts(res.modes)[2] == 2

    def test_generated_blocks_still_carry_residuals(self):
        _, period = forced_stream()
        assert all(fb.residuals > 0 for fb in period.frame_bits)


class TestRdBound:
    """The fallback pass runs first; its J bounds the network's chances."""

    @pytest.mark.parametrize("arch", [
        (3, 4, 1536), (3, 8, 1536), (3, 25, 40, 60, 1536),
        (3, 6, 5, 4, 3, 2, 7, 1536),
    ])
    def test_param_set_bits_matches_the_writer(self, arch):
        q = quantize_params(init_params(arch, seed=1))
        assert param_set_bits(arch) == write_param_set(BitWriter(), q)

    def test_bound_skips_motion_training_and_the_network_pass(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("ran although the bound rules the network out")

        monkeypatch.setattr(nbv.encoder, "train", fail)
        monkeypatch.setattr(nbv.encoder, "_period_global_motion", fail)
        stream, report = encode_case("pan_qp20_default_arch")
        assert hashlib.sha256(stream).hexdigest() == GOLDEN["pan_qp20_default_arch"][0]
        lam = rd_lambda(20)
        assert [p.start for p in report.periods] == [0, 4]
        for p in report.periods:
            assert p.outcome == "bound"
            assert p.param_bits == 973_152
            assert lam * p.param_bits >= p.j_without
            assert p.train_samples == p.frames_coded_with == 0

    @pytest.mark.parametrize("name", ["pan_qp8_tiny_arch", "zoom_out_qp8_tiny_arch"])
    def test_training_runs_once_per_period_the_bound_admits(self, name, monkeypatch):
        calls = []
        real_train = nbv.encoder.train

        def counting_train(*args, **kwargs):
            calls.append(len(args[1]))
            return real_train(*args, **kwargs)

        monkeypatch.setattr(nbv.encoder, "train", counting_train)
        stream, report = encode_case(name)
        assert hashlib.sha256(stream).hexdigest() == GOLDEN[name][0]
        span = CASES[name][1].gnn_interval
        assert calls == [p.train_samples for p in report.periods]
        for p in report.periods:
            assert p.outcome in ("aborted", "lost")
            assert p.train_samples > 0
            assert 0 < p.frames_coded_with <= span
        assert report.mode_histogram["gen"] == 0

    def test_network_kept_only_strictly_below_the_budget(self):
        make_frames, config, steps, hint = CASES["pan_qp8_tiny_arch"]
        period = make_frames()
        lam = rd_lambda(config.qp)
        cols, rows = block_grid_dims(config.width, config.height)
        fallback = _encode_period(period, 0, [[]] * len(period), None, None,
                                  config, lam, cols, rows)
        free = PeriodRecord(0, math.inf, param_set_bits(config.gnn_arch))
        with_gnn = _network_pass(period, fallback, free, config, fast_train(steps),
                                 hint, lam)
        assert free.outcome == "kept" and free.frames_coded_with == len(period)
        # a tie at the full J runs every frame, then goes to the fallback
        tie = PeriodRecord(0, with_gnn.j(lam), free.param_bits)
        assert _network_pass(period, fallback, tie, config, fast_train(steps),
                             hint, lam) is None
        assert tie.outcome == "lost" and tie.frames_coded_with == len(period)

    def test_no_regions_trains_nothing(self, static_frames):
        cfg = SequenceConfig(width=96, height=64, frame_count=6, qp=4,
                             gnn_interval=3, gnn_arch=(3, 4, 1536))
        _, report = encode_sequence(static_frames, cfg, train_cfg=fast_train(5))
        assert [p.outcome for p in report.periods] == ["no_regions"] * 2
        assert all(p.train_samples == 0 for p in report.periods)

    def test_generator_off_records_each_period(self, pan_frames):
        cfg = SequenceConfig(width=96, height=64, frame_count=8, qp=20,
                             gnn_interval=4, gnn_enabled=False)
        _, report = encode_sequence(pan_frames, cfg)
        assert [(p.start, p.outcome, p.param_bits) for p in report.periods] == [
            (0, "off", 0), (4, "off", 0)]
        header_j = rd_lambda(20) * report.rows[0].bits_header
        assert sum(p.j_without for p in report.periods) + header_j == (
            pytest.approx(report.rd_cost))

    def test_encode_period_stops_at_the_budget(self, pan_frames, pan_config):
        lam = rd_lambda(pan_config.qp)
        args = (pan_frames[:4], 0, [[]] * 4, None, None, pan_config, lam, 3, 2)
        full = _encode_period(*args)
        assert _encode_period(*args, budget=0.0).results == []
        # the last check runs before the last frame, on a cost below the full J
        tight = _encode_period(*args, budget=full.j(lam))
        assert tight.data == full.data
        assert tight.frame_bits == full.frame_bits
        first = full.results[0].distortion + lam * full.frame_bits[0].total
        assert len(_encode_period(*args, budget=first).results) == 1


def flat_generator(value: int) -> QuantizedGnnParams:
    """A one-layer network that generates every block flat at value: zero
    weights, and biases that dequantize to value / 255."""
    return QuantizedGnnParams([QuantizedLayer(
        np.zeros((1536, 3), np.int16), np.full(1536, value, np.int16),
        np.float32(1 / 255))])


def flat_clip(n_frames: int, blocks: dict) -> list[Frame]:
    """96x64 frames flat at 128 but for blocks, which maps (frame, bx, by)
    to the value that block is flat at in every plane."""
    frames = []
    for t in range(n_frames):
        planes = [np.full((64, 96), 128, np.uint8),
                  np.full((32, 48), 128, np.uint8), np.full((32, 48), 128, np.uint8)]
        for (f, bx, by), value in blocks.items():
            if f == t:
                for plane, size in zip(planes, (32, 16, 16)):
                    plane[by * size:(by + 1) * size, bx * size:(bx + 1) * size] = value
        frames.append(make_frame(*planes))
    return frames


class TestReplayedNetworkPass:
    """The network pass replays the fallback pass until the generator first
    wins a block, then codes every frame. Replayed or coded frame by frame,
    a pass must give the same bytes, bits, pixels and distortion, and stop
    at the same frame under every budget.

    The flat clips run at qp 51, where lambda is 6963.2 and a flat residual
    of up to 22 quantizes to nothing, so a candidate costs its prediction's
    SSD, 1536 samples times the offset squared, plus lambda times its
    syntax bits, 24 tile bits and the selection bit. On flat content a P
    frame's inter and DC candidates tie at 1 + 2 + 24 + 1 bits and inter
    takes the tie; the flat generator pays 24 + 1. The margins below are
    under lambda, so a replay that charged the selection bit to only one
    side would decide them the other way.
    """

    K, N = 2, 5  # the frame where a flat clip changes, and its length

    def passes(self, frames, regions, qparams, qp, monkeypatch):
        """The pass coded frame by frame, with budget inf, and the frames
        _encode_frame coded in the replayed one. Both are compared at
        every budget: none, and each that stops the pass before a frame."""
        n = len(frames)
        config = SequenceConfig(width=96, height=64, frame_count=n, qp=qp,
                                gnn_interval=n)
        lam = rd_lambda(qp)
        args = (frames, 0, regions, qparams, SetContext(3, 2, 0, n),
                config, lam, 3, 2)
        fallback = _encode_period(frames, 0, [[]] * n, None, None, config, lam, 3, 2)
        full = _encode_period(*args)
        # the cost after frame m is a budget that stops before frame m + 1
        spent = (np.cumsum([r.distortion for r in full.results])
                 + lam * (full.param_bits + np.cumsum([fb.total for fb in full.frame_bits])))
        budgets = [math.inf, *spent[:-1].tolist()]
        wants = [_encode_period(*args, budget=b) for b in budgets]
        real_encode = nbv.encoder._encode_frame
        coded = []

        def counting_encode(*args):
            coded.append(args[2])
            return real_encode(*args)

        def no_parse(*args):
            raise AssertionError("a network pass parsed a frame unit")

        monkeypatch.setattr(nbv.encoder, "_encode_frame", counting_encode)
        # a replayed frame copies its payload bits and reads nothing back
        monkeypatch.setattr(nbv.bitstream, "parse_frame", no_parse)
        monkeypatch.setattr(nbv.encoder, "parse_frame", no_parse, raising=False)
        for stop, (budget, want) in enumerate(zip(budgets, wants)):
            got = _encode_period(*args, budget=budget, fallback=fallback)
            if stop == 0:
                coded_in_full = list(coded)
            assert len(got.results) == len(want.results) == (stop or n)
            assert got.data == want.data
            assert got.frame_bits == want.frame_bits
            assert [r.distortion for r in got.results] == [
                r.distortion for r in want.results]
            for a, b in zip(got.results, want.results):
                assert frames_equal(a.recon, b.recon)
        return full, coded_in_full

    # The right column alone, or the left column too: then four selection
    # bits sit before the copied payload. On the flat 128 blocks of the
    # left column the flat generators lose by far more than lambda.
    REGIONS = {
        "one": [RegionSpec(2, 0, 2, 1, True)],
        "two": [RegionSpec(0, 0, 0, 1, True), RegionSpec(2, 0, 2, 1, True)],
    }

    @pytest.mark.parametrize("clip", ["flat", "pan"])
    def test_generator_never_wins(self, clip, monkeypatch):
        self.never_wins(clip, "one", monkeypatch)

    @pytest.mark.parametrize("clip", ["flat", "pan"])
    def test_two_regions_generator_never_wins(self, clip, monkeypatch):
        self.never_wins(clip, "two", monkeypatch)

    def test_hands_over_at_the_first_generated_block(self, monkeypatch):
        self.hands_over("one", monkeypatch)

    def test_two_regions_hand_over_at_the_first_generated_block(self, monkeypatch):
        self.hands_over("two", monkeypatch)

    def never_wins(self, clip, regions, monkeypatch):
        regions = [self.REGIONS[regions]] * (self.N if clip == "flat" else 8)
        if clip == "flat":
            # at frame K the generator loses block (2, 0) by 3686.4, under
            # lambda: 1536 * 5^2 + 25 lambda against 1536 * 3^2 + 28 lambda
            n, qp, qparams = self.N, 51, flat_generator(136)
            frames = flat_clip(n, {(self.K, 2, 0): 131})
        else:
            n, qp = 8, 8
            frames = synth_sequence("pan", 96, 64, n, velocity=(4, 0), seed=7)
            ctx = SetContext(3, 2, 0, n)
            qparams, _ = train_param_set(frames, 0, regions, ctx, (3, 4, 1536),
                                         fast_train(20))
        full, coded = self.passes(frames, regions, qparams, qp, monkeypatch)
        assert [mode_counts(r.modes)[2] for r in full.results] == [0] * n
        assert coded == []

    def hands_over(self, regions, monkeypatch):
        # at frame K the generator wins block (2, 0) by 3993.6, under
        # lambda: 1536 * 6^2 + 25 lambda against 1536 * 5^2 + 28 lambda.
        # Frame K + 1 is flat again, but its reference is not the fallback
        # pass's: there DC beats inter, which the fallback frame chose.
        frames = flat_clip(self.N, {(self.K, 2, 0): 123})
        regions = [self.REGIONS[regions]] * self.N
        full, coded = self.passes(frames, regions, flat_generator(117), 51, monkeypatch)
        assert [mode_counts(r.modes)[2] for r in full.results] == [0, 0, 1, 0, 0]
        assert full.results[self.K + 1].modes[0, 2] == BlockMode.INTRA_DC
        assert coded == list(range(self.K, self.N))

    def test_forced_region_hands_over(self, monkeypatch):
        # a forced block at frame K only; frame K + 1 reads it as above
        regions = ([[]] * self.K + [[RegionSpec(2, 1, 2, 1, False)]]
                   + [[]] * (self.N - self.K - 1))
        full, coded = self.passes(flat_clip(self.N, {}), regions, flat_generator(117),
                                  51, monkeypatch)
        assert [mode_counts(r.modes)[2] for r in full.results] == [0, 0, 1, 0, 0]
        assert full.results[self.K + 1].modes[1, 2] == BlockMode.INTRA_DC
        assert coded == list(range(self.K, self.N))


class TestPeriodBlockRecord:
    """Each period records the fallback pass's per-block winning costs."""

    @pytest.mark.parametrize("name", ["pan_qp20_generator_off", "pan_qp8_tiny_arch",
                                      "zoom_out_qp8_tiny_arch"])
    def test_block_costs_add_up_to_the_pass(self, name):
        _, report = encode_case(name)
        # no case keeps its network, so the stream is the fallback pass's
        assert all(p.outcome != "kept" for p in report.periods)
        d = np.concatenate([p.block_d for p in report.periods])
        r = np.concatenate([p.block_r for p in report.periods])
        assert d.dtype == r.dtype == np.int32
        assert d.shape == r.shape == (len(report.rows), 2, 3)
        assert int(d.sum(dtype=np.int64)) == report.total_distortion
        # the frame header (tag 8, frame type 1, no regions 1) and up to
        # 7 bits of padding to the byte are all a frame adds
        for row, frame_r in zip(report.rows, r):
            total = row.bits_modes + row.bits_mv + row.bits_residual
            assert 0 <= total - (10 + int(frame_r.sum())) <= 7


def parsed_unit_bits(stream):
    """(header bits, [(kind, bits)]) as parse_stream reports them."""
    sizes = []
    _, units = parse_stream(stream, sizes)
    kinds = [kind for kind, _ in units]
    return sizes[0], list(zip(kinds, sizes[1:], strict=True))


def frame_bits_tuple(fb):
    return fb.modes, fb.mvs, fb.residuals


class TestAccountingSymmetry:
    """What the parser counts equals what the writer reported when encoding."""

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_golden_encode(self, name):
        stream, report = encode_case(name)
        header_bits, units = parsed_unit_bits(stream)
        assert header_bits == report.rows[0].bits_header
        assert [frame_bits_tuple(b) for kind, b in units if kind == "frame"] == [
            (r.bits_modes, r.bits_mv, r.bits_residual) for r in report.rows]
        assert [b for kind, b in units if kind == "param_set"] == [
            r.bits_params for r in report.rows if r.bits_params]

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_encoder_and_decoder_count_the_same_modes(self, name):
        stream, report = encode_case(name)
        _, dec = decode_sequence(stream)
        assert [r.n_gen_blocks for r in report.rows] == [r.n_gen for r in dec.rows]
        assert report.mode_histogram == {
            "intra": sum(r.n_intra for r in dec.rows),
            "inter": sum(r.n_inter for r in dec.rows),
            "gen": sum(r.n_gen for r in dec.rows),
        }

    def test_forced_region_period(self):
        stream, period = forced_stream()
        _, units = parsed_unit_bits(stream)
        assert units[0] == ("param_set", period.param_bits)
        assert [frame_bits_tuple(b) for _, b in units[1:]] == [
            frame_bits_tuple(fb) for fb in period.frame_bits]
