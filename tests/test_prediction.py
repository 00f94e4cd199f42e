"""Intra prediction and integer-pel motion search / compensation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clamped_window_py, rand_frame
from nbv.core import (
    BLOCK,
    MAX_SEARCH_RANGE,
    BlockCoord,
    blank_frame,
    block_grid_dims,
    extract_block,
    make_frame,
)
from nbv.prediction import (
    IntraMode,
    MotionVector,
    _clamped_window,
    block_motion,
    intra_predict,
    motion_compensate,
    motion_field,
    motion_search,
)


def clamped_window_idx(plane, y0, x0, h, w):
    """Edge-clamped window fetch by clipped index arrays."""
    ys = np.clip(np.arange(y0, y0 + h), 0, plane.shape[0] - 1)
    xs = np.clip(np.arange(x0, x0 + w), 0, plane.shape[1] - 1)
    return plane[ys][:, xs]


def at(field, c):
    """The vector and SAD a motion field holds for the block at c."""
    return (MotionVector(int(field.dx[c.by, c.bx]), int(field.dy[c.by, c.bx])),
            int(field.sad[c.by, c.bx]))


def search_oracle(cur_y, ref, c, r):
    """Exhaustive reference search with the documented tie-break."""
    best = None
    y0, x0 = c.by * BLOCK, c.bx * BLOCK
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            win = clamped_window_idx(ref.y, y0 + dy, x0 + dx, BLOCK, BLOCK)
            sad = int(np.abs(win.astype(np.int64) - cur_y.astype(np.int64)).sum())
            key = (sad, abs(dx) + abs(dy), dy, dx)
            if best is None or key < best[0]:
                best = (key, MotionVector(dx, dy), sad)
    return best[1], best[2]


class TestIntraDC:
    def test_top_200_left_100_gives_150(self):
        recon = blank_frame(64, 64)
        recon.y[31, 32:64] = 200
        recon.y[32:64, 31] = 100
        pred = intra_predict(recon, BlockCoord(1, 1), IntraMode.DC)
        assert np.all(pred.y == 150)

    def test_no_neighbors_defaults_to_midgray(self):
        pred = intra_predict(blank_frame(64, 64, value=9), BlockCoord(0, 0),
                             IntraMode.DC)
        assert np.all(pred.y == 128)
        assert np.all(pred.cb == 128) and np.all(pred.cr == 128)

    def test_top_only_uses_top_row_mean(self):
        recon = blank_frame(64, 64)
        recon.y[31, 0:32] = 99
        pred = intra_predict(recon, BlockCoord(0, 1), IntraMode.DC)
        assert np.all(pred.y == 99)

    def test_mean_rounds_half_up(self):
        recon = blank_frame(64, 64)
        recon.y[31, 0:32] = 10
        recon.y[31, 0] = 11  # sum 331 over 32 -> 10.34 -> 10
        pred = intra_predict(recon, BlockCoord(0, 1), IntraMode.DC)
        assert np.all(pred.y == 10)
        recon.y[31, 0:16] = 11  # sum 336 -> 10.5 -> 11
        pred = intra_predict(recon, BlockCoord(0, 1), IntraMode.DC)
        assert np.all(pred.y == 11)

    def test_chroma_planes_use_their_own_neighbors(self):
        recon = blank_frame(64, 64)
        recon.cb[15, 16:32] = 60
        recon.cb[16:32, 15] = 80
        pred = intra_predict(recon, BlockCoord(1, 1), IntraMode.DC)
        assert np.all(pred.cb == 70)


class TestIntraDirectional:
    def test_vertical_replicates_top_row(self):
        recon = blank_frame(64, 64)
        recon.y[31, 0:32] = np.arange(32, dtype=np.uint8)
        pred = intra_predict(recon, BlockCoord(0, 1), IntraMode.VERTICAL)
        assert np.array_equal(pred.y, np.tile(np.arange(32, dtype=np.uint8), (32, 1)))

    def test_horizontal_replicates_left_column(self):
        recon = blank_frame(64, 64)
        recon.y[0:32, 31] = np.arange(32, dtype=np.uint8)
        pred = intra_predict(recon, BlockCoord(1, 0), IntraMode.HORIZONTAL)
        assert np.array_equal(pred.y, np.tile(np.arange(32, dtype=np.uint8)[:, None],
                                              (1, 32)))

    def test_missing_edge_falls_back_to_dc(self):
        recon = blank_frame(64, 64)
        recon.y[31, 0:32] = 40
        # no left column exists for bx=0, so H degrades to DC over the top row
        pred = intra_predict(recon, BlockCoord(0, 1), IntraMode.HORIZONTAL)
        assert np.all(pred.y == 40)
        # V at the top row still averages the left column it does have
        recon.y[0:32, 31] = 90
        pred = intra_predict(recon, BlockCoord(1, 0), IntraMode.VERTICAL)
        assert np.all(pred.y == 90)
        # with neither edge the fallback is the 128 default
        pred = intra_predict(recon, BlockCoord(0, 0), IntraMode.VERTICAL)
        assert np.all(pred.y == 128)


def intra_plane_py(plane, x0, y0, size, have_top, have_left, mode):
    """Reference intra prediction of one plane's block, one block at a time."""
    top = [int(v) for v in plane[y0 - 1, x0:x0 + size]] if have_top else None
    left = [int(v) for v in plane[y0:y0 + size, x0 - 1]] if have_left else None
    if mode == IntraMode.HORIZONTAL and left is not None:
        return np.array([[v] * size for v in left], dtype=np.uint8)
    if mode == IntraMode.VERTICAL and top is not None:
        return np.array([top] * size, dtype=np.uint8)
    edges = (top or []) + (left or [])
    dc = (2 * sum(edges) + len(edges)) // (2 * len(edges)) if edges else 128
    return np.full((size, size), dc, dtype=np.uint8)


def intra_predict_py(recon, c, mode):
    return [intra_plane_py(plane, c.bx * size, c.by * size, size,
                           c.by > 0, c.bx > 0, mode)
            for plane, size in ((recon.y, 32), (recon.cb, 16), (recon.cr, 16))]


class TestIntraBatch:
    """intra_predict on coordinate and mode arrays equals one call per
    block, and each call the block-at-a-time reference, for every block
    and mode: the first row and column, where a directional mode falls
    back to DC and the corner to 128, included, on cropped frames."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_batch_equals_one_call_per_block(self, data):
        draw = data.draw
        cols, rows = draw(st.integers(1, 5)), draw(st.integers(1, 4))
        width = 32 * cols - draw(st.integers(0, 31))
        height = 32 * rows - draw(st.integers(0, 31))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        cw, ch = (width + 1) // 2, (height + 1) // 2
        high = draw(st.sampled_from([2, 256]))  # few levels make DC ties
        frame = make_frame(rng.integers(0, high, (height, width), dtype=np.uint8),
                           rng.integers(0, high, (ch, cw), dtype=np.uint8),
                           rng.integers(0, high, (ch, cw), dtype=np.uint8))
        by, bx = np.indices((rows, cols))
        grid = np.stack([bx, by], axis=-1)
        modes = rng.integers(0, 3, (rows, cols))
        every = intra_predict(frame, grid[:, :, None], list(IntraMode))
        mixed = intra_predict(frame, grid, modes)
        assert every.y.shape == (rows, cols, 3, 32, 32)
        assert mixed.cb.shape == (rows, cols, 16, 16)
        for n in range(rows * cols):
            c = BlockCoord(n % cols, n // cols)
            for mode in IntraMode:
                one = intra_predict(frame, c, mode)
                want = intra_predict_py(frame, c, mode)
                for got, batch, w in zip((one.y, one.cb, one.cr),
                                         (every.y, every.cb, every.cr), want):
                    assert got.dtype == np.uint8 and np.array_equal(got, w), (c, mode)
                    assert np.array_equal(batch[c.by, c.bx, mode], w), (c, mode)
            want = intra_predict_py(frame, c, IntraMode(modes[c.by, c.bx]))
            for got, w in zip((mixed.y, mixed.cb, mixed.cr), want):
                assert np.array_equal(got[c.by, c.bx], w), c

    def test_corner_block_is_flat_128_in_every_mode(self):
        frame = blank_frame(64, 64, value=9)
        pred = intra_predict(frame, [[0, 0]] * 3, list(IntraMode))
        for plane in (pred.y, pred.cb, pred.cr):
            assert plane.shape[0] == 3 and np.all(plane == 128)


class TestMotionSearch:
    def test_identical_frames_pick_zero_vector(self):
        ref = rand_frame(96, 64, seed=11)
        cur = extract_block(ref, BlockCoord(1, 1))
        mv, sad = motion_search(cur, ref, BlockCoord(1, 1), 8)
        assert mv == MotionVector(0, 0) and sad == 0

    def test_recovers_known_offset_exactly(self):
        ref = rand_frame(128, 96, seed=12)
        c = BlockCoord(1, 1)
        for true_mv in [MotionVector(-4, 0), MotionVector(3, -2),
                        MotionVector(0, 5), MotionVector(-6, -6)]:
            cur = motion_compensate(ref, c, true_mv)
            mv, sad = motion_search(cur, ref, c, 8)
            assert mv == true_mv and sad == 0

    def test_matches_reference_search_with_tie_break(self):
        rng = np.random.default_rng(13)
        for trial in range(12):
            ref = rand_frame(96, 64, seed=100 + trial)
            cur_fr = rand_frame(96, 64, seed=200 + trial)
            c = BlockCoord(int(rng.integers(0, 3)), int(rng.integers(0, 2)))
            cur = extract_block(cur_fr, c)
            r = int(rng.integers(1, 5))
            got_mv, got_sad = motion_search(cur, ref, c, r)
            want_mv, want_sad = search_oracle(cur.y, ref, c, r)
            assert (got_mv, got_sad) == (want_mv, want_sad)

    def test_flat_content_ties_resolve_to_smallest_offset(self):
        ref = blank_frame(96, 64, value=50)
        cur = extract_block(ref, BlockCoord(1, 1))
        mv, sad = motion_search(cur, ref, BlockCoord(1, 1), 8)
        assert mv == MotionVector(0, 0) and sad == 0

    def test_zero_range_degenerates_to_colocated(self):
        ref = rand_frame(96, 64, seed=14)
        cur = rand_frame(96, 64, seed=15)
        blk = extract_block(cur, BlockCoord(2, 1))
        mv, sad = motion_search(blk, ref, BlockCoord(2, 1), 0)
        assert mv == MotionVector(0, 0)
        co = extract_block(ref, BlockCoord(2, 1))
        assert sad == int(np.abs(co.y.astype(int) - blk.y.astype(int)).sum())

    def test_block_motion_rejects_off_grid_and_mismatched_blocks(self):
        ref = rand_frame(96, 64, seed=16)
        blk = extract_block(ref, BlockCoord(0, 0)).y
        for c in [(3, 0), (0, 2), (-1, 0)]:
            with pytest.raises(ValueError, match="outside"):
                block_motion(blk, ref, c, 2)
        with pytest.raises(ValueError, match="luma blocks"):
            block_motion(blk[None], ref, (0, 0), 2)

    def test_negative_range_rejected(self):
        ref = rand_frame(64, 64, seed=16)
        with pytest.raises(ValueError):
            motion_search(extract_block(ref, BlockCoord(0, 0)), ref,
                          BlockCoord(0, 0), -1)


def luma_frame(y):
    """A frame with the given luma and flat chroma; the search reads luma only."""
    h, w = y.shape
    chroma = np.full(((h + 1) // 2, (w + 1) // 2), 128, np.uint8)
    return make_frame(y, chroma, chroma)


def periodic_luma(h, w, py, px, rng, phase=(0, 0)):
    """A texture repeating every py rows and px columns, shifted by phase."""
    tile = rng.integers(0, 256, (py, px), dtype=np.uint8)
    ys = (np.arange(h) + phase[0]) % py
    xs = (np.arange(w) + phase[1]) % px
    return tile[ys][:, xs]


def assert_field_matches_block_searches(cur, ref, r):
    field = motion_field(cur, ref, r)
    cols, rows = block_grid_dims(cur.width, cur.height)
    assert field.dx.shape == field.dy.shape == field.sad.shape == (rows, cols)
    for by in range(rows):
        for bx in range(cols):
            c = BlockCoord(bx, by)
            blk = extract_block(cur, c)
            want = search_oracle(blk.y, ref, c, r)
            assert at(field, c) == want, (c, r)
            assert motion_search(blk, ref, c, r) == want, (c, r)
    # every block at once, each in its own window, gives the same field
    by, bx = np.indices((rows, cols))
    grid = np.stack([bx, by], axis=-1)
    stacked = block_motion(extract_block(cur, grid).y, ref, grid, r)
    for got, want in zip(stacked, field):
        assert np.array_equal(got, want)
    return field


class TestMotionField:
    """The whole-frame search against the per-block reference search."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_every_block_matches_the_reference_search(self, data):
        """Low-entropy pictures, 2-4 gray levels in coarse cells, tie at
        many offsets of different dx columns, which the search visits one
        dx at a time, out of tie order."""
        w = data.draw(st.integers(1, 100), label="width")
        h = data.draw(st.integers(1, 80), label="height")
        r = data.draw(st.integers(0, 8), label="range")
        kind = data.draw(st.sampled_from(
            ["random", "flat", "periodic", "shifted", "low-entropy"]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if kind == "low-entropy":
            grays = np.array(data.draw(st.lists(st.integers(0, 255), min_size=2,
                                                max_size=4, unique=True)), np.uint8)
            cy, cx = (data.draw(st.integers(1, 8)) for _ in range(2))
            cells = rng.integers(0, len(grays), (2, -(-h // cy), -(-w // cx)))
            ref_y, cur_y = grays[cells.repeat(cy, axis=1).repeat(cx, axis=2)[:, :h, :w]]
            if data.draw(st.booleans()):
                cur_y = np.roll(ref_y, [data.draw(st.integers(-3, 3)) for _ in range(2)],
                                axis=(0, 1))
        elif kind == "random":
            ref_y = rng.integers(0, 256, (h, w), dtype=np.uint8)
            cur_y = rng.integers(0, 256, (h, w), dtype=np.uint8)
        elif kind == "flat":
            ref_y = np.full((h, w), rng.integers(0, 256), np.uint8)
            cur_y = np.full((h, w), rng.integers(0, 256), np.uint8)
        elif kind == "periodic":
            py, px = (data.draw(st.integers(1, 4)) for _ in range(2))
            sy, sx = (data.draw(st.integers(0, 3)) for _ in range(2))
            ref_y = periodic_luma(h, w, py, px, rng)
            cur_y = np.roll(ref_y, (sy, sx), axis=(0, 1))
        else:
            sy, sx = (data.draw(st.integers(-10, 10)) for _ in range(2))
            ref_y = rng.integers(0, 256, (h, w), dtype=np.uint8)
            cur_y = np.roll(ref_y, (sy, sx), axis=(0, 1))
        assert_field_matches_block_searches(luma_frame(cur_y), luma_frame(ref_y), r)

    def test_flat_frames_tie_everywhere_and_pick_zero(self):
        ref = luma_frame(np.full((70, 100), 90, np.uint8))
        cur = luma_frame(np.full((70, 100), 97, np.uint8))
        field = assert_field_matches_block_searches(cur, ref, 5)
        assert not field.dx.any() and not field.dy.any()
        assert np.all(field.sad == 7 * BLOCK * BLOCK)

    @pytest.mark.parametrize("period, phase, want", [
        # zero SAD at dx -6, -2, 2 and 6 on every row offset
        ((1, 4), (0, 2), MotionVector(-2, 0)),
        # zero SAD at every odd dy and even dx; dy -1 and 1 tie at taxicab 1
        ((2, 2), (1, 0), MotionVector(0, -1)),
        # zero SAD at every odd dy and odd dx; four ties at taxicab 2
        ((2, 2), (1, 1), MotionVector(-1, -1)),
    ])
    def test_periodic_texture_ties_follow_the_rule(self, period, phase, want):
        rng = np.random.default_rng(31)
        ref_y = periodic_luma(128, 128, *period, rng)
        rng = np.random.default_rng(31)
        cur_y = periodic_luma(128, 128, *period, rng, phase)
        field = assert_field_matches_block_searches(
            luma_frame(cur_y), luma_frame(ref_y), 6)
        # the interior blocks' windows lie inside the frame
        assert at(field, BlockCoord(1, 1)) == (want, 0)
        assert at(field, BlockCoord(2, 2)) == (want, 0)

    def test_edge_and_corner_blocks_of_an_odd_size(self):
        rng = np.random.default_rng(41)
        ref, cur = (luma_frame(rng.integers(0, 256, (67, 97), dtype=np.uint8))
                    for _ in range(2))
        assert_field_matches_block_searches(cur, ref, 8)

    def test_recovers_a_global_shift_away_from_the_edges(self):
        ref = rand_frame(160, 128, seed=43)
        cur = luma_frame(np.roll(ref.y, (3, -5), axis=(0, 1)))
        field = motion_field(cur, ref, 8)
        assert np.all(field.dx[1:-1, 1:-1] == 5) and np.all(field.dy[1:-1, 1:-1] == -3)
        assert not field.sad[1:-1, 1:-1].any()

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            motion_field(rand_frame(96, 64, seed=1), rand_frame(64, 64, seed=2), 2)
        with pytest.raises(ValueError, match="does not match"):
            motion_field(rand_frame(64, 96, seed=1), rand_frame(64, 64, seed=2), 0)

    @pytest.mark.parametrize("r", [-1, MAX_SEARCH_RANGE + 1, 10**6])
    def test_range_beyond_the_bound_rejected_before_any_search(self, r, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched at an invalid range")

        monkeypatch.setattr("nbv.prediction._search", no_search)
        frame = rand_frame(64, 64, seed=3)
        with pytest.raises(ValueError, match="search range"):
            motion_field(frame, frame, r)
        with pytest.raises(ValueError, match="search range"):
            motion_search(extract_block(frame, BlockCoord(0, 0)), frame,
                          BlockCoord(0, 0), r)

    def test_oracle_window_matches_the_per_sample_fetch(self):
        plane = rand_frame(96, 64, seed=44).y
        for y0 in (-9, -1, 0, 33, 40):
            for x0 in (-9, 0, 63, 70):
                assert np.array_equal(clamped_window_idx(plane, y0, x0, 32, 32),
                                      clamped_window_py(plane, y0, x0, 32, 32))


class TestMotionCompensate:
    def test_luma_window_matches_python_reference(self):
        ref = rand_frame(96, 64, seed=17)
        for mv in [MotionVector(0, 0), MotionVector(-40, 3), MotionVector(7, -50),
                   MotionVector(33, 33)]:
            for c in [BlockCoord(0, 0), BlockCoord(2, 1)]:
                got = motion_compensate(ref, c, mv)
                want = clamped_window_py(ref.y, c.by * 32 + mv.dy,
                                         c.bx * 32 + mv.dx, 32, 32)
                assert np.array_equal(got.y, want)

    def test_batch_equals_one_call_per_block(self):
        # vectors past every edge, odd negatives for the chroma halving
        ref = rand_frame(96, 64, seed=23)
        rng = np.random.default_rng(23)
        coords = np.stack(np.meshgrid(np.arange(3), np.arange(2)), axis=-1)
        mvs = rng.integers(-70, 71, (2, 3, 2))
        mvs[0, 0] = (-3, -5)
        got = motion_compensate(ref, coords, mvs)
        assert got.y.shape == (2, 3, 32, 32) and got.cb.shape == (2, 3, 16, 16)
        for by in range(2):
            for bx in range(3):
                one = motion_compensate(ref, BlockCoord(bx, by),
                                        MotionVector(*mvs[by, bx].tolist()))
                for g, w in ((got.y, one.y), (got.cb, one.cb), (got.cr, one.cr)):
                    assert np.array_equal(g[by, bx], w)

    def test_chroma_offsets_are_halved_toward_zero(self):
        ref = rand_frame(128, 96, seed=18)
        c = BlockCoord(1, 1)
        for mv, cmv in [
            (MotionVector(4, 2), (2, 1)),
            (MotionVector(3, 5), (1, 2)),
            (MotionVector(-3, -5), (-1, -2)),
            (MotionVector(-1, 1), (0, 0)),
        ]:
            got = motion_compensate(ref, c, mv)
            want = clamped_window_py(ref.cb, c.by * 16 + cmv[1],
                                     c.bx * 16 + cmv[0], 16, 16)
            assert np.array_equal(got.cb, want)

    def test_window_inside_and_at_the_edges_matches_the_clamped_fetch(self):
        plane = rand_frame(96, 64, seed=21).y
        h, w = 32, 32
        for y0 in (-1, 0, 1, 16, 31, 32, 33):
            for x0 in (-1, 0, 1, 40, 63, 64, 65):
                got = _clamped_window(plane, y0, x0, h, w)
                assert got.shape == (h, w) and got.dtype == plane.dtype
                assert np.array_equal(got, clamped_window_py(plane, y0, x0, h, w))

    def test_compensated_block_does_not_alias_the_reference(self):
        ref = rand_frame(96, 64, seed=22)
        before = [p.copy() for p in (ref.y, ref.cb, ref.cr)]
        got = motion_compensate(ref, BlockCoord(1, 0), MotionVector(3, 2))
        for p in (got.y, got.cb, got.cr):
            p[:] = 0
        for p, b in zip((ref.y, ref.cb, ref.cr), before):
            assert np.array_equal(p, b)

    def test_search_winner_reproduces_reported_sad(self):
        ref = rand_frame(96, 64, seed=19)
        cur_fr = rand_frame(96, 64, seed=20)
        for c in [BlockCoord(0, 0), BlockCoord(1, 1), BlockCoord(2, 0)]:
            cur = extract_block(cur_fr, c)
            mv, sad = motion_search(cur, ref, c, 6)
            pred = motion_compensate(ref, c, mv)
            assert sad == int(np.abs(pred.y.astype(int) - cur.y.astype(int)).sum())
