"""Decoder: closed-loop fidelity, state rules, and per-frame statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    decode_frame_oracle,
    fast_train,
    forced_stream,
    frame_unit,
    mutate,
    random_unit,
    write_stream,
)
from test_golden import encode_case
from nbv.bitstream import (
    BlockMode,
    RegionSpec,
    StreamHeader,
    parse_stream,
    write_header,
)
from nbv.core import BlockCoord, SequenceConfig, extract_block
from nbv.decoder import CSV_COLUMNS, FrameWalk, decode_sequence
from nbv.encoder import _encode_period, rd_lambda, train_param_set
from nbv.entropy import BitWriter, StreamError
from nbv.gnn import SetContext, init_params, quantize_params
from nbv.prediction import MotionVector, motion_compensate
from nbv.tools import bit_accounting, synth_sequence


def zero_tiles():
    return [np.zeros(64, dtype=np.int32) for _ in range(24)]


def one_block_unit(frame_type="I", mode=BlockMode.INTRA_DC, mvd=None,
                   regions=()):
    return frame_unit(frame_type, [(mode, mvd, zero_tiles())], regions=regions)


def tiny_header(frame_count, gnn_enabled=True):
    return StreamHeader(32, 32, frame_count, 20, gnn_enabled, 16)


def tiny_qparams(seed=0):
    return quantize_params(init_params((3, 1536), seed=seed))


class TestClosedLoop:
    def test_decode_is_deterministic(self, pan_encode):
        stream, _ = pan_encode
        a, _ = decode_sequence(stream)
        b, _ = decode_sequence(stream)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.y, fb.y)
            assert np.array_equal(fa.cb, fb.cb)
            assert np.array_equal(fa.cr, fb.cr)

    def test_frame_count_and_display_size(self, pan_encode):
        stream, _ = pan_encode
        frames, _ = decode_sequence(stream)
        assert len(frames) == 8
        assert all((f.display_width, f.display_height) == (96, 64)
                   for f in frames)

    def test_block_stats_cover_the_grid(self, pan_encode):
        stream, _ = pan_encode
        _, report = decode_sequence(stream)
        for row in report.rows:
            assert row.n_intra + row.n_inter + row.n_gen == 6
        i_rows = [r for r in report.rows if r.type == "I"]
        assert i_rows and all(r.n_inter == 0 for r in i_rows)

    def test_csv_shape(self, pan_encode):
        stream, _ = pan_encode
        _, report = decode_sequence(stream)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert CSV_COLUMNS == ("frame", "n_intra", "n_inter", "n_gen")
        assert len(lines) == 1 + 8
        for row, line in zip(report.rows, lines[1:]):
            fields = line.split(",")
            assert int(fields[0]) == row.frame
            assert int(fields[3]) == row.n_gen

    def test_no_sets_means_no_generator_calls(self, pan_frames):
        cfg = SequenceConfig(width=96, height=64, frame_count=8, qp=20,
                             gnn_interval=4, gnn_enabled=False)
        from nbv.encoder import encode_sequence
        stream, _ = encode_sequence(pan_frames, cfg)
        _, report = decode_sequence(stream)
        assert report.n_param_sets == 0
        assert all(r.n_gen == 0 for r in report.rows)


def rejected_everywhere(data: bytes, message: str) -> None:
    """The stream ends in StreamError with message when decoded, when its
    units are parsed and when its bits are accounted, so `nbv decode` and
    `nbv inspect` reject it alike."""
    for consume in (decode_sequence, lambda d: list(parse_stream(d)[1]), bit_accounting):
        with pytest.raises(StreamError, match=message):
            consume(data)


class TestStateRules:
    """The order rules of parse_stream, each with its message."""

    def test_predicted_frame_needs_a_reference(self):
        unit = one_block_unit("P", BlockMode.INTER, mvd=(0, 0))
        data = write_stream(tiny_header(1), [("frame", unit)])
        rejected_everywhere(data, "^frame 0 is predicted but has no reference$")

    def test_generated_block_needs_a_parameter_set(self):
        reg = RegionSpec(0, 0, 0, 0, True)
        unit = one_block_unit("I", BlockMode.GEN, regions=[reg])
        data = write_stream(tiny_header(1), [("frame", unit)])
        rejected_everywhere(
            data, "^frame 0 uses generated blocks before any parameter set$")

    def test_generated_block_outside_the_sets_span_rejected(self):
        # at interval 1 the set before frame 0 covers frame 0 only; frame 1
        # ships no set of its own, so it must not reuse the stale one
        reg = RegionSpec(0, 0, 0, 0, False)
        gen_unit = one_block_unit("I", BlockMode.GEN, regions=[reg])
        in_span = write_stream(StreamHeader(32, 32, 1, 20, True, 1),
                               [("param_set", tiny_qparams()), ("frame", gen_unit)])
        _, report = decode_sequence(in_span)
        assert [r.n_gen for r in report.rows] == [1]
        stale = write_stream(StreamHeader(32, 32, 2, 20, True, 1), [
            ("param_set", tiny_qparams()), ("frame", gen_unit), ("frame", gen_unit),
        ])
        rejected_everywhere(
            stale, "^frame 1 generates blocks outside its parameter set's frames 0..0$")

    def test_parameter_set_must_precede_an_i_frame(self):
        units = [
            ("frame", one_block_unit("I")),
            ("param_set", tiny_qparams()),
            ("frame", one_block_unit("P", BlockMode.INTER, mvd=(0, 0))),
        ]
        data = write_stream(tiny_header(2), units)
        rejected_everywhere(data, "^parameter set must be followed by a keyframe$")

    def test_consecutive_parameter_sets_rejected(self):
        units = [
            ("param_set", tiny_qparams()),
            ("param_set", tiny_qparams(1)),
            ("frame", one_block_unit("I")),
        ]
        data = write_stream(tiny_header(1), units)
        rejected_everywhere(data, "^consecutive parameter sets without a frame$")

    def test_parameter_set_in_disabled_stream_rejected(self):
        units = [("param_set", tiny_qparams()), ("frame", one_block_unit("I"))]
        data = write_stream(tiny_header(1, gnn_enabled=False), units)
        rejected_everywhere(data, "^parameter set in a generator-disabled stream$")

    def test_stream_must_not_end_on_a_parameter_set(self):
        # the units stop after the header's frame count, so a set after the
        # last frame is trailing bits
        units = [
            ("frame", one_block_unit("I")),
            ("param_set", tiny_qparams()),
        ]
        data = write_stream(tiny_header(1), units)
        rejected_everywhere(data, "^[0-9]+ trailing bits after last frame$")

    def test_truncated_stream_rejected(self, pan_encode):
        stream, _ = pan_encode
        with pytest.raises(StreamError):
            decode_sequence(stream[:-3])

    def test_garbage_rejected(self):
        with pytest.raises(StreamError):
            decode_sequence(b"not a stream at all")


class TestMotionVectorPredictor:
    """An inter block's difference is coded against the left block's vector
    when that block is inter, and against zero after any other block and at
    the start of each row."""

    def test_vectors_follow_the_left_neighbour_context(self):
        rng = np.random.default_rng(3)
        textured = frame_unit("I", [
            (mode, None, rng.integers(-6, 7, (24, 64)))
            for mode in (BlockMode.INTRA_DC, BlockMode.INTRA_H, BlockMode.INTRA_V) * 2
        ], cols=3)
        inter = frame_unit("P", [
            (mode, mvd, zero_tiles()) for mode, mvd in (
                (BlockMode.INTER, (2, 1)), (BlockMode.INTRA_H, None),
                (BlockMode.INTER, (1, 0)),
                (BlockMode.INTER, (0, 2)), (BlockMode.INTER, (-1, 0)),
                (BlockMode.INTRA_V, None))
        ], cols=3)
        data = write_stream(StreamHeader(96, 64, 2, 20, False, 16),
                            [("frame", textured), ("frame", inter)])
        (frame0, frame1), _ = decode_sequence(data)
        # after an intra block the vector is coded against zero, each row
        # starts from zero, and an inter left neighbour's vector chains
        for (bx, by), mv in (((0, 0), (2, 1)), ((2, 0), (1, 0)),
                             ((0, 1), (0, 2)), ((1, 1), (-1, 2))):
            c = BlockCoord(bx, by)
            want = motion_compensate(frame0, c, MotionVector(*mv))
            got = extract_block(frame1, c)
            for g, w in ((got.y, want.y), (got.cb, want.cb), (got.cr, want.cr)):
                assert np.array_equal(g, w), (c, mv)


def diagonals(rows, cols):
    """The anti-diagonals bx + by = d of a rows x cols grid in order of d,
    each as (n, 2) block coordinates (bx, by) in raster order."""
    by, bx = np.indices((rows, cols)).reshape(2, -1)
    return [np.stack([bx, by], axis=-1)[bx + by == d] for d in range(rows + cols - 1)]


def vectors_by_diagonals(modes, mvds):
    """FrameWalk.vectors as the encoder's walk states it: diagonal by
    diagonal, each inter block's difference added to mv_pred's vector."""
    rows, cols = modes.shape
    walk = FrameWalk(32 * cols, 32 * rows)
    for coords in diagonals(rows, cols):
        bx, by = coords[:, 0], coords[:, 1]
        inter = (modes[by, bx] == BlockMode.INTER)[:, None]
        walk.mvs[by, bx] = np.where(inter, walk.mv_pred(coords) + mvds[by, bx], 0)
    return walk.mvs


class TestVectorsClosedForm:
    """FrameWalk.vectors' running sums equal mv_pred's rule applied one
    diagonal at a time."""

    @staticmethod
    def closed_form(modes, mvds):
        rows, cols = modes.shape
        return FrameWalk(32 * cols, 32 * rows).vectors(modes, mvds)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 9), st.integers(1, 12), st.floats(0.0, 1.0),
           st.integers(0, 2**32 - 1))
    def test_equals_the_diagonal_walk(self, rows, cols, p_inter, seed):
        rng = np.random.default_rng(seed)
        modes = rng.integers(0, len(BlockMode), (rows, cols)).astype(np.int8)
        modes[rng.random((rows, cols)) < p_inter] = BlockMode.INTER
        mvds = rng.integers(-2**20, 2**20 + 1, (rows, cols, 2)).astype(np.int32)
        mvds[modes != BlockMode.INTER] = 0
        got = self.closed_form(modes, mvds)
        assert got.dtype == np.int64
        assert np.array_equal(got, vectors_by_diagonals(modes, mvds))

    def test_a_long_run_of_extreme_differences(self):
        # 256 inter blocks a row, differences of +-(2^31 - 1): the sums
        # reach 256 * (2^31 - 1) without wrapping
        rng = np.random.default_rng(9)
        modes = np.full((3, 256), BlockMode.INTER, np.int8)
        modes[1, 100] = BlockMode.INTRA_DC
        mvds = rng.choice([-(2**31 - 1), 2**31 - 1], (3, 256, 2)).astype(np.int32)
        mvds[0] = 2**31 - 1
        mvds[1, 100] = 0
        got = self.closed_form(modes, mvds)
        assert np.array_equal(got, vectors_by_diagonals(modes, mvds))
        assert got[0, -1].tolist() == [256 * (2**31 - 1)] * 2
        assert np.array_equal(got[2], np.cumsum(mvds[2], axis=0, dtype=np.int64))
        assert not got[1, 100].any()
        assert np.array_equal(got[1, 101:], np.cumsum(mvds[1, 101:], axis=0,
                                                      dtype=np.int64))


class TestIntraWaves:
    """FrameWalk.waves orders a mask's blocks so that a block's left and
    top neighbours are unmasked or in an earlier wave, and puts each block
    in the earliest wave that allows; with every block masked the waves
    are the anti-diagonals."""

    def test_every_block_masked_gives_the_diagonals(self):
        for rows, cols in ((1, 1), (1, 5), (4, 1), (3, 4), (5, 2)):
            walk = FrameWalk(32 * cols, 32 * rows)
            waves = walk.waves(np.ones((rows, cols), bool))
            assert [w.tolist() for w in waves] == [d.tolist() for d in diagonals(rows, cols)]

    def test_waves_follow_the_left_and_top_neighbours(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            rows, cols = rng.integers(1, 7, 2)
            mask = rng.random((rows, cols)) < rng.random()
            waves = FrameWalk(32 * cols, 32 * rows).waves(mask)
            wave = np.zeros((rows, cols), int)
            for k, coords in enumerate(waves, 1):
                assert len(coords)
                wave[coords[:, 1], coords[:, 0]] = k
            assert np.array_equal(wave > 0, mask)
            for by, bx in zip(*np.nonzero(mask)):
                left = wave[by, bx - 1] if bx else 0
                top = wave[by - 1, bx] if by else 0
                assert wave[by, bx] == 1 + max(left, top)


class TestMultiplePeriods:
    def build_two_period_stream(self):
        frames = synth_sequence("pan", 96, 64, 6, velocity=(4, 0), seed=10)
        config = SequenceConfig(width=96, height=64, frame_count=6, qp=24,
                                gnn_interval=3, gnn_enabled=True,
                                gnn_arch=(3, 8, 1536))
        lam = rd_lambda(config.qp)
        regions = [[RegionSpec(2, 0, 2, 1, False)] for _ in range(3)]
        periods = []
        for start in (0, 3):
            chunk = frames[start:start + 3]
            ctx = SetContext(cols=3, rows=2, start_frame=start, span=3)
            qparams, _ = train_param_set(chunk, start, regions, ctx,
                                         config.gnn_arch, fast_train(40))
            periods.append(_encode_period(chunk, start, regions, qparams, ctx,
                                          config, lam, 3, 2))
        w = BitWriter()
        write_header(w, StreamHeader(96, 64, 6, 24, True, 3))
        data = w.to_bytes() + periods[0].data + periods[1].data
        return data, periods

    def test_second_set_restarts_the_time_axis(self):
        data, periods = self.build_two_period_stream()
        decoded, report = decode_sequence(data)
        assert report.n_param_sets == 2
        assert len(decoded) == 6
        want = [res.recon for p in periods for res in p.results]
        for got, exp in zip(decoded, want):
            assert np.array_equal(got.y, exp.y)
            assert np.array_equal(got.cb, exp.cb)
            assert np.array_equal(got.cr, exp.cr)

    def test_generator_calls_counted_per_frame(self):
        data, _ = self.build_two_period_stream()
        _, report = decode_sequence(data)
        assert [r.n_gen for r in report.rows] == [2] * 6


@pytest.fixture(scope="module")
def forced_bytes():
    stream, _ = forced_stream()
    return stream


# golden encodes with two periods each of I and P frames whose blocks carry
# inter vectors; neither keeps a region, which the forced stream covers
P_FRAME_CASES = ("pan_qp20_generator_off", "zoom_out_qp8_tiny_arch")


@pytest.fixture(scope="module", params=P_FRAME_CASES)
def p_frame_bytes(request):
    stream, _ = encode_case(request.param)
    return stream


def consume_damaged(damaged: bytes) -> None:
    """Decoding and bit accounting both succeed on the stream, or both end
    in StreamError with one message."""
    outcomes = []
    for consume in (decode_sequence, bit_accounting):
        try:
            consume(damaged)
            outcomes.append(None)
        except StreamError as e:
            outcomes.append(str(e))
    assert outcomes[0] == outcomes[1]


class TestMutatedStreams:
    """A damaged stream either still parses or ends in StreamError, never in
    another exception, and the decoder and the bit accounting agree on
    which. The forced-region stream holds a parameter set and generated
    blocks, so mutations reach every unit kind; the golden P-frame streams
    add inter vectors over several frames and periods."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_only_stream_errors(self, forced_bytes, data):
        consume_damaged(mutate(forced_bytes, data.draw))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_p_frame_streams_only_stream_errors(self, p_frame_bytes, data):
        consume_damaged(mutate(p_frame_bytes, data.draw))

    def test_every_header_bit_flip(self, forced_bytes):
        # among them: the generator switched off under a parameter set, and
        # an interval that leaves a generating frame outside its set
        for bit in range(120):
            damaged = bytearray(forced_bytes)
            damaged[bit // 8] ^= 0x80 >> (bit % 8)
            consume_damaged(bytes(damaged))


class TestBatchedDecodeOracle:
    """The decoder rebuilds a frame in batches: all residual planes, all
    vectors, all inter blocks at once, then the intra and generated blocks.
    On any legal stream it must give the pixels of the block-by-block
    decode_frame_oracle."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_frames_equal_the_block_by_block_oracle(self, data):
        draw = data.draw
        cols, rows = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        width = 32 * cols - draw(st.integers(0, 31))
        height = 32 * rows - draw(st.integers(0, 31))
        qp = draw(st.sampled_from([0, 8, 20, 32, 51]))
        n_frames = draw(st.integers(2, 3))
        gen = draw(st.booleans())
        regions = []
        if gen:  # one forced or selectable region
            x0, y0 = draw(st.integers(0, cols - 1)), draw(st.integers(0, rows - 1))
            regions.append(RegionSpec(x0, y0, draw(st.integers(x0, cols - 1)),
                                      draw(st.integers(y0, rows - 1)),
                                      draw(st.booleans())))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        units = [("param_set", tiny_qparams(seed=int(rng.integers(100))))] if gen else []
        units += [("frame", random_unit(rng, "P" if i else "I", cols, rows, regions))
                  for i in range(n_frames)]
        stream = write_stream(
            StreamHeader(width, height, n_frames, qp, gen, n_frames), units)

        decoded, _ = decode_sequence(stream)
        _, parsed = parse_stream(stream)
        prev = qparams = ctx = None
        for kind, payload in parsed:
            if kind == "param_set":
                qparams, ctx = payload, SetContext(cols, rows, 0, n_frames)
                continue
            i = 0 if prev is None else i + 1
            want = decode_frame_oracle(payload, prev, i, qparams, ctx,
                                       width, height, qp)
            for g, w in ((decoded[i].y, want.y), (decoded[i].cb, want.cb),
                         (decoded[i].cr, want.cr)):
                assert np.array_equal(g, w), i
            prev = want
        assert i == n_frames - 1
