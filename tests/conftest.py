"""Shared fixtures: small deterministic sequences and one cached encode.

Session scope keeps the expensive pieces (synthesis, training, encoding)
to a single run; every test that needs them must treat them as read-only.
"""

import numpy as np
import pytest

from nbv.bitstream import FrameUnit, RegionSpec, StreamHeader, write_header
from nbv.core import Frame, SequenceConfig, make_frame
from nbv.encoder import _encode_period, encode_sequence, rd_lambda, train_param_set
from nbv.entropy import BitWriter
from nbv.gnn import SetContext, TrainConfig
from nbv.tools import synth_sequence


def rand_frame(width: int, height: int, seed: int = 0) -> Frame:
    rng = np.random.default_rng(seed)
    return make_frame(
        rng.integers(0, 256, (height, width), dtype=np.uint8),
        rng.integers(0, 256, (height // 2, width // 2), dtype=np.uint8),
        rng.integers(0, 256, (height // 2, width // 2), dtype=np.uint8),
    )


def frame_unit(frame_type: str, blocks, cols: int = 1, regions=()) -> FrameUnit:
    """A FrameUnit from per-block (mode, mvd, tiles) tuples in raster order,
    cols blocks a row; mvd None stands for zero, and tiles is anything that
    reshapes to (24, 64)."""
    rows = len(blocks) // cols
    modes = np.array([mode for mode, _, _ in blocks], dtype=np.int8)
    mvds = np.array([mvd or (0, 0) for _, mvd, _ in blocks], dtype=np.int32)
    tiles = np.array([np.reshape(t, (24, 64)) for _, _, t in blocks], dtype=np.int32)
    return FrameUnit(frame_type, list(regions), modes.reshape(rows, cols),
                     mvds.reshape(rows, cols, 2), tiles)


def fast_train(steps: int = 150) -> TrainConfig:
    # bit exactness never depends on training quality, only on determinism
    return TrainConfig(steps=steps)


@pytest.fixture(scope="session")
def pan_frames() -> list[Frame]:
    return synth_sequence("pan", 96, 64, 8, velocity=(4, 0), seed=7)


@pytest.fixture(scope="session")
def static_frames() -> list[Frame]:
    return synth_sequence("static", 96, 64, 6, seed=3)


@pytest.fixture(scope="session")
def pan_config() -> SequenceConfig:
    return SequenceConfig(
        width=96, height=64, frame_count=8, qp=20,
        gnn_interval=4, gnn_enabled=True, gnn_arch=(3, 16, 1536),
    )


@pytest.fixture(scope="session")
def pan_encode(pan_frames, pan_config):
    """(stream bytes, EncodeReport) for the shared panning fixture."""
    stream, report = encode_sequence(pan_frames, pan_config,
                                     train_cfg=fast_train())
    return stream, report


def forced_stream():
    """(stream bytes, _PeriodPass) for one 3-frame period whose right block
    column is a forced region, so every frame generates two blocks whatever
    their RD cost."""
    frames = synth_sequence("pan", 96, 64, 3, velocity=(4, 0), seed=9)
    config = SequenceConfig(width=96, height=64, frame_count=3, qp=20,
                            gnn_interval=3, gnn_enabled=True,
                            gnn_arch=(3, 8, 1536))
    ctx = SetContext(cols=3, rows=2, start_frame=0, span=3)
    regions = [[RegionSpec(2, 0, 2, 1, False)] for _ in range(3)]
    qparams, n = train_param_set(frames, 0, regions, ctx,
                                 config.gnn_arch, fast_train(60))
    assert n == 6
    period = _encode_period(frames, 0, regions, qparams, ctx, config,
                            rd_lambda(config.qp), 3, 2)
    w = BitWriter()
    write_header(w, StreamHeader(96, 64, 3, 20, True, 3))
    return w.to_bytes() + period.data, period
