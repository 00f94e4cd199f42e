"""End-to-end acceptance: every release criterion, one verdict line each.

Run with -s to see the verdict lines for passing criteria too:

    pytest tests/test_acceptance.py -v -s

The closed-loop fixture (64-frame 320x192 pan, three quantizers) is encoded
once and shared by the fidelity and rate-distortion criteria. Training steps
are reduced for those encodes; closed-loop exactness and the fallback
guarantee hold for any training outcome, and the overfit criterion runs the
full 5000-step schedule on its own.
"""

import time

import numpy as np
import pytest

from conftest import (
    apply_block_residual,
    backward,
    frame_unit,
    loss,
    parse_frame,
    parse_tiles,
    tile_frame,
    write_stream,
)
from nbv.bitstream import (
    BlockMode,
    RegionSpec,
    StreamHeader,
    parse_param_set,
    parse_stream,
    write_frame,
    write_param_set,
)
from nbv.core import BlockCoord, SequenceConfig, extract_block
from nbv.decoder import decode_sequence
from nbv.encoder import encode_sequence
from nbv.entropy import (
    BitReader,
    BitWriter,
    se_to_ue,
    ue_decode,
    ue_encode,
    ue_to_se,
)
from nbv.gnn import (
    QuantizedGnnParams,
    QuantizedLayer,
    SetContext,
    TrainConfig,
    block_to_targets,
    generate_block,
    gnn_input,
    init_params,
    param_count,
    quantize_params,
    train,
)
from nbv.residual import (
    dct8_forward,
    dct8_inverse,
    encode_block_residual,
)
from nbv.tools import synth_sequence

DEFAULT_ARCH = (3, 25, 40, 60, 1536)
FIXTURE_QPS = (8, 20, 32)


def verdict(criterion: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {criterion} ({label}): {detail}"


@pytest.fixture(scope="module")
def pan_fixture():
    """Shared 64-frame 320x192 pan encodes at three quantizers, timed."""
    frames = synth_sequence("pan", 320, 192, 64, velocity=(4, 0), seed=11)
    train_cfg = TrainConfig(steps=300)
    runs = {}
    t0 = time.monotonic()
    for qp in FIXTURE_QPS:
        on = SequenceConfig(width=320, height=192, frame_count=64, qp=qp,
                            gnn_interval=16, gnn_enabled=True)
        off = SequenceConfig(width=320, height=192, frame_count=64, qp=qp,
                             gnn_interval=16, gnn_enabled=False)
        stream_on, report_on = encode_sequence(frames, on, train_cfg)
        stream_off, report_off = encode_sequence(frames, off)
        runs[qp] = (stream_on, report_on, stream_off, report_off)
    return {"runs": runs, "encode_seconds": time.monotonic() - t0}


def test_criterion_1_architecture_arithmetic():
    per_layer = [o * (i + 1) for i, o in
                 zip(DEFAULT_ARCH[:-1], DEFAULT_ARCH[1:])]
    total = param_count(DEFAULT_ARCH)
    ok = total == 97_296 and per_layer == [100, 1040, 2460, 93_696]
    verdict(1, "architecture arithmetic", ok,
            f"total {total}, per layer {per_layer}")


def test_criterion_2_overhead_arithmetic():
    # 100k parameters of 10 bits a second over 40 Mbps; 94 generated
    # blocks of a 4K grid's 120 x 68, one generator call each, at 30 fps
    share = 100_000 * 10 / 40e6
    gen_share = 94 / (120 * 68)
    calls = 94 * 30
    ok = (share == pytest.approx(0.025)
          and abs(gen_share * 100 - 1.2) <= 0.1
          and calls == pytest.approx(2820.0))
    verdict(2, "overhead arithmetic", ok,
            f"bandwidth {share:.4%}, generated share {gen_share:.4%}, "
            f"{calls:.0f} calls/s")


def test_criterion_3_closed_loop_bit_identity(pan_fixture):
    t0 = time.monotonic()
    mismatches = []
    for qp, (stream_on, report_on, _, _) in pan_fixture["runs"].items():
        decoded, _ = decode_sequence(stream_on)
        for i, (got, want) in enumerate(zip(decoded, report_on.recon_frames)):
            if not (np.array_equal(got.y, want.y)
                    and np.array_equal(got.cb, want.cb)
                    and np.array_equal(got.cr, want.cr)):
                mismatches.append((qp, i))
    elapsed = pan_fixture["encode_seconds"] + (time.monotonic() - t0)
    ok = not mismatches and elapsed < 600
    verdict(3, "closed-loop bit identity", ok,
            f"qps {FIXTURE_QPS}, 64 frames each, mismatches {mismatches}, "
            f"{elapsed:.0f}s total")


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(42)
    worst = 0.0
    checked = 0
    for arch in [(3, 6, 1536), (3, 5, 7, 1536), (3, 12, 1536)]:
        params = init_params(arch, seed=int(rng.integers(1 << 30)))
        x = rng.uniform(0.0, 1.0, (3, 3))
        t = rng.uniform(0.0, 1.0, (3, 1536))
        grads = backward(params, x, t)
        h = 1e-4
        for li, (w, b) in enumerate(params):
            for arr, g in ((w, grads[li][0]), (b, grads[li][1])):
                flat, gflat = arr.reshape(-1), g.reshape(-1)
                for i in rng.choice(flat.size, min(9, flat.size), replace=False):
                    orig = flat[i]
                    flat[i] = orig + h
                    lp = loss(params, x, t)
                    flat[i] = orig - h
                    lm = loss(params, x, t)
                    flat[i] = orig
                    num = (lp - lm) / (2 * h)
                    denom = max(abs(num), abs(gflat[i]), 1e-8)
                    worst = max(worst, abs(num - gflat[i]) / denom)
                    checked += 1
    ok = checked >= 100 and worst <= 1e-3
    verdict(4, "gradient correctness", ok,
            f"{checked} probes, worst relative error {worst:.2e}")


def test_criterion_5_overfit_capability():
    frame = synth_sequence("pan", 320, 192, 1, velocity=(4, 0), seed=11)[0]
    ctx = SetContext(cols=10, rows=6, start_frame=0, span=1)
    coords = [BlockCoord(bx, by) for by in range(6) for bx in range(10)][:32]
    inputs = np.array([gnn_input(ctx, c, 0) for c in coords])
    targets = np.array([block_to_targets(extract_block(frame, c))
                        for c in coords])
    params = train(DEFAULT_ARCH, inputs, targets, TrainConfig(steps=5000))
    qparams = quantize_params(params)
    sse = 0.0
    for c in coords:
        gen = generate_block(qparams, c, 0, ctx)
        src = extract_block(frame, c)
        for a, b in ((gen.y, src.y), (gen.cb, src.cb), (gen.cr, src.cr)):
            d = a.astype(np.float64) - b.astype(np.float64)
            sse += float((d * d).sum())
    mse = sse / (len(coords) * 1536)
    psnr = 10 * np.log10(255.0**2 / mse)
    ok = psnr >= 30.0
    verdict(5, "overfit capability", ok,
            f"{len(coords)} blocks, 5000 steps, {psnr:.1f} dB")


def test_criterion_6_rd_never_worse(pan_fixture):
    costs = {}
    ok = True
    for qp, (_, report_on, _, report_off) in pan_fixture["runs"].items():
        costs[qp] = (report_on.rd_cost, report_off.rd_cost)
        ok = ok and report_on.rd_cost <= report_off.rd_cost
    detail = ", ".join(
        f"qp{qp}: J {on:.3e} <= {off:.3e}" for qp, (on, off) in costs.items())
    verdict(6, "rate-distortion never worse", ok, detail)


def test_criterion_7_round_trips():
    failures = []

    w = BitWriter()
    for v in range(65536):
        ue_encode(w, v)
    r = BitReader(w.to_bytes())
    if any(ue_decode(r) != v for v in range(65536)):
        failures.append("unsigned codes")

    w = BitWriter()
    for v in range(-32768, 32768):
        ue_encode(w, se_to_ue(v))
    r = BitReader(w.to_bytes())
    if any(ue_to_se(ue_decode(r)) != v for v in range(-32768, 32768)):
        failures.append("signed codes")

    rng = np.random.default_rng(7)
    tiles = rng.integers(-40, 41, (10_000, 64))
    tiles[rng.random((10_000, 64)) < 0.88] = 0
    tiles = tiles.astype(np.int32)
    if not np.array_equal(parse_tiles(tile_frame(tiles)[0], 10_000), tiles):
        failures.append("coefficient coding")

    for arch in [(3, 1536), (3, 7, 1536), (3, 30, 12, 1536), DEFAULT_ARCH]:
        layers = []
        for fan_in, fan_out in zip(arch[:-1], arch[1:]):
            layers.append(QuantizedLayer(
                rng.integers(-511, 512, (fan_out, fan_in)).astype(np.int16),
                rng.integers(-511, 512, fan_out).astype(np.int16),
                np.float32(abs(rng.normal()) + 0.01),
            ))
        q = QuantizedGnnParams(layers)
        w = BitWriter()
        write_param_set(w, q)
        back = parse_param_set(BitReader(w.to_bytes()))
        same = back.layer_sizes == arch and all(
            a.scale == b.scale
            and np.array_equal(a.weights, b.weights)
            and np.array_equal(a.biases, b.biases)
            for a, b in zip(q.layers, back.layers))
        if not same:
            failures.append(f"parameter set {arch}")

    cols, rows = 3, 2
    blocks = []
    for i in range(cols * rows):
        tiles24 = [np.zeros(64, dtype=np.int32) for _ in range(24)]
        tiles24[0][:4] = rng.integers(-20, 21, 4)
        if i % cols == 0:
            blocks.append((BlockMode.GEN, None, tiles24))
        elif i == 4:
            blocks.append((BlockMode.INTER, (2, -5), tiles24))
        else:
            blocks.append((BlockMode.INTRA_H, None, tiles24))
    fu = frame_unit("P", blocks, cols, [RegionSpec(0, 0, 0, 1, False)])
    w = BitWriter()
    write_frame(w, fu, cols, rows)
    back, _ = parse_frame(BitReader(w.to_bytes()), cols, rows)
    same = (back.frame_type == "P" and np.array_equal(back.modes, fu.modes)
            and np.array_equal(back.mvds, fu.mvds)
            and np.array_equal(back.blocks, fu.blocks))
    if not same:
        failures.append("frame unit")

    header = StreamHeader(96, 64, 1, 30, True, 16)
    q = quantize_params(init_params((3, 1536), seed=1))
    fu_small = frame_unit("I", [(BlockMode.INTRA_DC, None, np.zeros((24, 64)))] * 6,
                          cols=3)
    data = write_stream(header, [("param_set", q), ("frame", fu_small)])
    back_header, units = parse_stream(data)
    kinds = [k for k, _ in units]
    if back_header != header or kinds != ["param_set", "frame"]:
        failures.append("stream framing")
    try:
        _, units = parse_stream(data + b"\x00")
        list(units)
        failures.append("trailing bytes accepted")
    except Exception:
        pass

    verdict(7, "round trips", not failures, f"failures: {failures or 'none'}")


def test_criterion_8_transform_fidelity():
    rng = np.random.default_rng(8)
    tiles = rng.uniform(-255, 255, (10_000, 8, 8))
    err = float(np.max(np.abs(dct8_inverse(dct8_forward(tiles)) - tiles)))

    worst = 0
    for seed in range(50):
        r2 = np.random.default_rng(100 + seed)
        src_y = r2.integers(0, 256, (32, 32), dtype=np.uint8)
        basis_y = r2.integers(0, 256, (32, 32), dtype=np.uint8)
        from nbv.core import Block32
        src = Block32(src_y, r2.integers(0, 256, (16, 16), dtype=np.uint8),
                      r2.integers(0, 256, (16, 16), dtype=np.uint8))
        basis = Block32(basis_y, r2.integers(0, 256, (16, 16), dtype=np.uint8),
                        r2.integers(0, 256, (16, 16), dtype=np.uint8))
        rec = apply_block_residual(basis, encode_block_residual(src, basis, 0), 0)
        for a, b in ((rec.y, src.y), (rec.cb, src.cb), (rec.cr, src.cr)):
            worst = max(worst, int(np.max(np.abs(a.astype(int) - b.astype(int)))))
    ok = err <= 1e-9 and worst <= 2
    verdict(8, "transform fidelity", ok,
            f"inverse error {err:.2e} on 10000 tiles, "
            f"qp0 residual max deviation {worst}")
