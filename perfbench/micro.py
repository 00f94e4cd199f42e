"""Per-call microbenchmarks of single layers on fixed seeded inputs.

Each kernel is timed in batches long enough to dwarf the clock, and the
median over several batches is reported per call. Operation counts next to
the kernels are computed from the shapes, not measured, and are named so.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time

import numpy as np

from nbv import cli, entropy, gnn, prediction, residual
from nbv.bitstream import parse_param_set, write_param_set
from nbv.core import BlockCoord, SequenceConfig, extract_block
from nbv.tools import synth_sequence

BATCHES = 5
BATCH_SECONDS = 0.05


def per_call_s(fn, batches: int = BATCHES) -> float:
    """Median seconds per call over batches of about BATCH_SECONDS each."""
    t = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t, 1e-7)
    n = max(1, int(BATCH_SECONDS / once))
    samples = []
    for _ in range(batches):
        t = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t) / n)
    return statistics.median(samples)


def _ue_roundtrip(values):
    def run():
        w = entropy.BitWriter()
        for v in values:
            entropy.ue_encode(w, v)
        r = entropy.BitReader(w.to_bytes())
        for v in values:
            if entropy.ue_decode(r) != v:
                raise AssertionError("ue round trip mismatch")
    return run


def run_micro(seed: int, stream_path) -> dict[str, tuple[float, str]]:
    rng = np.random.default_rng(seed)
    out: dict[str, tuple[float, str]] = {}

    values = [int(v) for v in rng.geometric(0.2, size=2000) - 1]
    out["entropy.ue_roundtrip_ns"] = (
        per_call_s(_ue_roundtrip(values)) / len(values) * 1e9, "ns")

    frame, ref = synth_sequence("pan", 320, 192, 2, velocity=(4, 0), seed=seed)
    c = BlockCoord(4, 2)
    src = extract_block(frame, c)
    basis = prediction.intra_predict(frame, c, prediction.IntraMode.DC)
    tiles = residual.encode_block_residual(src, basis, 20)
    coeffs = rng.normal(0.0, 40.0, size=(24, 8, 8))
    out["residual.coeff_bits_us"] = (
        per_call_s(lambda: residual.block_tiles_bits(tiles)) * 1e6, "us")
    out["residual.dct_fwd_us"] = (
        per_call_s(lambda: residual.dct8_forward(coeffs)) * 1e6, "us")
    out["residual.dct_inv_us"] = (
        per_call_s(lambda: residual.dct8_inverse(coeffs)) * 1e6, "us")
    out["prediction.motion_search_us"] = (
        per_call_s(lambda: prediction.motion_search(src, ref, c, 8)) * 1e6, "us")
    out["prediction.intra_us"] = (per_call_s(
        lambda: prediction.intra_predict(frame, c, prediction.IntraMode.HORIZONTAL)
    ) * 1e6, "us")

    arch = SequenceConfig(32, 32, 1, 0).gnn_arch
    x = rng.random((1024, arch[0]))
    t = rng.random((1024, arch[-1]))
    steps = 3
    cfg = gnn.TrainConfig(steps=steps, seed=seed)
    out["gnn.train_step_ms"] = (
        per_call_s(lambda: gnn.train(arch, x, t, cfg)) / steps * 1e3, "ms")
    qparams = gnn.quantize_params(gnn.init_params(arch, seed))
    ctx = gnn.SetContext(10, 6, 0, 8)
    out["gnn.generate_us"] = (
        per_call_s(lambda: gnn.generate_block(qparams, c, 3, ctx)) * 1e6, "us")

    w = entropy.BitWriter()
    write_param_set(w, qparams)
    packed = w.to_bytes()
    out["bitstream.param_pack_ms"] = (
        per_call_s(lambda: write_param_set(entropy.BitWriter(), qparams)) * 1e3, "ms")
    out["bitstream.param_unpack_ms"] = (
        per_call_s(lambda: parse_param_set(entropy.BitReader(packed))) * 1e3, "ms")
    out["bitstream.param_count"] = (float(gnn.param_count(arch)), "count")

    def inspect():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["inspect", "--input", str(stream_path)]) != 0:
                raise AssertionError("nbv inspect failed")
    out["cli.inspect_ms"] = (per_call_s(inspect, batches=1) * 1e3, "ms")

    # Separable 8x8 DCT: two 8x8 by 8x8 products per tile, 24 tiles a block.
    out["residual.dct_madds_per_block_computed"] = (24.0 * 2 * 8 ** 3, "madd")
    macs = sum(i * o for i, o in zip(arch[:-1], arch[1:]))
    out["gnn.forward_flops_per_block_computed"] = (
        float(2 * macs + sum(arch[1:])), "flop")
    return out
