"""The process that runs one workload: set-up, timed operations, output checks.

Started by run.py with BLAS pinned to one thread. It imports `nbv` from the
checkout's `src/`, synthesizes the workload clip, and reports on stdout, as
one JSON line, the CLOCK_MONOTONIC instant set-up finished and the speed
scale of the machine just after it (probe.py). With --setup-only it stops
there. Otherwise it then runs whole encodes and decodes through the public
API for --seconds, each with a SpeedProbe running through it, checks every
output, and prints a second JSON line with the samples and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import statistics
import sys
import time
from pathlib import Path

from content import make_clip
from probe import SpeedProbe, speed_scale
from workloads import ALL_WORKLOADS

ROOT = Path.cwd()
OUT_DIR = Path(__file__).resolve().parent / "out"

DECODE_RATIO = 0.5  # decode time after each encode, as a share of that encode
MIN_DECODES = 5
MIN_TRACE_PAIRS = 3


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_codec() -> None:
    """Import nbv from the checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import nbv
    if Path(nbv.__file__).resolve().parent != (src / "nbv").resolve():
        raise ImportError(f"nbv imported from {nbv.__file__}, not from {src}")


def sha256_frames(frames) -> str:
    h = hashlib.sha256()
    for f in frames:
        for plane in (f.y, f.cb, f.cr):
            h.update(plane.tobytes())
    return h.hexdigest()


def frames_equal(a, b) -> bool:
    import numpy as np
    return len(a) == len(b) and all(
        (x.display_width, x.display_height) == (y.display_width, y.display_height)
        and np.array_equal(x.y, y.y) and np.array_equal(x.cb, y.cb)
        and np.array_equal(x.cr, y.cr)
        for x, y in zip(a, b)
    )


class Bench:
    """Runs and checks operations on one clip; failures are counted, not raised.

    Each op returns its wall time in seconds, or None when it failed. With
    `probing` set, a SpeedProbe runs through each timed call, and `last_norm`
    is that call's time normalized to the probe kernel's nominal speed.
    """

    def __init__(self, wl, frames, probing: bool = False):
        from nbv.core import SequenceConfig
        from nbv.gnn import TrainConfig
        self.wl = wl
        self.frames = frames
        self.config = SequenceConfig(
            wl.width, wl.height, wl.frames, wl.qp, gnn_interval=wl.interval,
            gnn_enabled=wl.gnn, search_range=wl.search_range,
        )
        self.train_cfg = TrainConfig(steps=wl.steps)
        self.attempted = 0
        self.failures: list[str] = []
        self.stream: bytes | None = None
        self.report = None
        self.param_sets = 0
        self.decoded_sha: str | None = None
        self.encode_cpu_s = 0.0  # process CPU time of the last encode call
        self.probing = probing
        self.last_norm: float | None = None

    def timed(self, call):
        """(call(), its wall time); sets last_norm when probing."""
        if not self.probing:
            t = monotonic()
            return call(), monotonic() - t
        with SpeedProbe() as probe:
            t = monotonic()
            value = call()
            probe.stop()
            wall = monotonic() - t
        self.last_norm = probe.normalize(wall)
        return value, wall

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def encode_op(self, encode=None) -> float | None:
        """One timed encode; the first success becomes the reference output."""
        import nbv.encoder
        from nbv.tools import bit_accounting
        encode = encode or nbv.encoder.encode_sequence
        self.attempted += 1
        cpu = time.process_time()
        try:
            (data, report), wall = self.timed(lambda: encode(
                self.frames, self.config, self.train_cfg,
                zoom_hint=self.wl.zoom_hint))
        except Exception as e:  # a broken encode is a failed operation
            return self.fail(f"encode raised {type(e).__name__}: {e}")
        self.encode_cpu_s = time.process_time() - cpu
        if report.total_bits != len(data) * 8:
            return self.fail("encode report total_bits != stream size")
        if len(report.recon_frames) != self.wl.frames:
            return self.fail("encode report has the wrong frame count")
        if self.stream is not None and data != self.stream:
            return self.fail("encode is not deterministic: stream differs")
        try:
            acct = bit_accounting(data)
        except Exception as e:
            return self.fail(f"bit_accounting raised {type(e).__name__}: {e}")
        if sum(acct.categories.values()) != len(data) * 8:
            return self.fail("bit accounting does not sum to the stream size")
        if self.stream is None:
            self.stream, self.report = data, report
            self.param_sets = sum(u.kind == "param_set" for u in acct.units)
        return wall

    def decode_op(self, data: bytes | None = None, decode=None) -> float | None:
        """One timed decode, checked bit for bit against the encoder's recon."""
        import nbv.decoder
        decode = decode or nbv.decoder.decode_sequence
        data = self.stream if data is None else data
        self.attempted += 1
        try:
            (out, _), wall = self.timed(lambda: decode(data))
        except Exception as e:
            return self.fail(f"decode raised {type(e).__name__}: {e}")
        if not frames_equal(out, self.report.recon_frames):
            return self.fail("decoded frames differ from the encoder's recon")
        sha = sha256_frames(out)
        if self.decoded_sha not in (None, sha):
            return self.fail("decode is not deterministic")
        self.decoded_sha = sha
        return wall

    def content_metrics(self) -> dict[str, float]:
        from nbv.tools import frame_psnr
        n = self.wl.frames
        psnr_y = [frame_psnr(s, r)[0]
                  for s, r in zip(self.frames, self.report.recon_frames)]
        return {
            "bits_per_frame": len(self.stream) * 8 / n,
            "psnr_y_db": sum(psnr_y) / n,
            "rd_cost_per_frame": self.report.rd_cost / n,
        }


class Sampler:
    """Wall and normalized times of the operations that succeeded."""

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        self.wall: dict[str, list[float]] = {"encode": [], "decode": []}
        self.norm: dict[str, list[float]] = {"encode": [], "decode": []}

    def run(self, kind: str, op) -> float | None:
        wall = op()
        if wall is not None:
            self.wall[kind].append(wall)
            self.norm[kind].append(self.bench.last_norm)
        return wall

    def last(self, kind: str) -> float:
        return self.wall[kind][-1] if self.wall[kind] else 0.0


def _decode_until(bench: Bench, s: Sampler, end: float, at_least: int) -> None:
    """Decodes while the next one is predicted to end by `end`."""
    n = 0
    while n < at_least or monotonic() + s.last("decode") <= end:
        s.run("decode", bench.decode_op)
        n += 1


def measure(bench: Bench, seconds: float) -> Sampler:
    """Alternates an encode with decodes for DECODE_RATIO of its time.

    Cycles repeat while a whole one still fits in `seconds` (at least one
    runs), then decodes fill the rest. Spreading both kinds of sample over
    the run lets each see the same mix of the machine's busy and quiet
    moments.
    """
    end = monotonic() + seconds
    s = Sampler(bench)
    while True:
        s.run("encode", bench.encode_op)
        if bench.stream is None:
            return s  # nothing to decode
        enc = s.last("encode")
        _decode_until(bench, s, monotonic() + DECODE_RATIO * enc, 1)
        if monotonic() + (1 + DECODE_RATIO) * enc > end:
            break
    _decode_until(bench, s, end, MIN_DECODES - len(s.wall["decode"]))
    return s


def bracketed(op) -> tuple[float, float] | None:
    """(wall, rescaled wall) of op, rescaled by the probe kernel run just
    before and just after it; None when op failed."""
    before = speed_scale(5)
    wall = op()
    if wall is None:
        return None
    return wall, wall * (before + speed_scale(5)) / 2


def measure_traced(bench: Bench, seconds: float, seed: int, prefix: Path):
    """Untraced and traced operations side by side, then per-layer metrics.

    The timer probe would land inside the spans, so here each operation is
    rescaled by the kernel runs around it instead.

    Returns the untraced encode and decode samples and the per-layer metrics
    ({} when an operation failed).
    """
    import nbv.decoder
    import nbv.encoder
    import nbv.tools
    from layers import ACCT, DEC, ENC, layer_metrics
    from micro import run_micro
    from tracer import Tracer, installed

    start = monotonic()
    tracer = Tracer()
    modules = (nbv.encoder, nbv.decoder)
    traced_encode = tracer.wrap(ENC, nbv.encoder.encode_sequence)
    traced_decode = tracer.wrap(DEC, nbv.decoder.decode_sequence)
    with installed(tracer, modules):
        traced_enc = bracketed(lambda: bench.encode_op(traced_encode))
    plain_enc = bracketed(bench.encode_op)  # last, so encode_cpu_s is untraced
    if plain_enc is None or traced_enc is None:
        return [], [], {}
    plain_dec: list[tuple[float, float]] = []
    traced_dec: list[tuple[float, float]] = []
    for n in itertools.count(1):
        plain_dec.append(bracketed(bench.decode_op))
        with installed(tracer, modules):
            traced_dec.append(bracketed(lambda: bench.decode_op(decode=traced_decode)))
        if None in plain_dec or None in traced_dec:
            return [plain_enc[0]], [], {}
        if (n >= MIN_TRACE_PAIRS and monotonic() - start
                + plain_dec[-1][0] + traced_dec[-1][0] > seconds):
            break
    tracer.wrap(ACCT, nbv.tools.bit_accounting)(bench.stream)

    (enc_root_ns,) = tracer.root_durations(ENC)
    enc_self_ns = sum(v[0] for (root, _), v in tracer.self_by_root().items()
                      if root == ENC)
    wall = traced_enc[0]
    if enc_self_ns != enc_root_ns or abs(enc_root_ns / 1e9 - wall) > 0.01 * wall:
        bench.fail("traced encode: span self times do not add up to its wall time")

    metrics = layer_metrics(tracer, len(traced_dec), bench.wl.frames, bench.encode_cpu_s,
                            bench.param_sets, bench.report.mode_histogram["gen"])
    plain = plain_enc[1] + statistics.median(d[1] for d in plain_dec)
    traced = traced_enc[1] + statistics.median(d[1] for d in traced_dec)
    metrics["trace_overhead_share"] = (traced / plain - 1.0, "share")
    stream_path = prefix.with_suffix(".nbv")
    stream_path.write_bytes(bench.stream)
    metrics.update(run_micro(seed, stream_path))
    tracer.write_jsonl(prefix.with_name(prefix.name + "-spans.jsonl"))
    return [plain_enc[0]], [d[0] for d in plain_dec], metrics


def git_commit() -> str:
    import subprocess
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import platform
    import numpy
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "nbv").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
        "src_sha256": h.hexdigest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(ALL_WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import_codec()
    wl = ALL_WORKLOADS[args.workload]
    frames = make_clip(wl, args.seed)
    ready = monotonic()
    print(json.dumps({"ready": ready, "speed_scale": speed_scale()}), flush=True)
    if args.setup_only:
        return 0

    import resource
    bench = Bench(wl, frames, probing=not args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    prefix = OUT_DIR / f"{wl.name}-seed{args.seed}"
    if args.trace:
        encode_s, decode_s, per_layer = measure_traced(
            bench, args.seconds, args.seed, prefix)
        norm = {"encode": [], "decode": []}
    else:
        sampler, per_layer = measure(bench, args.seconds), {}
        encode_s, decode_s = sampler.wall["encode"], sampler.wall["decode"]
        norm = sampler.norm
    result = {
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "failures": bench.failures,
        "encode_s": encode_s,
        "decode_s": decode_s,
        "encode_norm_s": norm["encode"],
        "decode_norm_s": norm["decode"],
        "frames": wl.frames,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stream_sha256": hashlib.sha256(bench.stream).hexdigest() if bench.stream else None,
        "decoded_sha256": bench.decoded_sha,
        "content": bench.content_metrics() if bench.stream else {},
        "gen_blocks": bench.report.mode_histogram["gen"] if bench.report else None,
        "per_layer": per_layer,
        "env": environment(args.seed),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
