"""Codec benchmark: whole encodes and decodes of seeded synthetic clips.

Run from the repository root:

    python3 perfbench/run.py --workload pan_qp20_gen --seed 1 --seconds 30 --trace 0

Each run starts the workload in a fresh worker process with BLAS pinned to
one thread, checks every output, prints every metric as `name: value unit`
plus the sample counts, hashes and environment, and ends with one JSON line
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, with times normalized to the speed
of a reference kernel run through each operation (probe.py), so that
other tenants of a shared machine move them less; --trace 1 traces the module
boundaries and reports its per-layer metrics. Full results land in
perfbench/out/. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import ALL_WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_SAMPLES = 3  # fresh processes timed from spawn to a synthesized clip
RUN_LIMIT_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


class RunError(Exception):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_worker(args: list[str], deadline: float) -> tuple[float, float, list[dict]]:
    """Start a worker; returns (seconds from spawn to ready, that time
    normalized to the probe kernel's nominal speed, its other JSON lines)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    spawned = monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **PINNED},
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit")
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    if not lines or "ready" not in lines[0]:
        raise RunError("worker printed no ready record")
    ready = lines[0]["ready"] - spawned
    return ready, ready * lines[0]["speed_scale"], lines[1:]


def tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it.

    Below twenty samples that percentile is under the median, so the max is
    given instead.
    """
    n = len(samples)
    if n < 20:
        return f"max {max(samples):.4f}"
    p = math.floor(100 * (n - 10) / n)
    return f"p{p} {statistics.quantiles(samples, n=100, method='inclusive')[p - 1]:.4f}"


def fps(res: dict, key: str) -> float:
    return res["frames"] / statistics.median(res[key])


def end_to_end(res: dict, setup_norm: list[float]) -> dict[str, float]:
    if not res["encode_s"] or not res["decode_s"]:
        raise RunError("no encode or decode succeeded")
    return {
        "encode_fps": fps(res, "encode_norm_s"),
        "decode_fps": fps(res, "decode_norm_s"),
        "setup_s": statistics.median(setup_norm),
        "peak_rss_mb": res["peak_rss_mb"],
        **res["content"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(ALL_WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    deadline = monotonic() + RUN_LIMIT_S
    try:
        if not (ROOT / "src" / "nbv" / "__init__.py").is_file():
            raise RunError(f"no codec source at {ROOT / 'src' / 'nbv'}; "
                           "run from the repository root")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        base = ["--workload", args.workload, "--seed", str(args.seed)]
        setup, setup_norm = [], []
        for _ in range(SETUP_SAMPLES - 1):
            ready, ready_norm, _ = run_worker([*base, "--setup-only"], deadline)
            setup.append(ready)
            setup_norm.append(ready_norm)
        ready, ready_norm, lines = run_worker(
            [*base, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline)
        setup.append(ready)
        setup_norm.append(ready_norm)
        if not lines:
            raise RunError("worker printed no result")
        res = lines[-1]
        if args.trace:
            wanted = spec["per_layer"]
            measured = res["per_layer"]
        else:
            wanted = spec["end_to_end"]
            measured = {k: (v, None) for k, v in end_to_end(res, setup_norm).items()}
        missing = [m["name"] for m in wanted if m["name"] not in measured]
        if missing:
            raise RunError(f"metrics not measured: {', '.join(missing)}")
    except (RunError, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    if args.trace:
        for name, (value, unit) in measured.items():
            if name not in metrics:
                print(f"{name}: {value} {unit}")
    if not args.trace:
        for key in ("encode", "decode"):
            print(f"{key}_fps_wall: {fps(res, key + '_s')} frames/s "
                  "(plain median wall time)")
        print(f"setup_s_wall: {statistics.median(setup)} s (plain median)")
    failed, attempted = res["failed"], res["attempted"]
    print(f"ops_failed_share: {failed / attempted} share ({failed} of {attempted})")
    for what, samples in (("encode_s", res["encode_s"]),
                          ("encode_norm_s", res["encode_norm_s"]),
                          ("decode_s", res["decode_s"]),
                          ("decode_norm_s", res["decode_norm_s"]),
                          ("setup_s", setup), ("setup_norm_s", setup_norm)):
        if samples:
            print(f"samples {what}: min {min(samples):.4f} median "
                  f"{statistics.median(samples):.4f} {tail(samples)} s "
                  f"(n={len(samples)})")
    for key in ("stream_sha256", "decoded_sha256", "gen_blocks"):
        print(f"{key}: {res[key]}")
    for failure in res["failures"]:
        print(f"failure: {failure}")
    print("env: " + json.dumps(res["env"], sort_keys=True))

    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**res, "setup_s": setup, "setup_norm_s": setup_norm,
                               "metrics": metrics}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
