"""Self-test of the benchmark harness on the seconds-long smoke workload.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that run.py prints every metric of BENCHMARK.json, and
ops_failed_share, as `name: value unit` in both modes and ends with the
result line; that both runs of one seed produce the same stream; and that
a stream with one flipped byte is counted as a failed operation instead of
aborting the run.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
METRIC_LINE = re.compile(r"^([\w.]+): (\S+) (\S+)")


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def run(trace: int) -> tuple[dict[str, str], dict, str]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke",
         "--seed", "1", "--seconds", "2", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    ).stdout
    units: dict[str, str] = {}
    for line in out.splitlines():
        m = METRIC_LINE.match(line)
        if m:
            units.setdefault(m.group(1), m.group(3))
    return units, json.loads(out.splitlines()[-1]), out


def test_metrics_printed_with_units() -> None:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    hashes = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        units, result, out = run(trace)
        for m in spec[key] + [{"name": "ops_failed_share", "unit": "share"}]:
            check(units.get(m["name"]) == m["unit"],
                  f"--trace {trace}: {m['name']} not printed with unit {m['unit']}")
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              f"--trace {trace}: result line has keys {sorted(result)}")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
              f"--trace {trace}: run not correct: {result}")
        check(list(result["metrics"]) == [m["name"] for m in spec[key]],
              f"--trace {trace}: result metrics differ from BENCHMARK.json")
        hashes.append(re.search(r"^stream_sha256: (\w+)$", out, re.M).group(1))
    check(hashes[0] == hashes[1], "one seed gave two different streams")


def test_flipped_byte_is_a_failed_operation() -> None:
    sys.path.insert(0, str(HERE))
    from content import make_clip
    from worker import Bench, import_codec
    from workloads import SMOKE
    import_codec()
    bench = Bench(SMOKE, make_clip(SMOKE, 1))
    check(bench.encode_op() is not None, "smoke encode failed")
    check(bench.decode_op() is not None, "smoke decode failed")
    bad = bytearray(bench.stream)
    bad[len(bad) // 2] ^= 0xFF
    check(bench.decode_op(bytes(bad)) is None, "flipped byte was not caught")
    check(bench.attempted == 3 and len(bench.failures) == 1,
          f"flipped byte not counted: {bench.attempted} attempted, "
          f"{len(bench.failures)} failed")


if __name__ == "__main__":
    test_metrics_printed_with_units()
    test_flipped_byte_is_a_failed_operation()
    print("selftest passed")
