"""Command-line front end: encode, decode, synth, metrics, inspect, sweep.

Thin sequential driver over the library. All flags are validated before any
input is read or output written, so a usage error never leaves partial
files. Exit codes: 0 success, 1 usage error, 2 I/O error, 3 malformed
stream.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .core import MAX_SEARCH_RANGE, SequenceConfig, read_yuv, write_yuv, yuv_frame_bytes
from .decoder import decode_sequence
from .encoder import ZOOM_HINTS, encode_sequence
from .entropy import StreamError
from .gnn import INPUT_SIZE, OUTPUT_SIZE, TrainConfig, check_architecture
from .tools import SYNTH_KINDS, bit_accounting, csv_text, frame_psnr, synth_sequence

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_STREAM = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; 2 means I/O here.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"{what} must be comma-separated integers, got {text!r}")


def _parse_arch(text: str) -> tuple[int, ...]:
    hidden = _parse_int_list(text, "--gnn-arch")
    arch = (INPUT_SIZE, *hidden, OUTPUT_SIZE)
    try:
        check_architecture(arch)
    except ValueError as e:
        raise UsageError(str(e))
    return arch


def _parse_velocity(text: str) -> tuple[int, int]:
    parts = _parse_int_list(text, "--velocity")
    if len(parts) != 2:
        raise UsageError(f"--velocity takes two integers, got {text!r}")
    return parts[0], parts[1]


def _read_input_frames(path, width, height, n_frames):
    try:
        return read_yuv(path, width, height, n_frames)
    except ValueError as e:
        # file content problems (short file) are I/O, not usage
        raise OSError(str(e)) from e


def _write_text(path, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as f:
            f.write(text)


def _summary_file(report_path):
    """Where a command's summary line goes: stderr when its CSV report
    takes stdout, so that stdout is the report alone."""
    return sys.stderr if report_path == "-" else sys.stdout


def _build_config(args, qp: int, gnn_enabled: bool) -> SequenceConfig:
    cfg = SequenceConfig(
        width=args.width, height=args.height, frame_count=args.frames,
        qp=qp, gnn_interval=args.gnn_interval,
        gnn_enabled=gnn_enabled, gnn_arch=_parse_arch(args.gnn_arch),
        search_range=args.search_range,
    )
    try:
        cfg.validate()
    except ValueError as e:
        raise UsageError(str(e))
    return cfg


def _train_config(args) -> TrainConfig:
    if args.gnn_steps < 0:
        raise UsageError("--gnn-steps must be nonnegative")
    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")
    return TrainConfig(steps=args.gnn_steps, seed=args.seed)


def cmd_encode(args) -> int:
    config = _build_config(args, args.qp, args.gnn == "on")
    train_cfg = _train_config(args)
    frames = _read_input_frames(args.input, args.width, args.height, args.frames)
    data, report = encode_sequence(frames, config, train_cfg, args.zoom_hint)
    with open(args.output, "wb") as f:
        f.write(data)
    if args.report:
        _write_text(args.report, report.to_csv())
    mean_y = sum(r.psnr_y for r in report.rows) / len(report.rows)
    print(f"encoded {config.frame_count} frames to {len(data)} bytes "
          f"({report.total_bits} bits), mean luma psnr {mean_y:.2f} dB, "
          f"{report.mode_histogram['gen']} generated blocks",
          file=_summary_file(args.report))
    return EXIT_OK


def cmd_decode(args) -> int:
    with open(args.input, "rb") as f:
        data = f.read()
    frames, report = decode_sequence(data)
    write_yuv(args.output, frames)
    if args.report:
        _write_text(args.report, report.to_csv())
    print(f"decoded {len(frames)} frames "
          f"({sum(r.n_gen for r in report.rows)} generated blocks, "
          f"{report.n_param_sets} parameter sets)", file=_summary_file(args.report))
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")
    try:
        frames = synth_sequence(args.kind, args.width, args.height, args.frames,
                                _parse_velocity(args.velocity), args.seed)
    except ValueError as e:
        raise UsageError(str(e))
    n = write_yuv(args.output, frames)
    print(f"wrote {len(frames)} {args.kind} frames, {n} bytes")
    return EXIT_OK


def cmd_metrics(args) -> int:
    if args.width < 1 or args.height < 1:
        raise UsageError("width and height must be positive")
    if args.frames is not None and args.frames < 1:
        raise UsageError("--frames must be positive")
    fbytes = yuv_frame_bytes(args.width, args.height)
    if args.frames is None:
        n_frames = os.path.getsize(args.ref) // fbytes
        if n_frames < 1:
            raise OSError(f"{args.ref} holds no complete frame")
    else:
        n_frames = args.frames
    ref = _read_input_frames(args.ref, args.width, args.height, n_frames)
    test = _read_input_frames(args.test, args.width, args.height, n_frames)
    rows = [(i, *frame_psnr(a, b)) for i, (a, b) in enumerate(zip(ref, test))]
    _write_text(args.output, csv_text(rows, ("frame", "psnr_y", "psnr_cb", "psnr_cr")))
    return EXIT_OK


def cmd_inspect(args) -> int:
    with open(args.input, "rb") as f:
        data = f.read()
    acct = bit_accounting(data)
    if args.json:
        print(json.dumps(dataclasses.asdict(acct)))
        return EXIT_OK
    h = acct.header
    print(f"container: {h.width}x{h.height}, {h.frame_count} frames, "
          f"qp {h.qp}, gnn {'on' if h.gnn_enabled else 'off'}, "
          f"interval {h.gnn_interval}")
    for u in acct.units:
        print(f"unit {u.index}: {u.kind}, {u.bits} bits, {u.detail}")
    print("category,bits,ratio")
    for cat, bits in acct.categories.items():
        print(f"{cat},{bits},{bits / acct.total_bits:.6f}")
    print(f"total,{acct.total_bits},1.000000")
    return EXIT_OK


def cmd_sweep(args) -> int:
    qps = _parse_int_list(args.qps, "--qps")
    if not qps:
        raise UsageError("--qps needs at least one value")
    configs = [_build_config(args, qp, gnn_on)
               for qp in qps for gnn_on in (True, False)]
    train_cfg = _train_config(args)
    frames = _read_input_frames(args.input, args.width, args.height, args.frames)
    rows = []
    for cfg in configs:
        data, report = encode_sequence(frames, cfg, train_cfg, args.zoom_hint)
        mean_y = sum(r.psnr_y for r in report.rows) / len(report.rows)
        rows.append((cfg.qp, "on" if cfg.gnn_enabled else "off", len(data) * 8, mean_y))
    _write_text(args.output, csv_text(rows, ("qp", "mode", "total_bits", "mean_psnr_y")))
    return EXIT_OK


def _add_gnn_flags(p):
    p.add_argument("--gnn-interval", type=int, default=16,
                   help="keyframe period in frames (default 16)")
    p.add_argument("--gnn-arch", default="25,40,60", metavar="H1,H2,...",
                   help="hidden layer sizes (default 25,40,60)")
    p.add_argument("--gnn-steps", type=int, default=5000,
                   help="training steps per parameter set (default 5000)")
    p.add_argument("--seed", type=int, default=0,
                   help="training seed (default 0)")
    p.add_argument("--search-range", type=int, default=8,
                   help=f"motion search range in pels, 0 to {MAX_SEARCH_RANGE} "
                        "(default 8)")
    p.add_argument("--zoom-hint", choices=ZOOM_HINTS, default="none",
                   help="declare a zoom: in and out both place four margin "
                        "regions, full-height left and right columns and "
                        "top and bottom bands between them")


def build_parser() -> _Parser:
    parser = _Parser(prog="nbv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("encode", help="encode raw I420 video to a stream")
    p.add_argument("--input", required=True, help="raw planar I420 file")
    p.add_argument("--output", required=True, help="stream file to write")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--qp", type=int, required=True, help="quantizer, 0..51")
    p.add_argument("--gnn", choices=("on", "off"), default="on",
                   help="enable the block generator (default on)")
    _add_gnn_flags(p)
    p.add_argument("--report", help="per-frame CSV report path ('-' = stdout, "
                   "and the summary line to stderr)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a stream back to raw I420")
    p.add_argument("--input", required=True, help="stream file")
    p.add_argument("--output", required=True, help="raw I420 file to write")
    p.add_argument("--report", help="per-frame CSV report path ('-' = stdout, "
                   "and the summary line to stderr)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("synth", help="render a procedural test sequence")
    p.add_argument("--kind", choices=SYNTH_KINDS, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--velocity", default="4,0", metavar="VX,VY",
                   help="pels per frame (pan) or window growth (zoom)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, help="raw I420 file to write")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("metrics", help="per-frame PSNR between two I420 files")
    p.add_argument("--ref", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--frames", type=int,
                   help="frame count (default: from ref file size)")
    p.add_argument("--output", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("inspect", help="dump stream structure and bit accounting; "
                       "rejects (exit 3) every stream decode rejects")
    p.add_argument("--input", required=True, help="stream file")
    p.add_argument("--json", action="store_true",
                   help="print the bit accounting as one JSON object")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("sweep", help="rate-distortion sweep over qp values")
    p.add_argument("--input", required=True, help="raw planar I420 file")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--qps", required=True, metavar="Q1,Q2,...",
                   help="qp values to encode at")
    _add_gnn_flags(p)
    p.add_argument("--output", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as e:
        print(f"nbv {args.command}: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except StreamError as e:
        print(f"nbv {args.command}: malformed stream: {e}", file=sys.stderr)
        return EXIT_STREAM
    except OSError as e:
        print(f"nbv {args.command}: i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
