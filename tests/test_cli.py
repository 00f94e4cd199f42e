"""Command-line driver: full pipeline plus exit-code discipline."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from conftest import frame_unit, write_stream
from nbv import decoder, encoder
from nbv.bitstream import BlockMode, StreamHeader
from nbv.cli import EXIT_IO, EXIT_OK, EXIT_STREAM, EXIT_USAGE, main
from nbv.tools import bit_accounting

FRAME_BYTES = 96 * 64 + 2 * 48 * 32  # one 96x64 I420 frame


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared pipeline artifacts: synth -> encode -> decode."""
    d = tmp_path_factory.mktemp("cli")
    src = d / "in.yuv"
    stream = d / "out.nbv"
    dec = d / "dec.yuv"
    assert main([
        "synth", "--kind", "pan", "--width", "96", "--height", "64",
        "--frames", "8", "--velocity", "4,0", "--seed", "7",
        "--output", str(src),
    ]) == EXIT_OK
    assert main([
        "encode", "--input", str(src), "--output", str(stream),
        "--width", "96", "--height", "64", "--frames", "8", "--qp", "20",
        "--gnn-interval", "4", "--gnn-arch", "16", "--gnn-steps", "60",
        "--report", str(d / "enc.csv"),
    ]) == EXIT_OK
    assert main([
        "decode", "--input", str(stream), "--output", str(dec),
        "--report", str(d / "dec.csv"),
    ]) == EXIT_OK
    return d


class TestPipeline:
    def test_synth_writes_expected_bytes(self, workdir):
        assert (workdir / "in.yuv").stat().st_size == 8 * FRAME_BYTES

    def test_stream_is_tagged_container(self, workdir):
        raw = (workdir / "out.nbv").read_bytes()
        assert raw[:4] == b"NBV2"

    def test_decode_restores_frame_geometry(self, workdir):
        assert (workdir / "dec.yuv").stat().st_size == 8 * FRAME_BYTES

    def test_reports_have_one_row_per_frame(self, workdir):
        enc = (workdir / "enc.csv").read_text().strip().split("\n")
        dec = (workdir / "dec.csv").read_text().strip().split("\n")
        assert len(enc) == 9 and enc[0].startswith("frame,type,psnr_y")
        assert len(dec) == 9
        assert dec[0] == "frame,n_intra,n_inter,n_gen"

    @pytest.mark.parametrize("command", ["encode", "decode"])
    def test_report_to_stdout_is_the_csv_alone(self, workdir, tmp_path, capsys,
                                               command):
        if command == "encode":
            args = ["encode", "--input", str(workdir / "in.yuv"),
                    "--output", str(tmp_path / "two.nbv"), "--width", "96",
                    "--height", "64", "--frames", "2", "--qp", "20",
                    "--gnn-interval", "2", "--gnn-arch", "4", "--gnn-steps", "10"]
            columns, n_frames = encoder.CSV_COLUMNS, 2
        else:
            args = ["decode", "--input", str(workdir / "out.nbv"),
                    "--output", str(tmp_path / "dec.yuv")]
            columns, n_frames = decoder.CSV_COLUMNS, 8
        capsys.readouterr()
        assert main(args + ["--report", "-"]) == EXIT_OK
        out, err = capsys.readouterr()
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(columns)
        assert len(rows) == 1 + n_frames
        assert all(len(row) == len(columns) for row in rows)
        assert err.startswith(f"{command}d {n_frames} frames")

    def test_metrics_between_source_and_decode(self, workdir, capsys):
        assert main([
            "metrics", "--ref", str(workdir / "in.yuv"),
            "--test", str(workdir / "dec.yuv"),
            "--width", "96", "--height", "64",
        ]) == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "frame,psnr_y,psnr_cb,psnr_cr"
        assert len(lines) == 9  # frame count inferred from the file size
        psnr_y = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(20.0 < p <= 99.0 for p in psnr_y)

    def test_metrics_of_identical_files_hits_cap(self, workdir, capsys):
        assert main([
            "metrics", "--ref", str(workdir / "dec.yuv"),
            "--test", str(workdir / "dec.yuv"),
            "--width", "96", "--height", "64", "--frames", "3",
        ]) == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4
        assert all(l.endswith("99.0000,99.0000,99.0000") for l in lines[1:])

    def test_inspect_accounts_for_every_bit(self, workdir, capsys):
        stream = workdir / "out.nbv"
        assert main(["inspect", "--input", str(stream)]) == EXIT_OK
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0].startswith("container: 96x64, 8 frames, qp 20, gnn on")
        unit_lines = [l for l in out if l.startswith("unit ")]
        assert sum(l.split(", ")[0].endswith("frame") or
                   "frame" in l for l in unit_lines) >= 8
        table = out[out.index("category,bits,ratio") + 1:]
        cats = dict(l.split(",")[:2] for l in table[:-1])
        total_line = table[-1].split(",")
        assert total_line[0] == "total"
        assert int(total_line[1]) == 8 * stream.stat().st_size
        assert sum(int(v) for v in cats.values()) == int(total_line[1])

    def test_inspect_json_is_the_bit_accounting(self, workdir, capsys):
        stream = workdir / "out.nbv"
        assert main(["inspect", "--input", str(stream), "--json"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("\n") == 1  # one object on one line
        doc = json.loads(out)
        assert sum(doc["categories"].values()) == doc["total_bits"]
        assert doc["total_bits"] == 8 * stream.stat().st_size
        assert doc == dataclasses.asdict(bit_accounting(stream.read_bytes()))
        assert doc["header"]["width"] == 96 and doc["header"]["gnn_enabled"] is True
        assert [u["kind"] for u in doc["units"]].count("frame") == 8

    def test_sweep_emits_on_and_off_rows_per_qp(self, workdir, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--input", str(workdir / "in.yuv"),
            "--width", "96", "--height", "64", "--frames", "4",
            "--qps", "20,32", "--gnn-interval", "4", "--gnn-arch", "8",
            "--gnn-steps", "40", "--output", str(out),
        ]) == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "qp,mode,total_bits,mean_psnr_y"
        assert len(lines) == 1 + 4
        rows = [l.split(",") for l in lines[1:]]
        assert [(r[0], r[1]) for r in rows] == [
            ("20", "on"), ("20", "off"), ("32", "on"), ("32", "off")]
        # coarser quantization costs bits and quality in the expected direction
        assert int(rows[0][2]) > int(rows[2][2])
        assert float(rows[0][3]) > float(rows[2][3])

    def test_decoded_output_matches_library_decode(self, workdir):
        from nbv.decoder import decode_sequence
        raw = (workdir / "out.nbv").read_bytes()
        frames, _ = decode_sequence(raw)
        got = (workdir / "dec.yuv").read_bytes()
        want = bytearray()
        for fr in frames:
            want += fr.y[:64, :96].tobytes()
            want += fr.cb[:32, :48].tobytes()
            want += fr.cr[:32, :48].tobytes()
        assert got == bytes(want)


class TestExitCodes:
    def test_out_of_range_qp_is_usage_error_with_no_output(self, workdir, tmp_path):
        # qp and the other header limits: the generator's interval cap and
        # the luma-sample cap, one sample row above 8192x4352
        out = tmp_path / "never.nbv"
        for flags in (["--qp", "60"], ["--gnn-interval", "0"],
                      ["--gnn-interval", "121"], ["--width", "8192", "--height", "4353"]):
            code = main([
                "encode", "--input", str(workdir / "in.yuv"), "--output", str(out),
                "--width", "96", "--height", "64", "--frames", "8", "--qp", "20",
                "--gnn", "on", *flags,
            ])
            assert code == EXIT_USAGE, flags
            assert not out.exists()

    def test_bad_architecture_is_usage_error_with_no_output(self, workdir, tmp_path):
        out = tmp_path / "never.nbv"
        code = main([
            "encode", "--input", str(workdir / "in.yuv"), "--output", str(out),
            "--width", "96", "--height", "64", "--frames", "8", "--qp", "20",
            "--gnn-arch", "5000",
        ])
        assert code == EXIT_USAGE and not out.exists()

    @pytest.mark.parametrize("search_range", ["65", "1000000", "-1"])
    def test_search_range_beyond_the_bound_is_usage_error(
            self, workdir, tmp_path, monkeypatch, search_range):
        def no_search(*args):
            raise AssertionError("a search ran at an invalid range")

        monkeypatch.setattr("nbv.encoder.motion_field", no_search)
        out = tmp_path / "never.nbv"
        code = main([
            "encode", "--input", str(workdir / "in.yuv"), "--output", str(out),
            "--width", "96", "--height", "64", "--frames", "8", "--qp", "20",
            "--gnn", "off", "--search-range", search_range,
        ])
        assert code == EXIT_USAGE and not out.exists()

    def test_negative_steps_rejected(self, workdir, tmp_path):
        code = main([
            "encode", "--input", str(workdir / "in.yuv"),
            "--output", str(tmp_path / "never.nbv"),
            "--width", "96", "--height", "64", "--frames", "8", "--qp", "20",
            "--gnn-steps", "-5",
        ])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["encode", "sweep"])
    def test_negative_seed_is_usage_error_with_no_output(
            self, workdir, tmp_path, capsys, monkeypatch, command):
        def no_read(*args):
            raise AssertionError("input read before the flags were checked")

        monkeypatch.setattr("nbv.cli.read_yuv", no_read)
        out = tmp_path / "never"
        flags = (["--qp", "20"] if command == "encode" else ["--qps", "20"])
        code = main([
            command, "--input", str(workdir / "in.yuv"), "--output", str(out),
            "--width", "96", "--height", "64", "--frames", "4", *flags,
            "--gnn-interval", "4", "--gnn-arch", "8", "--gnn-steps", "2",
            "--seed", "-1",
        ])
        assert code == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_negative_seed_is_usage_error_with_no_output(
            self, tmp_path, capsys, monkeypatch):
        def no_synth(*args):
            raise AssertionError("synthesis ran before the flags were checked")

        monkeypatch.setattr("nbv.cli.synth_sequence", no_synth)
        out = tmp_path / "never.yuv"
        code = main(["synth", "--kind", "pan", "--width", "64", "--height", "32",
                     "--frames", "2", "--seed", "-1", "--output", str(out)])
        assert code == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_is_io_error(self, tmp_path):
        code = main([
            "encode", "--input", str(tmp_path / "absent.yuv"),
            "--output", str(tmp_path / "never.nbv"),
            "--width", "96", "--height", "64", "--frames", "8", "--qp", "20",
            "--gnn-steps", "10",
        ])
        assert code == EXIT_IO
        assert not (tmp_path / "never.nbv").exists()

    def test_short_input_file_is_io_error(self, tmp_path):
        short = tmp_path / "short.yuv"
        short.write_bytes(bytes(FRAME_BYTES // 2))
        code = main([
            "encode", "--input", str(short),
            "--output", str(tmp_path / "never.nbv"),
            "--width", "96", "--height", "64", "--frames", "8", "--qp", "20",
            "--gnn-steps", "10",
        ])
        assert code == EXIT_IO
        assert not (tmp_path / "never.nbv").exists()

    def test_corrupt_stream_is_stream_error(self, tmp_path):
        bad = tmp_path / "bad.nbv"
        bad.write_bytes(b"NBV2" + bytes(40))
        code = main(["decode", "--input", str(bad),
                     "--output", str(tmp_path / "never.yuv")])
        assert code == EXIT_STREAM

    @pytest.mark.parametrize("command", ["decode", "inspect"])
    def test_version_1_stream_is_stream_error(self, workdir, tmp_path, capsys,
                                              command):
        old = tmp_path / "v1.nbv"
        old.write_bytes(b"NBV1" + (workdir / "out.nbv").read_bytes()[4:])
        args = [command, "--input", str(old)]
        if command == "decode":
            args += ["--output", str(tmp_path / "never.yuv")]
        assert main(args) == EXIT_STREAM
        assert "unsupported stream version NBV1" in capsys.readouterr().err
        assert not (tmp_path / "never.yuv").exists()

    def test_p_first_frame_is_stream_error_to_decode_and_inspect(self, tmp_path, capsys):
        # every block syntax is legal; only the unit order is not
        unit = frame_unit("P", [(BlockMode.INTER, (0, 0), np.zeros((24, 64)))])
        bad = tmp_path / "p_first.nbv"
        bad.write_bytes(write_stream(StreamHeader(32, 32, 1, 20, False, 16),
                                     [("frame", unit)]))
        for args in (["decode", "--output", str(tmp_path / "never.yuv")], ["inspect"]):
            assert main(args + ["--input", str(bad)]) == EXIT_STREAM
            assert ("frame 0 is predicted but has no reference"
                    in capsys.readouterr().err)
        assert not (tmp_path / "never.yuv").exists()

    def test_truncated_stream_is_stream_error(self, workdir, tmp_path):
        raw = (workdir / "out.nbv").read_bytes()
        bad = tmp_path / "cut.nbv"
        bad.write_bytes(raw[:-5])
        code = main(["decode", "--input", str(bad),
                     "--output", str(tmp_path / "never.yuv")])
        assert code == EXIT_STREAM

    def test_unknown_command_is_usage_error(self):
        assert main(["transcode"]) == EXIT_USAGE

    def test_no_command_prints_usage(self):
        assert main([]) == EXIT_USAGE

    def test_bad_velocity_is_usage_error(self, tmp_path):
        code = main([
            "synth", "--kind", "pan", "--width", "64", "--height", "32",
            "--frames", "2", "--velocity", "4", "--output",
            str(tmp_path / "x.yuv"),
        ])
        assert code == EXIT_USAGE

    def test_pan_off_canvas_is_usage_error(self, tmp_path):
        code = main([
            "synth", "--kind", "pan", "--width", "96", "--height", "64",
            "--frames", "99", "--velocity", "16,0",
            "--output", str(tmp_path / "x.yuv"),
        ])
        assert code == EXIT_USAGE

    def test_empty_qps_rejected(self, workdir, tmp_path):
        code = main([
            "sweep", "--input", str(workdir / "in.yuv"),
            "--width", "96", "--height", "64", "--frames", "4",
            "--qps", ",", "--output", str(tmp_path / "s.csv"),
        ])
        assert code == EXIT_USAGE and not (tmp_path / "s.csv").exists()

    def test_metrics_on_empty_ref_is_io_error(self, tmp_path):
        empty = tmp_path / "empty.yuv"
        empty.write_bytes(b"")
        other = tmp_path / "other.yuv"
        other.write_bytes(bytes(FRAME_BYTES))
        code = main(["metrics", "--ref", str(empty), "--test", str(other),
                     "--width", "96", "--height", "64"])
        assert code == EXIT_IO

    @pytest.mark.parametrize("frames", ["0", "-3"])
    def test_metrics_nonpositive_frames_is_usage_error(self, tmp_path, frames):
        # checked before any file is read, so missing files do not matter
        missing = str(tmp_path / "missing.yuv")
        code = main(["metrics", "--ref", missing, "--test", missing,
                     "--width", "96", "--height", "64", "--frames", frames])
        assert code == EXIT_USAGE

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "encode" in capsys.readouterr().out
