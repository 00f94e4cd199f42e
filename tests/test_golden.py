"""Pinned output: sha256 of the stream, the decoded planes and the reports.

Each case is a small, fast encode. A change that moves a stream or plane
hash changes the codec's output; one that moves a report hash changes
what the encoder, the decoder or the bit accounting report about it.
Either must update the hash on purpose and say why in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nbv
from conftest import fast_train, forced_stream
from nbv.bitstream import RegionSpec
from nbv.core import SequenceConfig
from nbv.decoder import decode_sequence
from nbv.encoder import encode_sequence, train_param_set
from nbv.gnn import SetContext
from nbv.tools import bit_accounting, synth_sequence

TINY_ARCH = (3, 4, 1536)


def planes_sha256(frames) -> str:
    h = hashlib.sha256()
    for f in frames:
        for plane in (f.y, f.cb, f.cr):
            h.update(plane.tobytes())
    return h.hexdigest()


def pan_clip():
    return synth_sequence("pan", 96, 64, 8, velocity=(4, 0), seed=7)


# name -> (frames factory, config, training steps, zoom hint)
CASES = {
    # lambda * parameter-set bits far exceeds each period's fallback J
    "pan_qp20_default_arch": (pan_clip, SequenceConfig(
        width=96, height=64, frame_count=8, qp=20, gnn_interval=4), 20, "none"),
    # a 77 kbit parameter set at qp 8: the bound leaves room, so training runs
    "pan_qp8_tiny_arch": (pan_clip, SequenceConfig(
        width=96, height=64, frame_count=8, qp=8, gnn_interval=8,
        gnn_arch=TINY_ARCH), 20, "none"),
    "zoom_out_qp8_tiny_arch": (
        lambda: synth_sequence("zoom_out", 96, 64, 6, velocity=(2, 0), seed=5),
        SequenceConfig(width=96, height=64, frame_count=6, qp=8,
                       gnn_interval=3, gnn_arch=TINY_ARCH), 20, "out"),
    "pan_qp20_generator_off": (pan_clip, SequenceConfig(
        width=96, height=64, frame_count=8, qp=20, gnn_interval=4,
        gnn_enabled=False), 20, "none"),
}

# name -> (stream sha256, decoded planes sha256)
GOLDEN = {
    "pan_qp20_default_arch": (
        "f8daf12173b0e4e6554591c16d6440010edfc38fb412ce3b6bd215764c0fbd95",
        "51cdb2247e526f38306204fae98f1bb6632462f64a21873bca56ff152dd257e7"),
    "pan_qp8_tiny_arch": (
        "1ac13658821f18433f720734ad375867b27b3bb89903c422bc1cd596e6301c43",
        "2207aa604303956eb222543fcc65dfbc1b00c4f5827a66254e1845b893103f7a"),
    "zoom_out_qp8_tiny_arch": (
        "9894808a2f0b10bba441914cd74065aa055e6db447f659d785c5a83f2e780789",
        "adf97db73e3035dea00524f7213a0e99c724faae2fb9185f5ffa277b0c192ace"),
    "pan_qp20_generator_off": (
        "be7f8387169e436cb87c2bbf0ef48a9ec811e05c3ed2511186154ca349da24d0",
        "51cdb2247e526f38306204fae98f1bb6632462f64a21873bca56ff152dd257e7"),
    "forced_regions": (
        "67bedfbdd480a8bdb4678d037492bd2d25f7ffd3ae067079923cb94c1133aab2",
        "bc83f90e5de4e33ce9f33f80c36ee4c9c18e42021dfbc321d8326c83d3af805a"),
}


# name -> sha256 of (encoder CSV, decoder CSV, bit accounting); the forced
# stream has no encoder report
REPORT_GOLDEN = {
    "pan_qp20_default_arch": (
        "b33236ce082ce67aef98036f88ade0a5c48fbb611bd6f80fcac307e1bf15855d",
        "b5335d2edd7796d9df4286d9b1336a07a59a6bed1696abfa66899912531b94fc",
        "9c3240f3d8b55d0421e111c5dd725c9c9ac999cb591a66d4d212513239666972"),
    "pan_qp20_generator_off": (
        "b33236ce082ce67aef98036f88ade0a5c48fbb611bd6f80fcac307e1bf15855d",
        "b5335d2edd7796d9df4286d9b1336a07a59a6bed1696abfa66899912531b94fc",
        "9c3240f3d8b55d0421e111c5dd725c9c9ac999cb591a66d4d212513239666972"),
    "pan_qp8_tiny_arch": (
        "fd57c593171ea1bcf314ebe37f670e61438e73f5a32b275531896252f123e65b",
        "78ae573f4dad0c60a0cd389dfa9c3fa1912b3197b502044403d51b1635c12024",
        "c78c3ef734a0dc24e873ce49890055fdcd18d7221e3361baa5139cb15cfc07c8"),
    "zoom_out_qp8_tiny_arch": (
        "cb5039dbbd1800a4e251089cca94bc0bc88f894f78d59c97e8b7a1e5e43a222f",
        "43c86fd73ef8149ae9af6267b25531f47e38cd9a62fcf6b6df303376e0b6d92b",
        "54b664bec87779c050a7039087ae05156779db7b35bc697a50c578b5ed4c0f72"),
    "forced_regions": (
        None,
        "0bab8d52960c1c199cdd2c0b2c43af7713f70f6aea0381da4e1745200cce1add",
        "e75ddbf67dfcd857d2c1c9fa78a3e55eb062c7c67c804ee10392d7f19eab3af7"),
}


# name -> each period's (outcome, train_samples, frames_coded_with). No
# period in CASES keeps its network, so their hashes do not show the
# trained weights (only the forced stream's do); what a network pass
# trained on and the frame it aborts at are pinned here instead.
PERIOD_GOLDEN = {
    "pan_qp20_default_arch": [("bound", 0, 0), ("bound", 0, 0)],
    "pan_qp8_tiny_arch": [("aborted", 16, 4)],
    "zoom_out_qp8_tiny_arch": [("aborted", 18, 1), ("aborted", 18, 1)],
    "pan_qp20_generator_off": [("off", 0, 0), ("off", 0, 0)],
}

# sha256 of the quantized levels and scales of the default 3-25-40-60-1536
# network trained 30 steps on the pan clip's right block column. No period
# in CASES keeps a network, so only this pin and the forced stream's show
# whether training gives the same weights on every machine.
TRAINED_GOLDEN = "51aad02b2227baf754064b98686e06aa5420bd73f5ebb45b32aa1b6b4cb39d80"


def trained_params_sha256() -> str:
    frames = pan_clip()
    regions = [[RegionSpec(2, 0, 2, 1, True)] for _ in frames]
    ctx = SetContext(cols=3, rows=2, start_frame=0, span=len(frames))
    qparams, n = train_param_set(frames, 0, regions, ctx, (3, 25, 40, 60, 1536),
                                 fast_train(30))
    assert n == 2 * len(frames)
    h = hashlib.sha256()
    for layer in qparams.layers:
        for part in (layer.weights, layer.biases, np.float32(layer.scale)):
            h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def test_trained_parameter_set_matches_golden():
    assert trained_params_sha256() == TRAINED_GOLDEN


def accounting_text(acct) -> str:
    """Categories, then one line per unit: index, kind, bits, detail."""
    lines = [f"{cat},{bits}" for cat, bits in acct.categories.items()]
    lines += [f"{u.index},{u.kind},{u.bits},{u.detail}" for u in acct.units]
    return "\n".join(lines) + "\n"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def encode_case(name: str):
    """(stream, EncodeReport) for one of CASES."""
    make_frames, config, steps, hint = CASES[name]
    return encode_sequence(make_frames(), config, train_cfg=fast_train(steps),
                           zoom_hint=hint)


@pytest.mark.parametrize("name", sorted(CASES))
def test_encode_matches_golden(name):
    stream, report = encode_case(name)
    decoded, _ = decode_sequence(stream)
    assert hashlib.sha256(stream).hexdigest() == GOLDEN[name][0]
    assert planes_sha256(decoded) == GOLDEN[name][1]
    assert planes_sha256(report.recon_frames) == GOLDEN[name][1]


def test_forced_region_stream_matches_golden():
    stream, _ = forced_stream()
    decoded, _ = decode_sequence(stream)
    assert hashlib.sha256(stream).hexdigest() == GOLDEN["forced_regions"][0]
    assert planes_sha256(decoded) == GOLDEN["forced_regions"][1]


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_match_golden(name):
    stream, report = encode_case(name)
    _, dec_report = decode_sequence(stream)
    assert sha256_text(report.to_csv()) == REPORT_GOLDEN[name][0]
    assert sha256_text(dec_report.to_csv()) == REPORT_GOLDEN[name][1]
    assert sha256_text(accounting_text(bit_accounting(stream))) == REPORT_GOLDEN[name][2]


@pytest.mark.parametrize("name", sorted(CASES))
def test_period_records_match_golden(name):
    _, report = encode_case(name)
    got = [(p.outcome, p.train_samples, p.frames_coded_with) for p in report.periods]
    assert got == PERIOD_GOLDEN[name]

def test_forced_region_reports_match_golden():
    stream, _ = forced_stream()
    _, dec_report = decode_sequence(stream)
    assert sha256_text(dec_report.to_csv()) == REPORT_GOLDEN["forced_regions"][1]
    assert (sha256_text(accounting_text(bit_accounting(stream)))
            == REPORT_GOLDEN["forced_regions"][2])


# Prints the decoded-plane sha256 of each stream file named on the command line.
DECODE_SCRIPT = """
import hashlib, sys
from nbv.decoder import decode_sequence
for path in sys.argv[1:]:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        frames, _ = decode_sequence(f.read())
    for frame in frames:
        for plane in (frame.y, frame.cb, frame.cr):
            h.update(plane.tobytes())
    print(h.hexdigest())
"""


def test_decoded_planes_do_not_depend_on_blas_threads(tmp_path):
    paths = []
    for name in sorted(GOLDEN):
        stream = forced_stream()[0] if name == "forced_regions" else encode_case(name)[0]
        paths.append(tmp_path / f"{name}.nbv")
        paths[-1].write_bytes(stream)
    src = str(Path(nbv.__file__).resolve().parents[1])
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", DECODE_SCRIPT, *map(str, paths)],
                             env=env, capture_output=True, text=True, check=True)
        runs[threads] = out.stdout.split()
    assert runs["1"] == runs["2"] == [GOLDEN[name][1] for name in sorted(GOLDEN)]
