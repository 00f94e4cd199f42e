"""Pinned output: sha256 of the stream, the decoded planes and the reports.

Each case is a small, fast encode. A change that moves a stream or plane
hash changes the codec's output; one that moves a report hash changes
what the encoder, the decoder or the bit accounting report about it.
Either must update the hash on purpose and say why in CHANGES.md.
"""

import hashlib

import pytest

from conftest import fast_train, forced_stream
from nbv.core import SequenceConfig
from nbv.decoder import decode_sequence
from nbv.encoder import encode_sequence
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
        "740ab5c8188415d7cfd7ea5ddce3f45f23da0c33c4913deb15f22e5e0386645d",
        "b4e2010742c96892cbe50ef038c272c452c511b652af3a4b2127e71bb02ae34d"),
    "pan_qp8_tiny_arch": (
        "73b4fc477931e6eb4d6fb6ed1b2a06aa0d09523b79c52a439af014966b7b5f5a",
        "bbaaa8f77c4af33923e27262eef388aaa957f5a1dc394a050a3dc732fea841f3"),
    "zoom_out_qp8_tiny_arch": (
        "0c17c1f1e4bc953997c2f6b4a49302f961edb185380ab170c216e799cd358653",
        "dcbbaf919a40614b1b35fdc1fa1da6f376928a3df85b6fa53110262a029bb5a5"),
    "pan_qp20_generator_off": (
        "8a91f1220170cf3a2dfe12aa191e1e3ee2adcf5a9f40e49d7431e61ec15c903a",
        "b4e2010742c96892cbe50ef038c272c452c511b652af3a4b2127e71bb02ae34d"),
    "forced_regions": (
        "96204659d4e330e7381c9dea5e3738936086451083a5176a2a660615a7a50718",
        "7259e69eb91ef2423503dee3878bdcddeace7f9ffa72a8890270f65732fa4f3c"),
}


# name -> sha256 of (encoder CSV, decoder CSV, bit accounting); the forced
# stream has no encoder report
REPORT_GOLDEN = {
    "pan_qp20_default_arch": (
        "f162fa0f2e45d477a0bb3adb3d713b1210a6595cca32666d8321095e00560f94",
        "7287cd8d26ea715cbf34e9f20d688b1cf02927ed25442d6a806bc02a920498db",
        "09ee8fcaecb2389be4d564dda079b5842b8843b61fd31bc814985c5d5d669778"),
    "pan_qp20_generator_off": (
        "f162fa0f2e45d477a0bb3adb3d713b1210a6595cca32666d8321095e00560f94",
        "7287cd8d26ea715cbf34e9f20d688b1cf02927ed25442d6a806bc02a920498db",
        "09ee8fcaecb2389be4d564dda079b5842b8843b61fd31bc814985c5d5d669778"),
    "pan_qp8_tiny_arch": (
        "a595a20e2426300ae8b982650c61ca412d11c1aa9e5337f41b09186c144ae711",
        "98c3d9fde9f6f2b45f29b4c2ce2035ec35c06f311bc10da4539e5f1ba78eeb97",
        "8dd8a8837b6aee14a033906861544546b9af65f8eab91f6f2ff0be2fa5c29bec"),
    "zoom_out_qp8_tiny_arch": (
        "c743ddadf64dc79004b333435ab04d34f5b68107faf86993e520c757f2a004a5",
        "2aaccb2ad0a1a90ede25c8b04bd4a9f96cc08e39f569c3aaf65dc9bd54c70365",
        "d2628106bf848eb8968a43d5661d76345bafbd18fbcc2351f334ac8d09fdea15"),
    "forced_regions": (
        None,
        "7e474d0e6f46192daecbd0365f77fd1db23f99d5899eb6d6cb343628421c9e5a",
        "90f552d2a11dfeccefec8b9e907bdcd29a14991fcffe44496a04e3f5189e4d08"),
}


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


def test_forced_region_reports_match_golden():
    stream, _ = forced_stream()
    _, dec_report = decode_sequence(stream)
    assert sha256_text(dec_report.to_csv()) == REPORT_GOLDEN["forced_regions"][1]
    assert (sha256_text(accounting_text(bit_accounting(stream)))
            == REPORT_GOLDEN["forced_regions"][2])
