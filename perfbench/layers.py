"""Per-layer metrics from one traced encode and the traced decodes.

Span metrics are self times per encode-decode cycle: the traced encode's
spans count once, the traced decodes' spans are averaged per decode. The
layers are the package's modules; the span for a call into a module is
named `<module>.<function>`, and the roots are the two timed public calls.
"""

from __future__ import annotations

ENC = "encoder.encode_sequence"
DEC = "decoder.decode_sequence"
ACCT = "tools.bit_accounting"

LAYERS = ("core", "entropy", "residual", "prediction", "gnn", "bitstream",
          "encoder", "decoder", "tools", "cli")

# metric prefix -> (span names, also report call counts)
SPAN_GROUPS = {
    "residual.bits": (("residual.block_tiles_bits",), True),
    "residual.encode": (("residual.encode_block_residual",), True),
    "residual.recon": (("residual.apply_block_residual",), True),
    "prediction.search": (("prediction.motion_search",), True),
    "prediction.mc": (("prediction.motion_compensate",), False),
    "prediction.intra": (("prediction.intra_predict",), False),
    "gnn.train": (("gnn.train",), False),
    "gnn.quantize": (("gnn.quantize_params",), False),
    "gnn.generate": (("gnn.generate_block",), True),
    "bitstream.write": (("bitstream.write_header", "bitstream.write_param_set",
                         "bitstream.write_frame"), False),
    "bitstream.parse": (("bitstream.parse_stream",
                         "bitstream.parse_stream.units"), False),
    "core.block_io": (("core.extract_block", "core.insert_block"), True),
}

DECODER_PRED = ("prediction.intra_predict", "prediction.motion_compensate",
                "gnn.generate_block")


def layer_metrics(tracer, n_decodes: int, frames: int, encode_cpu_s: float,
                  param_sets: int, gen_blocks: int) -> dict[str, tuple[float, str]]:
    weight = {ENC: 1.0, DEC: 1.0 / n_decodes, ACCT: 1.0}
    spans = tracer.self_by_root()

    def total(match, roots=(ENC, DEC), field=0):
        return sum(v[field] * weight[root] for (root, name), v in spans.items()
                   if root in roots and match(name))

    out: dict[str, tuple[float, str]] = {}
    for prefix, (names, calls) in SPAN_GROUPS.items():
        out[f"{prefix}_s"] = (total(names.__contains__) / 1e9, "s")
        if calls:
            out[f"{prefix}_calls"] = (total(names.__contains__, field=1), "count")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            total(lambda n: n.split(".", 1)[0] == layer) / 1e9, "s")
    out["decoder.recon_s"] = (
        total("residual.apply_block_residual".__eq__, (DEC,)) / 1e9, "s")
    out["decoder.pred_s"] = (total(DECODER_PRED.__contains__, (DEC,)) / 1e9, "s")
    out["tools.bit_accounting_s"] = (total(ACCT.__eq__, (ACCT,)) / 1e9, "s")
    out["encoder.cpu_s"] = (encode_cpu_s, "s")

    counts = tracer.counts
    frames_coded = total("bitstream.write_frame".__eq__, (ENC,), field=1)
    candidates = total("residual.encode_block_residual".__eq__, (ENC,), field=1)
    trains = total("gnn.train".__eq__, (ENC,), field=1)
    out["gnn.train_samples"] = (counts.get("gnn.train_samples", 0), "count")
    out["gnn.train_steps"] = (counts.get("gnn.train_steps", 0), "count")
    out["encoder.frames_coded_per_frame"] = (frames_coded / frames, "ratio")
    out["encoder.candidates_per_block"] = (
        candidates / counts["bitstream.blocks_written"], "ratio")
    out["encoder.gnn_kept_ratio"] = (param_sets / trains if trains else 0.0, "ratio")
    out["encoder.gen_blocks"] = (gen_blocks, "count")
    return out
