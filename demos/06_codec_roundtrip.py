"""The whole codec on a synthetic pan, end to end.

Encode a short sequence twice (generator on and off), decode the stream,
confirm the decoder reproduces the encoder's internal reconstruction
bit-exactly, and break the stream down by bit category. The generator-on
stream is never allowed to cost more in rate-distortion terms: each
keyframe period keeps the network only if it pays for itself, bits and
all, so on easy content both encodes typically land on identical choices.
"""

from nbv.core import SequenceConfig
from nbv.decoder import decode_sequence
from nbv.encoder import encode_sequence
from nbv.gnn import TrainConfig
from nbv.tools import bit_accounting, frame_psnr, synth_sequence

frames = synth_sequence("pan", 160, 96, 12, velocity=(4, 0), seed=2)

cfg_on = SequenceConfig(width=160, height=96, frame_count=12, qp=24,
                        gnn_interval=6, gnn_enabled=True)
cfg_off = SequenceConfig(width=160, height=96, frame_count=12, qp=24,
                         gnn_interval=6, gnn_enabled=False)

stream_on, report_on = encode_sequence(frames, cfg_on, TrainConfig(steps=200))
stream_off, report_off = encode_sequence(frames, cfg_off)

print(f"generator on:  {len(stream_on)} bytes, J = {report_on.rd_cost:.0f}")
print(f"generator off: {len(stream_off)} bytes, J = {report_off.rd_cost:.0f}")
print(f"on never costs more: {report_on.rd_cost <= report_off.rd_cost}")

decoded, dreport = decode_sequence(stream_on)
exact = all((d.y == r.y).all() and (d.cb == r.cb).all() and (d.cr == r.cr).all()
            for d, r in zip(decoded, report_on.recon_frames))
print(f"\ndecoded {len(decoded)} frames, bit-exact vs encoder: {exact}")
print(f"parameter sets seen: {dreport.n_param_sets}, "
      f"generator calls: {sum(r.n_gen for r in dreport.rows)}")

print("\nframe  type  psnr_y   modes(i/p/g)")
for row, drow, frame in zip(report_on.rows, dreport.rows, frames):
    py, _, _ = frame_psnr(report_on.recon_frames[drow.frame], frame)
    print(f"  {drow.frame:3d}    {drow.type}   {py:6.2f}   "
          f"{drow.n_intra}/{drow.n_inter}/{drow.n_gen}")

print("\nwhere the bits went")
acc = bit_accounting(stream_on)
ratios = acc.ratios()
for cat, bits in acc.categories.items():
    print(f"  {cat:18s} {bits:8d}  {ratios[cat]:7.4f}")
print(f"  {'total':18s} {acc.total_bits:8d}")
