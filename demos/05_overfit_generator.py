"""Overfitting a tiny coordinate network so it can synthesize blocks.

The generator is a small fully-connected ReLU network mapping a normalized
(block x, block y, time) coordinate to all 1536 samples of a block. It is
deliberately overfit to a handful of blocks from the sequence being coded,
then quantized to 10-bit levels with one scale per layer, and that
quantized form is what travels in the stream. The decoder evaluates the
same quantized network, so generator output is bit-identical on both sides.
"""

import numpy as np

from nbv.bitstream import param_set_bits
from nbv.core import BlockCoord, extract_block
from nbv.gnn import (
    SetContext,
    TrainConfig,
    block_to_targets,
    generate_block,
    gnn_input,
    param_count,
    quantize_params,
    train,
)
from nbv.tools import plane_psnr, synth_sequence

frame = synth_sequence("pan", 128, 96, 1, velocity=(4, 0), seed=5)[0]
ctx = SetContext(cols=4, rows=3, start_frame=0, span=1)

# every block of the 4x3 grid as (rows, cols, 2) coordinates (bx, by); the
# network's calls take them like the codec's other block operations
by, bx = np.indices((3, 4))
coords = np.stack([bx, by], axis=-1)
inputs = gnn_input(ctx, coords, 0).reshape(-1, 3)
targets = block_to_targets(extract_block(frame, coords)).reshape(-1, 1536)
print(f"dataset: {len(inputs)} blocks -> {inputs.shape} inputs, "
      f"{targets.shape} targets in [0, 1]")

arch = (3, 32, 48, 1536)
print(f"architecture {arch}: {param_count(arch)} parameters, "
      f"serialized set is {param_set_bits(arch) // 8} bytes")

params = train(arch, inputs, targets, TrainConfig(steps=2000, seed=0))
qparams = quantize_params(params)
print("trained 2000 Adam steps and quantized to 10-bit levels")
for i, layer in enumerate(qparams.layers):
    print(f"  layer {i}: scale {float(layer.scale):.6f}, "
          f"levels in [{layer.weights.min()}, {layer.weights.max()}]")

# the decoder-side call: quantized parameters + coordinates -> blocks
gen = generate_block(qparams, coords, 0, ctx)
src = extract_block(frame, coords)
worst = min(plane_psnr(g, s) for g, s in
            zip(gen.y.reshape(-1, 32, 32), src.y.reshape(-1, 32, 32)))
print(f"\nworst generated-block luma PSNR over the training set: {worst:.1f} dB")

# each block is its own one-row product, so a block generated alone has
# the bytes of its slot in the grid's call
alone = generate_block(qparams, BlockCoord(3, 2), 0, ctx)
print(f"one block alone matches the batch: {np.array_equal(alone.y, gen.y[2, 3])}")
again = generate_block(qparams, coords, 0, ctx)
print(f"generation is deterministic: {np.array_equal(again.y, gen.y)}")
