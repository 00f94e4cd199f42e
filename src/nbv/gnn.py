"""Overfit coordinate generator network for whole coding units.

A small fully connected network maps a normalized (block x, block y, frame)
coordinate to all 1536 samples of one coding unit: 1024 luma in raster
order, then 256 Cb, then 256 Cr. The encoder overfits it on the source
blocks of one keyframe period, quantizes every layer to 10-bit integers
with one float32 scale per layer, and ships the result in the stream; the
decoder rebuilds blocks by evaluating the dequantized network at each
block's coordinate. ReLU is applied after every layer including the last,
which keeps outputs non-negative like the pixel values they model.

Training runs in float32: inputs, targets, weights, Adam moments and
every product. The seeded float64 initialization is cast once, and train
returns float64 arrays that hold the float32 values exactly. The weights
reach the stream only as 10-bit levels, so float64 training would buy
nothing a decoder can see. Everything after training is plain float64
numpy: quantization, dequantization and the forward pass that generates
blocks, so encoder and decoder compute the same pixels from the same
levels. Backprop (_backward) is exact, with the ReLU subgradient taken as
0 at 0, and computes in its params' dtype, so float64 params give float64
gradients; the tests hold it to finite differences of their loss through
a backward of their own that runs it on one batch. Training is seeded
and deterministic: the same inputs give the same network on the same
BLAS kernels. float32 products can
round differently on another kernel family (one without FMA, say), which
can move the trained levels and so the stream an encoder writes, but not
what a decoder makes of a given stream: it sees only the levels.

Training reuses its arrays: _backward works over each matrix product it
makes, and the Adam update in the moment arrays and the parameters. It
runs the same float32 operations in the same order as the plain form that
allocates every temporary, with the same BLAS products on the same
operands, so the trained weights are that form's to the bit.

Each step runs on two threads, the caller's and one worker that train
starts and joins before it returns or raises. First the output layer's
forward product and its elementwise tail (bias, ReLU, error, scale,
mask) are split by rows; then the worker makes that layer's
weight-gradient product while the caller makes the rest. No reduction
is split, and no thread writes an array the other reads before the
worker is joined. A product split by rows need not keep the whole
product's bits, since a BLAS picks its kernels and blocking by shape and
thread count. So train cuts it at product_cut(n) only where it pinned
BLAS to one thread and cut_keeps_bits, run once per product shape in a
process, finds that the cut keeps every bit; elsewhere, and always in the
tests' backward, the product stays whole and only its tail is split. (On
OpenBLAS's Haswell kernels only cuts on multiples of ROW_CUT = 24 rows
keep the bits.)

With BLAS pinned to one thread, 100 steps of the default network on 576
rows take 0.59-0.60 s (median of two sets of eight interleaved runs on a
shared 2-core x86-64 machine with OpenBLAS); with BLAS at its default two
threads they took 0.77-0.82 s, since OpenBLAS's threads then compete with
the worker for the two cores. So train pins numpy's OpenBLAS to one
thread while it runs and restores the caller's count after, which also
makes the trained set the same whatever thread count the caller set.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    BLOCK,
    CHROMA_BLOCK,
    SAMPLES_PER_BLOCK,
    Block32,
    BlockCoord,
    round_half_away,
)

INPUT_SIZE = 3
OUTPUT_SIZE = SAMPLES_PER_BLOCK
MAX_LAYERS = 8
MAX_LAYER_SIZE = 4096
QUANT_MAX = 511  # symmetric 10-bit two's-complement range, -511..511

Params = list[tuple[np.ndarray, np.ndarray]]


def check_architecture(layer_sizes) -> tuple[int, ...]:
    """Validate codec-level caps; returns the sizes as a tuple."""
    sizes = tuple(int(s) for s in layer_sizes)
    if not 2 <= len(sizes) <= MAX_LAYERS:
        raise ValueError(f"layer count {len(sizes)} outside [2, {MAX_LAYERS}]")
    for s in sizes:
        if not 1 <= s <= MAX_LAYER_SIZE:
            raise ValueError(f"layer size {s} outside [1, {MAX_LAYER_SIZE}]")
    if sizes[0] != INPUT_SIZE:
        raise ValueError(f"input layer must have {INPUT_SIZE} units")
    if sizes[-1] != OUTPUT_SIZE:
        raise ValueError(f"output layer must have {OUTPUT_SIZE} units")
    return sizes


def param_count(layer_sizes) -> int:
    """Total weights plus biases: sum of out * (in + 1) over consecutive pairs."""
    sizes = [int(s) for s in layer_sizes]
    return sum(o * (i + 1) for i, o in zip(sizes[:-1], sizes[1:]))


HIDDEN_BIAS_INIT = 0.1
OUTPUT_BIAS_INIT = 0.5


def init_params(layer_sizes, seed) -> Params:
    """He-uniform weights (bound sqrt(6 / fan_in)), small positive biases, seeded.

    Biases start at 0.1 (hidden) and 0.5 (output) rather than zero: with the
    output ReLU and a subgradient of 0 at 0, a unit whose pre-activation is
    never positive receives no gradient and stays dead, and zero biases leave
    a large fraction of output units dead at init (fatally so for a
    one-sample dataset at the origin, where every pre-activation is exactly
    the bias). The small hidden bias keeps activations compact so output
    pre-activations cluster around the output bias, which sits at mid-gray
    in the [0, 1] target range; every output unit starts alive.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    params: Params = []
    sizes = [int(s) for s in layer_sizes]
    last = len(sizes) - 2
    for li, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        bound = math.sqrt(6.0 / fan_in)
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        b = np.full(fan_out, OUTPUT_BIAS_INIT if li == last else HIDDEN_BIAS_INIT)
        params.append((w, b))
    return params


def forward(params: Params, x: np.ndarray) -> np.ndarray:
    """Evaluate the network; accepts one input vector or a batch of rows."""
    a = np.asarray(x, dtype=np.float64)
    single = a.ndim == 1
    if single:
        a = a[None, :]
    for w, b in params:
        a = a @ w.T + b
        np.maximum(a, 0.0, out=a)
    return a[0] if single else a


ROW_CUT = 24  # a cut of the output product falls on a multiple of this


def product_cut(n: int) -> int:
    """Where a cut of an n-row output product may fall: the largest
    multiple of ROW_CUT at most n / 2, so each side gets at least ROW_CUT
    rows, or 0, which keeps a product under 2 * ROW_CUT rows whole."""
    return ROW_CUT * (n // (2 * ROW_CUT))


@functools.cache
def cut_keeps_bits(n: int, m: int, k: int, dtype, cut: int) -> bool:
    """Whether a seeded (n, k) @ (m, k).T product in dtype, made as two
    row halves into slices of one (n, m) array as _backward lays them out,
    the first cut rows on a worker and the rest on this thread, gives the
    whole product's bytes. Cached, so it runs once per shape in a
    process; train asks it only with BLAS pinned to one thread."""
    rng = np.random.default_rng(0)
    a, w = (rng.uniform(-1.0, 1.0, shape).astype(dtype) for shape in ((n, k), (m, k)))
    out = np.empty((n, m), dtype)
    with ThreadPoolExecutor(max_workers=1) as pool:
        job = pool.submit(np.matmul, a[:cut], w.T, out=out[:cut])
        np.matmul(a[cut:], w.T, out=out[cut:])
        job.result()
    # digests, so that one (n, m) array is all the check holds
    halves = hashlib.sha256(out).digest()
    return hashlib.sha256(np.matmul(a, w.T, out=out)).digest() == halves


@functools.cache
def _openblas():
    """numpy's OpenBLAS as its (get_num_threads, set_num_threads)
    functions, or None where numpy's BLAS is no OpenBLAS or its library is
    not found loaded (found through /proc/self/maps, so on Linux only)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in str(blas.get("name", "")).lower():
        return None
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split(None, 5)[-1].strip() for line in f}
    except OSError:
        return None
    # numpy's own copy first, should another package have loaded another
    for path in sorted(paths, key=lambda path: ("numpy" not in path, path)):
        if "openblas" not in os.path.basename(path).lower():
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                pin = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            threads.argtypes, threads.restype = [], ctypes.c_int
            pin.argtypes, pin.restype = [ctypes.c_int], None
            return threads, pin
    return None


# How many one_blas_thread blocks are open, and the OpenBLAS thread count
# the first of them found; changed under _PIN_LOCK only.
_PIN_LOCK = threading.Lock()
_pinned = {"open": 0, "threads": 0}


@contextlib.contextmanager
def one_blas_thread():
    """Pin numpy's OpenBLAS to one thread for the block, then restore the
    count it had; yields whether it pinned. Blocks that overlap, on any
    threads, share one pin: the first in sets it and the last out
    restores it. Pins nothing, and yields False, where this module cannot
    reach OpenBLAS's thread count."""
    if (lib := _openblas()) is None:
        yield False
        return
    threads, pin = lib
    with _PIN_LOCK:
        if not _pinned["open"]:
            _pinned["threads"] = int(threads())
            pin(1)
        _pinned["open"] += 1
    try:
        yield True
    finally:
        with _PIN_LOCK:
            _pinned["open"] -= 1
            if not _pinned["open"]:
                pin(_pinned["threads"])


def _output_delta(a: np.ndarray, b: np.ndarray, t: np.ndarray, scale: float) -> None:
    """Rows of the output layer's product to d(mean squared error)/d(output).

    Adds the bias and applies the ReLU, then writes the error, masked by
    the ReLU, over them. 2 * d / (n * k) equals d / scale with
    scale = n * k / 2 to the bit in either dtype: halving is exact, so
    scale is half of n * k as the dtype holds it, and 2 * d is exact while
    it is finite. The mask stays a multiply, so a dead unit's zero keeps d's
    sign.
    """
    a += b
    np.maximum(a, 0.0, out=a)
    live = a > 0.0
    a -= t
    a /= scale
    a *= live


def _output_rows(x: np.ndarray, w: np.ndarray, b: np.ndarray, t: np.ndarray,
                 scale: float, out: np.ndarray) -> None:
    """The output layer's product of the rows x into out, then
    _output_delta over it."""
    np.matmul(x, w.T, out=out)
    _output_delta(out, b, t, scale)


def _backward(pool: ThreadPoolExecutor, cut: int, params: Params, inputs: np.ndarray,
              targets: np.ndarray, delta: np.ndarray, out_grad: np.ndarray) -> Params:
    """Exact gradients of the mean squared error for every weight and
    bias, on the calling thread and pool's one worker. The ReLU
    subgradient at exactly 0 is taken as 0, matching forward(), where a
    unit at 0 contributes nothing downstream.

    The worker takes the output layer's first cut rows: their share of
    the forward product and their elementwise tail in delta, (n, 1536),
    while this thread does the other rows. A cut other than 0 must be one
    cut_keeps_bits passes in the BLAS state the product runs in. Where
    cut is 0 this thread makes the whole product and the worker the first
    half of the rows' tail. Then the worker makes the output layer's
    weight gradient into out_grad while this thread does the rest.
    Neither thread writes an array the other reads before the worker's
    task is joined.
    """
    dtype = params[-1][0].dtype
    x = np.atleast_2d(np.asarray(inputs, dtype=dtype))
    t = np.atleast_2d(np.asarray(targets, dtype=dtype))
    acts = [x]
    for w, b in params[:-1]:
        a = acts[-1] @ w.T
        a += b
        np.maximum(a, 0.0, out=a)
        acts.append(a)
    n, k = t.shape
    w, b = params[-1]
    a = acts[-1]
    if cut:
        job = pool.submit(_output_rows, a[:cut], w, b, t[:cut], n * k / 2, delta[:cut])
        _output_rows(a[cut:], w, b, t[cut:], n * k / 2, delta[cut:])
    else:
        np.matmul(a, w.T, out=delta)
        cut = n // 2
        job = pool.submit(_output_delta, delta[:cut], b, t[:cut], n * k / 2)
        _output_delta(delta[cut:], b, t[cut:], n * k / 2)
    job.result()
    job = pool.submit(np.matmul, delta.T, a, out=out_grad)
    grads: Params = [None] * len(params)  # type: ignore[list-item]
    grads[-1] = (out_grad, delta.sum(axis=0))
    for li in range(len(params) - 1, 0, -1):
        delta = delta @ params[li][0]
        delta *= acts[li] > 0.0
        grads[li - 1] = (delta.T @ acts[li - 1], delta.sum(axis=0))
    job.result()
    return grads


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LEARNING_RATE = 1e-3
BATCH_SIZE = 1024


@dataclass
class TrainConfig:
    """Training settings; the defaults overfit one period at full quality."""

    steps: int = 5000
    seed: int = 0


def train(layer_sizes, inputs: np.ndarray, targets: np.ndarray,
          cfg: TrainConfig | None = None) -> Params:
    """Overfit the network on (input, target) rows; fully seeded and repeatable.

    Runs exactly cfg.steps Adam updates (ADAM_BETA1, ADAM_BETA2, ADAM_EPS)
    at LEARNING_RATE. Datasets of at most BATCH_SIZE rows train full
    batch; larger ones are visited in seeded shuffled minibatches of
    BATCH_SIZE, reshuffled each epoch. The whole state is float32; the
    result is float64 arrays holding the float32 weights exactly. Inputs
    and targets of another dtype are cast to float32 once; float32 ones,
    as train_param_set builds them, are used as they are and not copied.
    Each step runs on the calling thread and one worker thread, which is
    joined before train returns or raises. numpy's OpenBLAS runs one
    thread meanwhile (one_blas_thread), so on given BLAS kernels the
    trained set is the same whatever thread count the caller set. The
    output product is cut at product_cut of a step's rows where that pin
    took and cut_keeps_bits passes for it, else kept whole.
    """
    cfg = cfg or TrainConfig()
    x = np.asarray(inputs, dtype=np.float32)
    t = np.asarray(targets, dtype=np.float32)
    if x.ndim != 2 or t.ndim != 2 or x.shape[0] != t.shape[0] or x.shape[0] == 0:
        raise ValueError("inputs and targets must be matching non-empty batches")
    if cfg.steps < 0:
        raise ValueError("steps must be >= 0")

    rng = np.random.default_rng(cfg.seed)
    params = [(w.astype(np.float32), b.astype(np.float32))
              for w, b in init_params(layer_sizes, rng)]
    n = x.shape[0]
    full = n <= BATCH_SIZE
    # per weight or bias array: (array, first moment, second moment, scratch)
    slots = [(p, np.zeros_like(p), np.zeros_like(p), np.empty_like(p))
             for layer in params for p in layer]

    order = np.empty(0, dtype=np.int64)
    cursor = 0
    rows = min(n, BATCH_SIZE)
    w = params[-1][0]
    with one_blas_thread() as pinned, ThreadPoolExecutor(max_workers=1) as pool:
        cut = product_cut(rows)
        cut = cut if pinned and cut and cut_keeps_bits(rows, *w.shape, w.dtype, cut) else 0
        # the output layer's rows and its weight gradient land here, made
        # after the check so that its product does not add to their peak
        delta = np.empty((rows, len(w)), np.float32)
        out_grad = np.empty_like(w)
        for step in range(cfg.steps):
            if full:
                bx, bt = x, t
            else:
                if cursor + BATCH_SIZE > len(order):
                    order = rng.permutation(n)
                    cursor = 0
                idx = order[cursor:cursor + BATCH_SIZE]
                cursor += BATCH_SIZE
                bx, bt = x[idx], t[idx]
            grads = [g for layer in _backward(pool, cut, params, bx, bt, delta, out_grad)
                     for g in layer]
            tstep = step + 1
            bc1 = 1.0 - ADAM_BETA1 ** tstep
            bc2 = 1.0 - ADAM_BETA2 ** tstep
            # p -= LR * (m / bc1) / (sqrt(v / bc2) + EPS) after m and v
            # advance, op by op as written; g is spent as a second scratch
            for (p, m, v, s), g in zip(slots, grads):
                m *= ADAM_BETA1
                np.multiply(g, 1.0 - ADAM_BETA1, out=s)
                m += s
                v *= ADAM_BETA2
                g *= g
                g *= 1.0 - ADAM_BETA2
                v += g
                np.divide(m, bc1, out=s)
                s *= LEARNING_RATE
                np.divide(v, bc2, out=g)
                np.sqrt(g, out=g)
                g += ADAM_EPS
                s /= g
                p -= s
    return [(w.astype(np.float64), b.astype(np.float64)) for w, b in params]


@dataclass
class QuantizedLayer:
    weights: np.ndarray  # (out, in) int16, each in [-511, 511]
    biases: np.ndarray  # (out,) int16
    scale: np.float32  # > 0; dequantized value = level * scale


@dataclass
class QuantizedGnnParams:
    layers: list[QuantizedLayer]

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        sizes = [self.layers[0].weights.shape[1]]
        sizes += [l.weights.shape[0] for l in self.layers]
        return tuple(sizes)

    def check(self) -> tuple[int, ...]:
        """Raise ValueError unless the set has a legal architecture, each
        layer weights (fan_out, fan_in) and biases (fan_out,), levels that are
        integers within +-QUANT_MAX and a finite, positive float32 scale;
        returns the sizes."""
        sizes = check_architecture(self.layer_sizes)
        for l, fan_in, fan_out in zip(self.layers, sizes[:-1], sizes[1:]):
            if l.weights.shape != (fan_out, fan_in) or l.biases.shape != (fan_out,):
                raise ValueError(f"layer arrays do not chain as {sizes}")
            for a in (l.weights, l.biases):
                if not np.all((a >= -QUANT_MAX) & (a <= QUANT_MAX)):  # refuses NaN too
                    raise ValueError("parameter level out of 10-bit range")
                if not np.array_equal(a, np.round(a)):  # the writer would truncate
                    raise ValueError("fractional parameter level")
            if not 0 < np.float32(l.scale) < np.inf:  # refuses NaN too
                raise ValueError(f"bad layer scale {l.scale}")
        return sizes

    @functools.cached_property
    def dequantized(self) -> Params:
        """dequantize_params of the set, made once at first use; read-only,
        since every caller shares it."""
        params = dequantize_params(self)
        for array in (a for layer in params for a in layer):
            array.flags.writeable = False
        return params


def quantize_params(params: Params) -> QuantizedGnnParams:
    """10-bit symmetric quantization, one shared scale per layer.

    The scale is max |value| / 511 stored as float32 (1.0 for an all-zero
    layer), so dequantization error stays within scale / 2 per value.
    """
    layers = []
    for w, b in params:
        amax = max(float(np.max(np.abs(w))), float(np.max(np.abs(b))))
        if not math.isfinite(amax):
            raise ValueError("non-finite parameter value")
        scale = np.float32(amax / QUANT_MAX) if amax > 0.0 else np.float32(1.0)
        qw = np.clip(round_half_away(w / float(scale)), -QUANT_MAX, QUANT_MAX)
        qb = np.clip(round_half_away(b / float(scale)), -QUANT_MAX, QUANT_MAX)
        layers.append(QuantizedLayer(qw.astype(np.int16), qb.astype(np.int16), scale))
    return QuantizedGnnParams(layers)


def dequantize_params(qp: QuantizedGnnParams) -> Params:
    return [
        (l.weights.astype(np.float64) * float(l.scale),
         l.biases.astype(np.float64) * float(l.scale))
        for l in qp.layers
    ]


@dataclass(frozen=True)
class SetContext:
    """Geometry a parameter set was trained against.

    Inputs normalize block coordinates by the grid and the frame index by
    the set's span; the frame index restarts at the set's first frame.
    """

    cols: int
    rows: int
    start_frame: int
    span: int


def gnn_input(ctx: SetContext, c: BlockCoord, frame_idx: int) -> np.ndarray:
    fx = c.bx / (ctx.cols - 1) if ctx.cols > 1 else 0.0
    fy = c.by / (ctx.rows - 1) if ctx.rows > 1 else 0.0
    ft = (frame_idx - ctx.start_frame) / max(1, ctx.span - 1)
    return np.array([fx, fy, ft], dtype=np.float64)


def block_to_targets(block: Block32) -> np.ndarray:
    """Flatten a coding unit to 1536 training targets in [0, 1]."""
    return np.concatenate([
        block.y.reshape(-1), block.cb.reshape(-1), block.cr.reshape(-1)
    ]).astype(np.float64) / 255.0


def outputs_to_block(outputs: np.ndarray) -> Block32:
    """Map 1536 network outputs back to pixels: round half away, clamp to 8 bits."""
    if outputs.shape != (OUTPUT_SIZE,):
        raise ValueError(f"expected {OUTPUT_SIZE} outputs, got {outputs.shape}")
    pix = np.clip(round_half_away(outputs * 255.0), 0, 255).astype(np.uint8)
    ny = BLOCK * BLOCK
    nc = CHROMA_BLOCK * CHROMA_BLOCK
    return Block32(
        pix[:ny].reshape(BLOCK, BLOCK),
        pix[ny:ny + nc].reshape(CHROMA_BLOCK, CHROMA_BLOCK),
        pix[ny + nc:].reshape(CHROMA_BLOCK, CHROMA_BLOCK),
    )


def generate_block(qparams: QuantizedGnnParams, c: BlockCoord,
                   frame_idx: int, ctx: SetContext) -> Block32:
    """Decode one coding unit from the quantized network.

    Evaluates the set's dequantized network, made once per set, at the
    block's normalized coordinate, one row a block, and maps outputs to
    pixels. Encoder and decoder both call exactly this, so generated
    blocks can never drift between the two.
    """
    return outputs_to_block(forward(qparams.dequantized, gnn_input(ctx, c, frame_idx)))
