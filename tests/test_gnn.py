"""Coordinate-network generator: sizing, math, training, quantization."""

import functools
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import nbv
import nbv.decoder
import nbv.gnn
from nbv.core import Block32, BlockCoord, extract_block
from nbv.gnn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    BATCH_SIZE,
    HIDDEN_BIAS_INIT,
    LEARNING_RATE,
    INPUT_SIZE,
    MAX_LAYER_SIZE,
    MAX_LAYERS,
    OUTPUT_BIAS_INIT,
    OUTPUT_SIZE,
    QUANT_MAX,
    SetContext,
    TrainConfig,
    block_to_targets,
    check_architecture,
    dequantize_params,
    forward,
    generate_block,
    gnn_input,
    init_params,
    one_blas_thread,
    outputs_to_block,
    param_count,
    product_cut,
    quantize_params,
    train,
)
from conftest import backward, forced_stream, loss
from nbv.tools import synth_sequence
from test_golden import TRAINED_GOLDEN

DEFAULT_ARCH = (3, 25, 40, 60, 1536)


def backward_oracle(params, inputs, targets):
    """Reference gradients: the plain form, a fresh array for every step,
    computed in the params' dtype."""
    dtype = params[-1][0].dtype
    x = np.atleast_2d(np.asarray(inputs, dtype=dtype))
    t = np.atleast_2d(np.asarray(targets, dtype=dtype))
    acts = [x]
    a = x
    for w, b in params:
        a = np.maximum(a @ w.T + b, 0.0)
        acts.append(a)
    n, k = t.shape
    # d(mean squared error)/d(output), masked by the output ReLU.
    delta = 2.0 * (acts[-1] - t) / (n * k)
    delta = delta * (acts[-1] > 0.0)
    grads = [None] * len(params)
    for li in range(len(params) - 1, -1, -1):
        grads[li] = (delta.T @ acts[li], delta.sum(axis=0))
        if li:
            delta = (delta @ params[li][0]) * (acts[li] > 0.0)
    return grads


def train_oracle(layer_sizes, inputs, targets, cfg=None, dtype=np.float32):
    """plain_train with numpy's OpenBLAS pinned to one thread, as train
    pins it."""
    with one_blas_thread():
        return plain_train(layer_sizes, inputs, targets, cfg, dtype)


def plain_train(layer_sizes, inputs, targets, cfg=None, dtype=np.float32):
    """Reference trainer: the plain form of train, fresh arrays every step,
    run in dtype from the seeded initialization cast once; returns the
    params in dtype."""
    cfg = cfg or TrainConfig()
    x = np.asarray(inputs, dtype=dtype)
    t = np.asarray(targets, dtype=dtype)
    if x.ndim != 2 or t.ndim != 2 or x.shape[0] != t.shape[0] or x.shape[0] == 0:
        raise ValueError("inputs and targets must be matching non-empty batches")
    if cfg.steps < 0:
        raise ValueError("steps must be >= 0")

    rng = np.random.default_rng(cfg.seed)
    params = cast(init_params(layer_sizes, rng), dtype)
    n = x.shape[0]
    full = n <= BATCH_SIZE
    m = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params]
    v = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params]

    order = np.empty(0, dtype=np.int64)
    cursor = 0
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
        grads = backward_oracle(params, bx, bt)
        tstep = step + 1
        bc1 = 1.0 - ADAM_BETA1 ** tstep
        bc2 = 1.0 - ADAM_BETA2 ** tstep
        new_params = []
        for li, ((w, b), (gw, gb)) in enumerate(zip(params, grads)):
            mw, mb = m[li]
            vw, vb = v[li]
            mw = ADAM_BETA1 * mw + (1.0 - ADAM_BETA1) * gw
            mb = ADAM_BETA1 * mb + (1.0 - ADAM_BETA1) * gb
            vw = ADAM_BETA2 * vw + (1.0 - ADAM_BETA2) * (gw * gw)
            vb = ADAM_BETA2 * vb + (1.0 - ADAM_BETA2) * (gb * gb)
            m[li] = (mw, mb)
            v[li] = (vw, vb)
            w = w - LEARNING_RATE * (mw / bc1) / (np.sqrt(vw / bc2) + ADAM_EPS)
            b = b - LEARNING_RATE * (mb / bc1) / (np.sqrt(vb / bc2) + ADAM_EPS)
            new_params.append((w, b))
        params = new_params
    return params


def params_bytes(params):
    """Every weight and bias as raw bytes, so signed zeros count."""
    return [(w.tobytes(), b.tobytes()) for w, b in params]


def cast(params, dtype):
    return [(w.astype(dtype), b.astype(dtype)) for w, b in params]


def trained_float32(params):
    """train's result as the float32 state it trained, after checking that
    each array is float64 and survives a round trip through float32."""
    for a in (a for layer in params for a in layer):
        assert a.dtype == np.float64
        assert a.astype(np.float32).astype(np.float64).tobytes() == a.tobytes()
    return cast(params, np.float32)


def assert_gradients_equal_the_oracle(params, x, t):
    """backward equals backward_oracle to the byte, in float32 as train
    runs it and in float64, each in the params' dtype."""
    for dtype in (np.float32, np.float64):
        typed = cast(params, dtype)
        got = backward(typed, x, t)
        assert all(g.dtype == dtype for layer in got for g in layer)
        assert params_bytes(got) == params_bytes(backward_oracle(typed, x, t))


def uniform_block(value: int) -> Block32:
    return Block32(
        np.full((32, 32), value, np.uint8),
        np.full((16, 16), value, np.uint8),
        np.full((16, 16), value, np.uint8),
    )


class TestArchitecture:
    def test_default_architecture_size(self):
        assert param_count(DEFAULT_ARCH) == 97_296

    def test_per_layer_counts(self):
        sizes = DEFAULT_ARCH
        per_layer = [o * (i + 1) for i, o in zip(sizes[:-1], sizes[1:])]
        assert per_layer == [100, 1040, 2460, 93_696]
        assert sum(per_layer) == param_count(sizes)

    def test_param_count_is_plain_arithmetic(self):
        assert param_count([1, 1]) == 2
        assert param_count([2, 3, 4]) == 3 * 3 + 4 * 4

    def test_caps_enforced(self):
        check_architecture((3, 1536))
        check_architecture((3,) + (MAX_LAYER_SIZE,) * (MAX_LAYERS - 2) + (1536,))
        with pytest.raises(ValueError):
            check_architecture((3,))
        with pytest.raises(ValueError):
            check_architecture((3,) + (8,) * (MAX_LAYERS - 1) + (1536,))
        with pytest.raises(ValueError):
            check_architecture((4, 8, 1536))
        with pytest.raises(ValueError):
            check_architecture((3, 8, 1537))
        with pytest.raises(ValueError):
            check_architecture((3, 0, 1536))
        with pytest.raises(ValueError):
            check_architecture((3, MAX_LAYER_SIZE + 1, 1536))

    def test_constants(self):
        assert INPUT_SIZE == 3 and OUTPUT_SIZE == 1536 and QUANT_MAX == 511


class TestInit:
    def test_seed_determinism(self):
        a = init_params(DEFAULT_ARCH, seed=5)
        b = init_params(DEFAULT_ARCH, seed=5)
        c = init_params(DEFAULT_ARCH, seed=6)
        for (wa, ba), (wb, bb) in zip(a, b):
            assert np.array_equal(wa, wb) and np.array_equal(ba, bb)
        assert any(not np.array_equal(wa, wc) for (wa, _), (wc, _) in zip(a, c))

    def test_weight_bounds_scale_with_fan_in(self):
        params = init_params(DEFAULT_ARCH, seed=0)
        for (w, _), fan_in in zip(params, DEFAULT_ARCH[:-1]):
            assert np.max(np.abs(w)) <= math.sqrt(6.0 / fan_in)

    def test_positive_bias_floor_keeps_units_alive_at_origin(self):
        # zero biases would zero every pre-activation at the all-zero input,
        # and the ReLU subgradient of 0 at 0 would freeze training there
        params = init_params(DEFAULT_ARCH, seed=1)
        assert np.all(params[-1][1] == OUTPUT_BIAS_INIT)
        assert all(np.all(b == HIDDEN_BIAS_INIT) for _, b in params[:-1])
        # at the origin the first hidden layer is exactly its bias: all alive
        w1, b1 = params[0]
        h1 = np.maximum(np.zeros(3) @ w1.T + b1, 0.0)
        assert np.all(h1 == HIDDEN_BIAS_INIT)
        # deeper mixing may zero a few output units, never a large share
        out = forward(params, np.zeros(3))
        assert np.mean(out > 0.0) >= 0.85


class TestForward:
    def test_single_linear_unit(self):
        params = [(np.array([[1.0, 1.0, 1.0]]), np.array([0.0]))]
        assert forward(params, np.array([0.5, 0.5, 0.0])) == pytest.approx([1.0])

    def test_relu_clips_negatives(self):
        params = [(np.array([[-2.0]]), np.array([0.0]))]
        assert forward(params, np.array([1.0])) == pytest.approx([0.0])
        assert forward(params, np.array([-1.0])) == pytest.approx([2.0])

    def test_all_zero_params_emit_zeros(self):
        params = [(np.zeros((4, 3)), np.zeros(4)), (np.zeros((2, 4)), np.zeros(2))]
        out = forward(params, np.ones(3))
        assert np.array_equal(out, np.zeros(2))

    def test_relu_applies_to_output_layer_too(self):
        params = [(np.array([[1.0]]), np.array([-5.0]))]
        assert forward(params, np.array([1.0])) == pytest.approx([0.0])

    def test_batched_rows_match_single_calls(self):
        params = init_params((3, 7, 1536), seed=2)
        xs = np.random.default_rng(3).uniform(0, 1, (5, 3))
        batch = forward(params, xs)
        for i in range(5):
            assert np.allclose(batch[i], forward(params, xs[i]))

    @pytest.mark.parametrize("arch", [DEFAULT_ARCH, (3, 4, 1536)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stacked_one_row_products_keep_per_row_bits(self, arch, seed):
        # generate_block's form: every block its own one-row product, so a
        # block's outputs do not depend on which blocks share the call
        params = dequantize_params(quantize_params(init_params(arch, seed)))
        xs = np.random.default_rng(seed).uniform(0.0, 1.0, (40, 3))
        stacked = forward(params, xs[:, None, :])[:, 0]
        rows = np.stack([forward(params, x) for x in xs])
        assert np.array_equal(stacked.view(np.uint64), rows.view(np.uint64))


class TestLossAndGradients:
    def test_loss_is_mean_squared_error(self):
        params = [(np.zeros((2, 3)), np.zeros(2))]
        x = np.zeros((1, 3))
        assert loss(params, x, np.ones((1, 2))) == pytest.approx(1.0)
        assert loss(params, x, np.zeros((1, 2))) == pytest.approx(0.0)
        assert loss(params, x, np.array([[1.0, 0.0]])) == pytest.approx(0.5)

    def test_hand_computed_gradient(self):
        # y = relu(0.5 * 1.0), L = (y - 1.5)^2 -> dL/dw = 2(y-t)x = -2
        params = [(np.array([[0.5]]), np.array([0.0]))]
        gw, gb = backward(params, np.array([[1.0]]), np.array([[1.5]]))[0]
        assert gw[0, 0] == pytest.approx(-2.0)
        assert gb[0] == pytest.approx(-2.0)

    def test_dead_unit_gets_zero_gradient(self):
        # pre-activation is negative, so the subgradient path is cut
        params = [(np.array([[1.0]]), np.array([-2.0]))]
        gw, gb = backward(params, np.array([[1.0]]), np.array([[1.0]]))[0]
        assert gw[0, 0] == 0.0 and gb[0] == 0.0

    def test_zero_preactivation_uses_zero_subgradient(self):
        params = [(np.array([[1.0]]), np.array([-1.0]))]
        gw, gb = backward(params, np.array([[1.0]]), np.array([[1.0]]))[0]
        assert gw[0, 0] == 0.0 and gb[0] == 0.0

    def test_numeric_gradient_check(self):
        rng = np.random.default_rng(7)
        arch = (3, 6, 5, 1536)
        params = init_params(arch, seed=8)
        x = rng.uniform(0.0, 1.0, (4, 3))
        t = rng.uniform(0.0, 1.0, (4, 1536))
        grads = backward(params, x, t)
        h = 1e-4
        checked = 0
        for li, (w, b) in enumerate(params):
            for arr, g in ((w, grads[li][0]), (b, grads[li][1])):
                flat = arr.reshape(-1)
                gflat = g.reshape(-1)
                idxs = rng.choice(flat.size, size=min(24, flat.size), replace=False)
                for i in idxs:
                    orig = flat[i]
                    flat[i] = orig + h
                    lp = loss(params, x, t)
                    flat[i] = orig - h
                    lm = loss(params, x, t)
                    flat[i] = orig
                    num = (lp - lm) / (2 * h)
                    denom = max(abs(num), abs(gflat[i]), 1e-8)
                    assert abs(num - gflat[i]) / denom <= 1e-3
                    checked += 1
        assert checked >= 100


class TestTraining:
    def one_sample_dataset(self, value=128):
        ctx = SetContext(cols=1, rows=1, start_frame=0, span=1)
        x = gnn_input(ctx, BlockCoord(0, 0), 0)[None, :]
        t = block_to_targets(uniform_block(value))[None, :]
        return ctx, x, t

    def test_training_is_deterministic(self):
        _, x, t = self.one_sample_dataset()
        cfg = TrainConfig(steps=40)
        a = train((3, 8, 1536), x, t, cfg)
        b = train((3, 8, 1536), x, t, cfg)
        for (wa, ba), (wb, bb) in zip(a, b):
            assert np.array_equal(wa, wb) and np.array_equal(ba, bb)

    def test_zero_steps_returns_initialization(self):
        _, x, t = self.one_sample_dataset()
        cfg = TrainConfig(steps=0, seed=9)
        params = train((3, 8, 1536), x, t, cfg)
        init = cast(cast(init_params((3, 8, 1536), seed=9), np.float32), np.float64)
        for (wa, ba), (wb, bb) in zip(params, init):
            assert np.array_equal(wa, wb) and np.array_equal(ba, bb)

    def test_training_reduces_loss(self):
        _, x, t = self.one_sample_dataset(value=40)
        before = loss(init_params((3, 8, 1536), seed=0), x, t)
        after = loss(train((3, 8, 1536), x, t, TrainConfig(steps=200)), x, t)
        assert after < before

    def test_constant_block_overfits_to_near_exact(self):
        ctx, x, t = self.one_sample_dataset(value=128)
        params = train((3, 8, 1536), x, t, TrainConfig(steps=500))
        gen = generate_block(quantize_params(params), BlockCoord(0, 0), 0, ctx)
        flat = np.concatenate([gen.y.ravel(), gen.cb.ravel(), gen.cr.ravel()])
        off = np.abs(flat.astype(int) - 128)
        assert np.mean(off > 1) <= 0.01

    def test_float32_training_loses_no_quality(self):
        # every block of a small zoom-out clip: the float32 trainer's loss
        # stays within 1% of the same run's in float64
        frames = synth_sequence("zoom_out", 96, 64, 6, velocity=(2, 0), seed=5)
        ctx = SetContext(cols=3, rows=2, start_frame=0, span=len(frames))
        coords = [BlockCoord(bx, by) for by in range(2) for bx in range(3)]
        x = np.array([gnn_input(ctx, c, f) for f in range(len(frames)) for c in coords])
        t = np.array([block_to_targets(extract_block(frame, c))
                      for frame in frames for c in coords])
        cfg = TrainConfig(steps=100, seed=4)
        want = loss(train_oracle(DEFAULT_ARCH, x, t, cfg, np.float64), x, t)
        assert loss(train(DEFAULT_ARCH, x, t, cfg), x, t) <= 1.01 * want

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train((3, 8, 1536), np.zeros((0, 3)), np.zeros((0, 1536)), TrainConfig())

    def test_mismatched_batch_rejected(self):
        with pytest.raises(ValueError):
            train((3, 8, 1536), np.zeros((2, 3)), np.zeros((3, 1536)), TrainConfig())

    def test_large_dataset_minibatch_path_is_deterministic(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(0, 1, (1100, 3))
        t = rng.uniform(0, 1, (1100, 1536))
        cfg = TrainConfig(steps=3)
        a = train((3, 4, 1536), x, t, cfg)
        b = train((3, 4, 1536), x, t, cfg)
        for (wa, _), (wb, _) in zip(a, b):
            assert np.array_equal(wa, wb)


# (layer sizes, rows, steps): the default net on one full batch; the
# minibatch path over 2,100 rows, two batches an epoch with a 52-row tail
# dropped and a reshuffle before steps 3 and 5; a one-unit hidden layer,
# whose unit and many outputs sit at exactly 0 for some rows; no steps.
ORACLE_CASES = [
    (DEFAULT_ARCH, 64, 30),
    ((3, 4, 1536), 2100, 5),
    ((3, 1, 1536), 64, 30),
    (DEFAULT_ARCH, 64, 0),
]


class TestTrainerMatchesOracle:
    """train and backward equal their plain-form oracles to the byte."""

    def dataset(self, n):
        rng = np.random.default_rng(n)
        return rng.uniform(0, 1, (n, 3)), rng.uniform(0, 1, (n, 1536))

    @pytest.mark.parametrize("arch, n, steps", ORACLE_CASES)
    def test_weights_equal_the_oracle(self, arch, n, steps):
        x, t = self.dataset(n)
        x0, t0 = x.copy(), t.copy()
        cfg = TrainConfig(steps=steps, seed=8)
        got = trained_float32(train(arch, x, t, cfg))
        assert params_bytes(got) == params_bytes(train_oracle(arch, x, t, cfg))
        assert np.array_equal(x, x0) and np.array_equal(t, t0)

    @pytest.mark.parametrize("arch, n, steps", ORACLE_CASES)
    def test_gradients_equal_the_oracle(self, arch, n, steps):
        x, t = self.dataset(n)
        trained = train_oracle(arch, x, t, TrainConfig(steps=steps, seed=8))
        for params in (init_params(arch, seed=8), trained):
            assert_gradients_equal_the_oracle(params, x, t)

    def test_one_unit_case_has_dead_units(self):
        arch, n, steps = ORACLE_CASES[2]
        x, t = self.dataset(n)
        params = train_oracle(arch, x, t, TrainConfig(steps=steps, seed=8))
        hidden = forward(params[:1], x)
        assert np.any(hidden == 0.0) and np.any(hidden > 0.0)
        assert np.any(forward(params, x) == 0.0)


# (layer sizes, rows, steps, input spread) for the two-thread step: where
# train pins BLAS to one thread and the check passes, the worker takes the
# output layer's first product_cut(n) rows, so one and three rows leave it
# none and 577 split unevenly, and 2,100 rows take the minibatch path,
# whose 1,024-row batches split at 504; backward keeps the product whole;
# the 3-1536 net's output layer is also its first, so the product reads
# the inputs themselves. Inputs spread over [0, 40) kill the output units
# whose weights are all negative on every row and others on some rows, so
# the output error holds signed zeros.
THREAD_CASES = [
    (DEFAULT_ARCH, 1, 20, 1.0),
    (DEFAULT_ARCH, 3, 20, 1.0),
    (DEFAULT_ARCH, 577, 8, 1.0),
    (DEFAULT_ARCH, 2100, 4, 1.0),
    ((3, 1536), 64, 30, 1.0),
    ((3, 1536), 64, 30, 40.0),
    (DEFAULT_ARCH, 64, 30, 40.0),
]

# Prints the sha256 of the pinned trained parameter set.
TRAIN_SCRIPT = """
from test_golden import trained_params_sha256
print(trained_params_sha256())
"""


# Rows about each cut of the forward product: under 48 it stays whole,
# 48 and 49 cut at 24, 96 at 48, 575 to 577 at 288, and 1,025 rows train
# in 1,024-row minibatches cut at 504 (a naive n // 2 cut, 512, changes
# bits on OpenBLAS's Haswell kernels).
CUT_ROWS = [1, 23, 47, 48, 49, 96, 575, 576, 577, 1025]

ONE_BLAS_THREAD = dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def cut_case_equal(n: int) -> bool:
    """Whether train and backward equal their oracles to the byte on n rows
    of the default net: backward in float32 and float64, before and after
    3 steps, on at most one minibatch."""
    rng = np.random.default_rng(n)
    x, t = rng.uniform(0, 1, (n, 3)), rng.uniform(0, 1, (n, 1536))
    cfg = TrainConfig(steps=3, seed=4)
    want = train_oracle(DEFAULT_ARCH, x, t, cfg)
    if params_bytes(trained_float32(train(DEFAULT_ARCH, x, t, cfg))) != params_bytes(want):
        return False
    batch = x[:BATCH_SIZE], t[:BATCH_SIZE]
    for params in (init_params(DEFAULT_ARCH, seed=4), want):
        for typed in (cast(params, np.float32), cast(params, np.float64)):
            if params_bytes(backward(typed, *batch)) != params_bytes(
                    backward_oracle(typed, *batch)):
                return False
    return True


def cuts_taken(n: int) -> tuple[int, int]:
    """The rows of an n-row output product of the default net that the
    worker computes in one train step and in backward."""
    cuts = []
    real = nbv.gnn._backward

    def spy(*args):
        cuts.append(args[1])
        return real(*args)

    nbv.gnn._backward = spy
    try:
        x, t = np.zeros((n, 3)), np.zeros((n, 1536))
        train(DEFAULT_ARCH, x, t, TrainConfig(steps=1))
        backward(init_params(DEFAULT_ARCH, seed=0), x, t)
    finally:
        nbv.gnn._backward = real
    return cuts[0], cuts[1]


# Prints the CUT_ROWS counts at which cut_case_equal fails, whether the
# trainer reaches OpenBLAS's thread count, and the cuts train and backward
# take of a 576-row float32 product.
CUT_SCRIPT = """
import json
import nbv.gnn
from test_gnn import CUT_ROWS, cut_case_equal, cuts_taken
print(json.dumps({"failed": [n for n in CUT_ROWS if not cut_case_equal(n)],
                  "pinned": nbv.gnn._openblas() is not None,
                  "cuts": cuts_taken(576)}))
"""

# Prints whether the check passes cuts of 8 and 288 of 576 rows and of
# 512 of 1,024 rows, with BLAS pinned as train pins it, or null where the
# trainer cannot reach OpenBLAS's thread count.
CHECK_SCRIPT = """
import json
import numpy as np
from nbv.gnn import cut_keeps_bits, one_blas_thread
with one_blas_thread() as pinned:
    kept = [cut_keeps_bits(n, 1536, 60, np.dtype(np.float32), cut)
            for n, cut in ((576, 8), (576, 288), (1024, 512))]
print(json.dumps(kept if pinned else None))
"""


def subprocess_env(**extra) -> dict:
    """This environment, with the package and these tests on the path."""
    here = Path(__file__).resolve().parent
    src = str(Path(nbv.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join((src, str(here))), **extra)


class TestTwoThreadTrainer:
    """The two-thread step equals the plain-form oracles to the byte, and
    train leaves no thread behind."""

    def dataset(self, n, spread):
        rng = np.random.default_rng(n)
        return rng.uniform(0, spread, (n, 3)), rng.uniform(0, 1, (n, 1536))

    @pytest.mark.parametrize("arch, n, steps, spread", THREAD_CASES)
    def test_weights_equal_the_oracle(self, arch, n, steps, spread):
        x, t = self.dataset(n, spread)
        cfg = TrainConfig(steps=steps, seed=3)
        got = trained_float32(train(arch, x, t, cfg))
        assert params_bytes(got) == params_bytes(train_oracle(arch, x, t, cfg))

    @pytest.mark.parametrize("arch, n, steps, spread", THREAD_CASES)
    def test_gradients_equal_the_oracle(self, arch, n, steps, spread):
        x, t = self.dataset(n, spread)
        trained = train_oracle(arch, x, t, TrainConfig(steps=steps, seed=3))
        for params in (init_params(arch, seed=3), trained):
            assert_gradients_equal_the_oracle(params, x, t)

    @pytest.mark.parametrize("arch", [(3, 1536), DEFAULT_ARCH])
    def test_wide_inputs_kill_output_units(self, arch):
        x, t = self.dataset(64, 40.0)
        out = forward(init_params(arch, seed=3), x)
        assert np.any(np.all(out == 0.0, axis=0))
        partly = np.any(out == 0.0, axis=0) & np.any(out > 0.0, axis=0)
        assert np.any(partly)

    def test_no_thread_outlives_train(self):
        x, t = self.dataset(64, 1.0)
        before = threading.active_count()
        train((3, 8, 1536), x, t, TrainConfig(steps=3))
        backward(init_params((3, 8, 1536), seed=0), x, t)
        assert threading.active_count() == before

    @pytest.mark.parametrize("on_worker", [True, False])
    def test_no_thread_outlives_a_failed_step(self, monkeypatch, on_worker):
        real = nbv.gnn._output_delta

        def failing(*args):
            if (threading.current_thread() is threading.main_thread()) != on_worker:
                raise RuntimeError("step failed")
            real(*args)

        monkeypatch.setattr(nbv.gnn, "_output_delta", failing)
        x, t = self.dataset(64, 1.0)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="step failed"):
            train((3, 8, 1536), x, t, TrainConfig(steps=3))
        assert threading.active_count() == before

    def test_concurrent_trainers_equal_the_oracle(self):
        # three trainers at once, six threads on the machine's cores, with
        # the interpreter switching threads as often as it can
        x, t = self.dataset(65, 1.0)
        cfg = TrainConfig(steps=10, seed=5)
        want = params_bytes(train_oracle((3, 8, 1536), x, t, cfg))
        results = [None] * 3

        def run(i):
            results[i] = params_bytes(trained_float32(train((3, 8, 1536), x, t, cfg)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert results == [want] * 3

    def test_cut_falls_on_a_multiple_of_24_rows(self):
        for n in range(1, 2000):
            cut = product_cut(n)
            assert cut % 24 == 0 and (cut == 0 or min(cut, n - cut) >= 24)
            assert (cut == 0) == (n < 48) and n - cut - cut < 48
        assert [product_cut(n) for n in (47, 48, 96, 576, 1024)] == [0, 24, 48, 288, 504]

    @pytest.mark.parametrize("n", CUT_ROWS)
    def test_rows_about_each_cut_equal_the_oracle(self, n):
        assert cut_case_equal(n)

    @pytest.mark.parametrize("coretype, threads", [
        (None, "1"), ("Haswell", "1"), ("Sandybridge", "1"), ("Nehalem", "1"),
        ("Prescott", "1"), ("Haswell", "2")])
    def test_rows_about_each_cut_equal_the_oracle_on_other_kernels(self, coretype, threads):
        # Haswell keeps the whole product's bits only at cuts on multiples
        # of 24 rows; Sandybridge, Nehalem and Prescott have no FMA. With
        # two BLAS threads the Haswell kernels' whole product changes bits
        # with the thread count: train pins BLAS to one thread and cuts
        # there, while backward, which does not pin, keeps it whole.
        env = subprocess_env(**dict.fromkeys(ONE_BLAS_THREAD, threads))
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        out = subprocess.run([sys.executable, "-c", CUT_SCRIPT], env=env,
                             capture_output=True, text=True, check=True, timeout=600)
        got = json.loads(out.stdout)
        assert got["failed"] == []
        # a BLAS the trainer cannot pin keeps products whole
        assert got["cuts"] == [288 if got["pinned"] else 0, 0]

    def test_check_refuses_cuts_off_24_rows_on_haswell(self):
        env = subprocess_env(OPENBLAS_CORETYPE="Haswell", **ONE_BLAS_THREAD)
        out = subprocess.run([sys.executable, "-c", CHECK_SCRIPT], env=env,
                             capture_output=True, text=True, check=True, timeout=600)
        kept = json.loads(out.stdout)
        if kept is None:
            pytest.skip("numpy's BLAS is no OpenBLAS this module can reach")
        assert kept == [False, True, False]

    def test_train_equals_the_oracle_where_the_check_refuses(self, monkeypatch):
        monkeypatch.setattr(nbv.gnn, "cut_keeps_bits", lambda *key: False)
        assert cuts_taken(577) == (0, 0)
        x, t = self.dataset(577, 1.0)
        cfg = TrainConfig(steps=8, seed=3)
        got = trained_float32(train(DEFAULT_ARCH, x, t, cfg))
        assert params_bytes(got) == params_bytes(train_oracle(DEFAULT_ARCH, x, t, cfg))

    @staticmethod
    def fake_openblas(monkeypatch, threads):
        """Stand a fake OpenBLAS handle with threads threads in for the real
        one; returns the list of counts it is pinned to. The check gets a
        fresh cache meanwhile, since the fake pins no real BLAS."""
        state = {"threads": threads}
        pins = []

        def pin(n):
            pins.append(n)
            state["threads"] = n

        monkeypatch.setattr(nbv.gnn, "_openblas", lambda: (lambda: state["threads"], pin))
        monkeypatch.setattr(nbv.gnn, "cut_keeps_bits",
                            functools.cache(nbv.gnn.cut_keeps_bits.__wrapped__))
        return pins

    @staticmethod
    def blas_threads():
        """The thread count the (fake) OpenBLAS handle reports."""
        return nbv.gnn._openblas()[0]()

    def test_train_pins_blas_to_one_thread_and_restores_the_count(self, monkeypatch):
        pins = self.fake_openblas(monkeypatch, 3)
        seen = []
        real = nbv.gnn._output_delta

        def spy(*args):
            seen.append(self.blas_threads())
            real(*args)

        monkeypatch.setattr(nbv.gnn, "_output_delta", spy)
        x, t = self.dataset(64, 1.0)
        train((3, 8, 1536), x, t, TrainConfig(steps=2))
        assert set(seen) == {1} and pins == [1, 3]
        assert self.blas_threads() == 3

    def test_overlapping_pins_share_one(self, monkeypatch):
        pins = self.fake_openblas(monkeypatch, 2)
        inside = threading.Barrier(3)
        states = []

        def run():
            with one_blas_thread() as pinned:
                inside.wait(timeout=60)  # all three open at once
                states.append((pinned, self.blas_threads()))
                inside.wait(timeout=60)

        threads = [threading.Thread(target=run) for _ in range(3)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert states == [(True, 1)] * 3
        assert pins == [1, 2] and self.blas_threads() == 2

    def test_pin_holds_under_contention(self, monkeypatch):
        # six threads on the machine's cores open and close pins as fast
        # as the interpreter switches: a lost count would restore the
        # thread count while another block is still open
        pins = self.fake_openblas(monkeypatch, 4)
        unpinned = []

        def run():
            for _ in range(1000):
                with one_blas_thread():
                    if self.blas_threads() != 1:
                        unpinned.append(self.blas_threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run) for _ in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert unpinned == [] and self.blas_threads() == 4
        assert pins and pins == [1, 4] * (len(pins) // 2)

    def test_pin_restores_the_count_when_train_fails(self, monkeypatch):
        pins = self.fake_openblas(monkeypatch, 2)
        monkeypatch.setattr(nbv.gnn, "_output_delta", lambda *args: 1 / 0)
        x, t = self.dataset(64, 1.0)
        with pytest.raises(ZeroDivisionError):
            train((3, 8, 1536), x, t, TrainConfig(steps=2))
        assert pins == [1, 2]

    def test_train_runs_where_blas_cannot_be_pinned(self, monkeypatch):
        monkeypatch.setattr(nbv.gnn, "_openblas", lambda: None)
        with one_blas_thread() as pinned:
            assert pinned is False
        assert cuts_taken(577) == (0, 0)
        x, t = self.dataset(64, 1.0)
        cfg = TrainConfig(steps=3, seed=5)
        got = trained_float32(train((3, 8, 1536), x, t, cfg))
        assert params_bytes(got) == params_bytes(plain_train((3, 8, 1536), x, t, cfg))

    def test_train_restores_the_real_blas_count(self):
        lib = nbv.gnn._openblas()
        if lib is None:
            pytest.skip("numpy's BLAS is no OpenBLAS this module can reach")
        threads, pin = lib
        before = threads()
        x, t = self.dataset(64, 1.0)
        try:
            pin(2)
            train((3, 8, 1536), x, t, TrainConfig(steps=2))
            assert threads() == 2
        finally:
            pin(before)

    def test_trained_set_does_not_depend_on_blas_threads(self):
        runs = {}
        for threads in ("1", "2"):
            env = subprocess_env(**dict.fromkeys(ONE_BLAS_THREAD, threads))
            out = subprocess.run([sys.executable, "-c", TRAIN_SCRIPT], env=env,
                                 capture_output=True, text=True, check=True, timeout=600)
            runs[threads] = out.stdout.split()
        assert runs["1"] == runs["2"] == [TRAINED_GOLDEN]


class TestQuantization:
    def test_scale_is_max_abs_over_range(self):
        params = [(np.array([[-1.0, 0.5]]), np.array([0.25]))]
        q = quantize_params(params)
        layer = q.layers[0]
        assert layer.scale == np.float32(1.0 / QUANT_MAX)
        assert layer.weights[0, 0] == -QUANT_MAX
        deq = dequantize_params(q)[0]
        assert abs(deq[0][0, 1] - 0.5) <= float(layer.scale) / 2
        assert abs(deq[1][0] - 0.25) <= float(layer.scale) / 2

    def test_levels_stay_in_signed_10bit_range(self):
        params = init_params(DEFAULT_ARCH, seed=11)
        q = quantize_params(params)
        for layer in q.layers:
            assert layer.weights.min() >= -QUANT_MAX
            assert layer.weights.max() <= QUANT_MAX
            assert layer.biases.min() >= -QUANT_MAX

    def test_round_trip_error_bound(self):
        params = init_params((3, 25, 1536), seed=12)
        q = quantize_params(params)
        deq = dequantize_params(q)
        for (w, b), (dw, db), layer in zip(params, deq, q.layers):
            half = float(layer.scale) / 2 + 1e-12
            assert np.max(np.abs(w - dw)) <= half
            assert np.max(np.abs(b - db)) <= half

    def test_all_zero_layer_gets_unit_scale(self):
        params = [(np.zeros((2, 3)), np.zeros(2))]
        q = quantize_params(params)
        assert q.layers[0].scale == np.float32(1.0)
        assert np.all(q.layers[0].weights == 0)

    def test_layer_sizes_recovered_from_shapes(self):
        q = quantize_params(init_params(DEFAULT_ARCH, seed=13))
        assert q.layer_sizes == DEFAULT_ARCH

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            quantize_params([(np.array([[np.inf]]), np.array([0.0]))])


class TestCoordinates:
    def test_corner_blocks_span_unit_square(self):
        ctx = SetContext(cols=120, rows=68, start_frame=0, span=16)
        assert np.allclose(gnn_input(ctx, BlockCoord(0, 0), 0), [0.0, 0.0, 0.0])
        v = gnn_input(ctx, BlockCoord(119, 67), 15)
        assert np.allclose(v, [1.0, 1.0, 1.0])

    def test_single_column_grid_pins_axis_to_zero(self):
        ctx = SetContext(cols=1, rows=2, start_frame=0, span=2)
        assert gnn_input(ctx, BlockCoord(0, 1), 0)[0] == 0.0
        assert gnn_input(ctx, BlockCoord(0, 1), 0)[1] == 1.0

    def test_time_axis_is_set_relative(self):
        ctx = SetContext(cols=2, rows=2, start_frame=32, span=16)
        assert gnn_input(ctx, BlockCoord(0, 0), 32)[2] == 0.0
        assert gnn_input(ctx, BlockCoord(0, 0), 47)[2] == 1.0

    def test_single_frame_span_pins_time_to_zero(self):
        ctx = SetContext(cols=2, rows=2, start_frame=5, span=1)
        assert gnn_input(ctx, BlockCoord(1, 1), 5)[2] == 0.0


class TestBlockMapping:
    def test_target_layout_is_luma_then_chroma(self):
        blk = uniform_block(0)
        blk.y[0, 0] = 255
        blk.cb[0, 0] = 255
        blk.cr[0, 0] = 255
        t = block_to_targets(blk)
        assert t.shape == (1536,)
        assert t[0] == 1.0 and t[1024] == 1.0 and t[1280] == 1.0
        assert np.count_nonzero(t) == 3

    def test_outputs_round_and_clamp(self):
        out = np.zeros(1536)
        out[0] = 0.5  # 127.5 rounds away from zero
        out[1] = 2.0  # clamps high
        out[2] = -0.5  # clamps low
        blk = outputs_to_block(out)
        assert blk.y[0, 0] == 128 and blk.y[0, 1] == 255 and blk.y[0, 2] == 0

    def test_outputs_shape_checked(self):
        with pytest.raises(ValueError):
            outputs_to_block(np.zeros(1535))

    def test_round_trip_through_target_and_output_maps(self):
        rng = np.random.default_rng(14)
        blk = Block32(
            rng.integers(0, 256, (32, 32), dtype=np.uint8),
            rng.integers(0, 256, (16, 16), dtype=np.uint8),
            rng.integers(0, 256, (16, 16), dtype=np.uint8),
        )
        back = outputs_to_block(block_to_targets(blk))
        assert np.array_equal(back.y, blk.y)
        assert np.array_equal(back.cb, blk.cb)
        assert np.array_equal(back.cr, blk.cr)


class TestGenerateBlock:
    def test_matches_manual_pipeline(self):
        ctx = SetContext(cols=3, rows=2, start_frame=0, span=4)
        q = quantize_params(init_params((3, 8, 1536), seed=15))
        c = BlockCoord(2, 1)
        want = outputs_to_block(forward(dequantize_params(q), gnn_input(ctx, c, 3)))
        got = generate_block(q, c, 3, ctx)
        assert np.array_equal(got.y, want.y)
        assert np.array_equal(got.cb, want.cb)
        assert np.array_equal(got.cr, want.cr)

    def test_set_is_dequantized_once(self):
        ctx = SetContext(cols=4, rows=3, start_frame=0, span=4)
        q = quantize_params(init_params((3, 25, 40, 1536), seed=17))
        first = q.dequantized
        for bx, by, t in ((0, 0, 0), (3, 2, 3), (1, 2, 1)):
            c = BlockCoord(bx, by)
            want = outputs_to_block(forward(dequantize_params(q), gnn_input(ctx, c, t)))
            got = generate_block(q, c, t, ctx)
            for g, w in ((got.y, want.y), (got.cb, want.cb), (got.cr, want.cr)):
                assert np.array_equal(g, w)
        assert q.dequantized is first
        for (w, b), (w0, b0) in zip(first, dequantize_params(q)):
            assert w.tobytes() == w0.tobytes() and b.tobytes() == b0.tobytes()
            assert not w.flags.writeable and not b.flags.writeable

    def test_coordinate_arrays_match_per_block_calls(self):
        ctx = SetContext(cols=5, rows=3, start_frame=2, span=6)
        q = quantize_params(init_params(DEFAULT_ARCH, seed=18))
        by, bx = np.indices((3, 5))
        grid = np.stack([bx, by], axis=-1)
        for coords in (grid, grid.reshape(-1, 2)[::-2]):
            got = generate_block(q, coords, 4, ctx)
            blocks = [generate_block(q, BlockCoord(*c), 4, ctx)
                      for c in coords.reshape(-1, 2).tolist()]
            for name in ("y", "cb", "cr"):
                want = np.stack([getattr(b, name) for b in blocks])
                assert np.array_equal(getattr(got, name), want.reshape(
                    coords.shape[:-1] + want.shape[1:]))

    def test_decoder_calls_the_generator_once_per_generating_frame(self, monkeypatch):
        stream, period = forced_stream()
        calls = []

        def spy(qparams, c, frame_idx, ctx):
            calls.append(frame_idx)
            return generate_block(qparams, c, frame_idx, ctx)

        monkeypatch.setattr("nbv.decoder.generate_block", spy)
        _, report = nbv.decoder.decode_sequence(stream)
        assert calls == [r.frame for r in report.rows if r.n_gen] == [0, 1, 2]

    def test_pure_function(self):
        ctx = SetContext(cols=2, rows=2, start_frame=0, span=2)
        q = quantize_params(init_params((3, 4, 1536), seed=16))
        a = generate_block(q, BlockCoord(0, 0), 1, ctx)
        b = generate_block(q, BlockCoord(0, 0), 1, ctx)
        assert np.array_equal(a.y, b.y)
