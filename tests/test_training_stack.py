"""Layout, memory and oracle tests for the NumPy training hot path.

Covers the channel-major im2col lowering of the convolutions, the
C-contiguous layout contract of their outputs and gradients, the tape
being freed by ``backward()`` without help from the cyclic GC, the
lookup-table projection against a searchsorted oracle, the activation
streams handed to the systolic model, and chunked partial-sum binning.
"""

import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import extract_workloads
from repro.core.workloads import _activation_codes
from repro.nn import autograd as ag
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    Flatten,
    Linear,
    QuantReLU,
    Sequential,
    Tensor,
)
from repro.nn.autograd import _im2col
from repro.nn.restrict import ActivationFilter, WeightRestriction
from repro.nn.trainer import Trainer, TrainingConfig
from repro.power.binning import CHUNK, PartialSumBinner
from repro.sim.logic import int_to_bits


def nearest_value_oracle(allowed, codes):
    """The searchsorted projection: nearest allowed code, ties go down."""
    allowed = np.unique(np.asarray(allowed, dtype=np.int64))
    codes = np.asarray(codes)
    idx = np.clip(np.searchsorted(allowed, codes), 0, allowed.size - 1)
    right = allowed[idx]
    left = allowed[np.maximum(idx - 1, 0)]
    pick_left = np.abs(codes - left) <= np.abs(right - codes)
    return np.where(pick_left, left, right)


def patch_streams(codes, k, stride, pad):
    """Direct per-patch gather: value at ``(n, c, i, j, oy, ox)``."""
    n, c, h, w = codes.shape
    padded = np.pad(codes, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    out = np.empty((n, c, k, k, oh, ow), dtype=codes.dtype)
    for b, ch, i, j, oy, ox in itertools.product(
            range(n), range(c), range(k), range(k), range(oh), range(ow)):
        out[b, ch, i, j, oy, ox] = padded[b, ch, oy * stride + i,
                                          ox * stride + j]
    return out


def _nhwc(rng, shape):
    """A float32 NCHW array whose memory is NHWC-ordered."""
    n, c, h, w = shape
    data = rng.normal(0, 1, (n, h, w, c)).astype(np.float32)
    return data.transpose(0, 3, 1, 2)


class TestIm2col:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_channel_major_shape_and_content(self, stride, pad):
        rng = np.random.default_rng(0)
        x = rng.integers(-5, 6, (2, 3, 7, 6))
        cols, oh, ow = _im2col(x, 3, 3, stride, pad)
        assert cols.shape == (3 * 3 * 3, 2 * oh * ow)
        assert cols.flags.c_contiguous
        want = patch_streams(x, 3, stride, pad)
        # rows (c, i, j), columns (n, oh, ow)
        np.testing.assert_array_equal(
            cols, want.transpose(1, 2, 3, 0, 4, 5).reshape(cols.shape))


class TestConvLayout:
    @pytest.mark.parametrize("depthwise", [False, True])
    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 0)])
    def test_outputs_and_gradients_c_contiguous(self, depthwise, stride,
                                                pad):
        rng = np.random.default_rng(1)
        x = Tensor(_nhwc(rng, (2, 4, 6, 6)), requires_grad=True)
        assert not x.data.flags.c_contiguous
        if depthwise:
            w = Tensor(rng.normal(0, 1, (4, 1, 3, 3)), requires_grad=True)
            op = ag.depthwise_conv2d
        else:
            w = Tensor(rng.normal(0, 1, (5, 4, 3, 3)), requires_grad=True)
            op = ag.conv2d
        b = Tensor(rng.normal(0, 1, w.shape[0]), requires_grad=True)
        out = op(x, w, b, stride=stride, pad=pad)
        assert out.data.flags.c_contiguous
        g = Tensor(_nhwc(rng, out.shape))
        (out * g).sum().backward()
        assert x.grad.flags.c_contiguous
        assert x.grad.shape == x.shape
        assert w.grad.shape == w.shape and b.grad.shape == b.shape


class TestTapeFreed:
    def test_intermediate_dies_without_cyclic_gc(self):
        rng = np.random.default_rng(2)
        gc.disable()
        try:
            x = Tensor(rng.normal(0, 1, (2, 3, 6, 6)), requires_grad=True)
            w = Tensor(rng.normal(0, 1, (4, 3, 3, 3)), requires_grad=True)
            hidden = ag.relu(ag.conv2d(x, w, pad=1))
            ref = weakref.ref(hidden)
            loss = (hidden * hidden).mean()
            del hidden
            loss.backward()
            del loss
            assert ref() is None
            assert x.grad is not None and w.grad is not None
        finally:
            gc.enable()

    def test_training_step_leaves_no_cyclic_tensors(self):
        rng = np.random.default_rng(3)
        model = Sequential(
            Conv2d(3, 4, 3, pad=1), BatchNorm2d(4), QuantReLU(),
            DepthwiseConv2d(4, 3, pad=1), QuantReLU(), Flatten(),
            Linear(4 * 6 * 6, 3))
        model.set_weight_restriction(WeightRestriction([0, 8, -8, 64]))
        model.set_activation_filter(ActivationFilter([0, 16, 100]))
        trainer = Trainer(model, TrainingConfig(epochs=1, batch_size=4))
        x = rng.normal(0, 1, (8, 3, 6, 6)).astype(np.float32)
        y = rng.integers(0, 3, 8)
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            trainer.fit(x, y)
            gc.collect()
            leaked = [o for o in gc.garbage if isinstance(o, Tensor)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == []


class TestLutProjection:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-200, 200), min_size=1, max_size=40))
    def test_matches_searchsorted_oracle(self, allowed):
        allowed = allowed + [0]
        codes = np.arange(-300, 301)
        for projector in (WeightRestriction(allowed),
                          ActivationFilter(allowed)):
            got = projector(codes)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(
                got, nearest_value_oracle(allowed, codes))

    def test_nhwc_strided_input(self):
        rng = np.random.default_rng(4)
        allowed = [-90, -3, 0, 7, 8, 120]
        codes = rng.integers(-300, 301, (2, 5, 4, 3)).transpose(0, 3, 1, 2)
        assert not codes.flags.c_contiguous
        got = ActivationFilter(allowed)(codes)
        assert got.flags.c_contiguous and got.dtype == np.int64
        np.testing.assert_array_equal(
            got, nearest_value_oracle(allowed, codes))


class TestActivationStreams:
    def test_streams_equal_direct_patch_gather(self):
        model = Sequential(Conv2d(3, 4, 3, stride=2, pad=1), QuantReLU(),
                           DepthwiseConv2d(4, 3, pad=1), QuantReLU())
        x = np.random.default_rng(5).normal(0, 1, (2, 3, 9, 9)) \
            .astype(np.float32)
        conv_wl, dw_wl = extract_workloads(model, x, stream_cap=10 ** 6)
        conv, depthwise = model.quantized_layers()

        codes = _activation_codes(conv.last_input)
        patches = patch_streams(codes, 3, 2, 1)
        n, c, k, __, oh, ow = patches.shape
        # one stream per (c, i, j) weight row over (n, oh, ow)
        want = patches.transpose(1, 2, 3, 0, 4, 5).reshape(c * k * k, -1)
        np.testing.assert_array_equal(conv_wl.activations, want)

        codes = _activation_codes(depthwise.last_input)
        patches = patch_streams(codes, 3, 1, 1)
        n, c, k, __, oh, ow = patches.shape
        # one stream per (i, j) kernel offset over (n, c, oh, ow)
        want = patches.transpose(2, 3, 0, 1, 4, 5).reshape(k * k, -1)
        np.testing.assert_array_equal(dw_wl.activations, want)

    def test_stream_cap_keeps_leading_columns(self):
        model = Sequential(Conv2d(2, 3, 3, pad=1), QuantReLU())
        x = np.random.default_rng(6).normal(0, 1, (2, 2, 5, 5)) \
            .astype(np.float32)
        full, = extract_workloads(model, x, stream_cap=10 ** 6)
        capped, = extract_workloads(model, x, stream_cap=7)
        np.testing.assert_array_equal(capped.activations,
                                      full.activations[:, :7])


class TestChunkedAssign:
    def test_chunks_match_one_shot_assignment(self):
        rng = np.random.default_rng(7)
        observed = rng.integers(-(1 << 21), 1 << 21, 5000)
        binner = PartialSumBinner(n_bins=50, bits=22).fit(
            observed, np.random.default_rng(8))
        # Two full chunks and a ragged third one.
        values = rng.integers(-(1 << 21), 1 << 21, (2 * CHUNK + 999, 1))
        bits = int_to_bits(values.ravel(), 22).astype(np.float64)
        want = binner._nearest_bins(bits, binner._centroids)
        np.testing.assert_array_equal(binner.assign(values),
                                      want.reshape(values.shape))
