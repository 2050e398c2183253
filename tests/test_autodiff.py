import math

import numpy as np
import pytest

from conftest import AdamWOutOfPlace, grad_check, mean
from tabmt import autodiff as ad
from tabmt.autodiff import Parameter, Tensor
from tabmt.optim import AdamW, cosine_schedule

RNG = np.random.default_rng(0)


def rand_param(*shape):
    return Parameter(RNG.normal(size=shape))


class TestForwardValues:
    def test_softmax_uniform(self):
        out = ad.softmax(Tensor(np.zeros(3)))
        assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3])

    def test_softmax_sums_to_one_and_shift_invariant(self):
        z = RNG.normal(size=(10, 7))
        a = ad.softmax(Tensor(z)).data
        b = ad.softmax(Tensor(z + 5.0)).data
        assert np.allclose(a.sum(axis=-1), 1.0, atol=1e-6)
        assert np.allclose(a, b, atol=1e-6)

    def test_layer_norm_constant_vector(self):
        x = Tensor(np.full((2, 8), 3.14))
        out = ad.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        assert np.allclose(out.data, 0.0, atol=1e-2)

    def test_matmul_shape(self):
        out = ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))))
        assert out.shape == (2, 4)

    def test_cross_entropy_uniform(self):
        loss, count = ad.cross_entropy_sum(Tensor(np.zeros((1, 2))), [0], [True])
        assert count == 1
        assert math.isclose(float(loss.data), math.log(2), rel_tol=1e-9)

    def test_cross_entropy_ignored(self):
        logits = Parameter(np.array([[3.0, -1.0]]))
        loss, count = ad.cross_entropy_sum(logits, [0], [False])
        assert count == 0
        assert float(loss.data) == 0.0
        loss.backward()
        assert np.allclose(logits.grad, 0.0)

    def test_cross_entropy_confident(self):
        # -log(e^10 / (e^10 + 1))
        loss, _ = ad.cross_entropy_sum(Tensor(np.array([[10.0, 0.0]])), [0], [True])
        expected = -math.log(math.exp(10) / (math.exp(10) + 1))
        assert math.isclose(float(loss.data), expected, rel_tol=1e-6)
        assert float(loss.data) == pytest.approx(4.54e-5, rel=1e-2)

    def test_dropout_identity_at_zero(self):
        x = Tensor(RNG.normal(size=(4, 4)))
        out = ad.dropout(x, 0.0, RNG, training=True)
        assert np.array_equal(out.data, x.data)

    def test_dropout_disabled_at_inference(self):
        x = Tensor(RNG.normal(size=(4, 4)))
        out = ad.dropout(x, 0.9, RNG, training=False)
        assert np.array_equal(out.data, x.data)

    def test_drop_path_rescales_kept_rows(self):
        x = Tensor(np.ones((2000, 3)))
        out = ad.drop_path(x, 0.5, np.random.default_rng(0), training=True)
        rows = out.data[:, 0]
        assert set(np.unique(rows)) == {0.0, 2.0}
        assert abs(rows.mean() - 1.0) < 0.1


class TestGradients:
    def test_sum_of_squares(self):
        w = rand_param(5)

        def f():
            return mean(ad.mul(w, w))

        assert grad_check(f, [w], h=1e-5) < 1e-8

    @pytest.mark.parametrize("op_name", [
        "matmul", "softmax", "layer_norm", "gelu", "sigmoid", "gather",
        "stack_select", "batched_matmul", "reciprocal",
    ])
    def test_each_op(self, op_name):
        w = rand_param(4, 6)
        idx = np.array([0, 2, 3, 1, 0])
        x = RNG.standard_normal((3, 4))

        def f():
            if op_name == "matmul":
                h = ad.matmul(Tensor(x), w)
            elif op_name == "softmax":
                h = ad.softmax(w)
            elif op_name == "layer_norm":
                h = ad.layer_norm(w, Tensor(np.ones(6)), Tensor(np.zeros(6)))
            elif op_name == "gelu":
                h = ad.gelu(w)
            elif op_name == "sigmoid":
                h = ad.sigmoid(w)
            elif op_name == "gather":
                h = ad.gather_rows(w, idx)
            elif op_name == "stack_select":
                h = ad.select(ad.stack([w, w], axis=1), 1, 0)
            elif op_name == "batched_matmul":
                a = ad.reshape(w, (2, 2, 6))
                h = ad.matmul(a, ad.transpose(a, (0, 2, 1)))
            elif op_name == "reciprocal":
                h = ad.reciprocal(ad.add(ad.mul(w, w), Tensor(np.ones((4, 6)))))
            return mean(ad.mul(h, h))

        rng = np.random.default_rng(42)
        assert grad_check(f, [w], h=1e-6, rng=rng) < 1e-4

    def test_corrupted_gradient_detected(self):
        w = rand_param(5)

        def f():
            return mean(ad.mul(w, w))

        for p in [w]:
            p.grad = None
        loss = f()
        loss.backward()
        w.grad = w.grad + 1.0  # deliberate corruption
        g_fd = []
        h = 1e-5
        flat = w.data
        for c in range(5):
            orig = flat[c]
            flat[c] = orig + h
            fp = float(f().data)
            flat[c] = orig - h
            fm = float(f().data)
            flat[c] = orig
            g_fd.append((fp - fm) / (2 * h))
        err = max(abs(a - b) / max(1, abs(a), abs(b))
                  for a, b in zip(w.grad, g_fd))
        assert err > 1e-2


class TestAdamW:
    def test_zero_grad_zero_decay_fixed_point(self):
        p = Parameter(np.array([1.0, -2.0]))
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        p.grad = np.zeros(2)
        opt.step()
        assert np.allclose(p.data, [1.0, -2.0])

    def test_first_step_magnitude(self):
        p = Parameter(np.array([0.0]))
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        p.grad = np.array([1.0])
        opt.step()
        # Bias-corrected first step is -lr * g / (|g| + eps) for a scalar.
        assert p.data[0] == pytest.approx(-0.1, rel=1e-6)

    def test_decoupled_decay_only(self):
        p = Parameter(np.array([2.0]))
        opt = AdamW([p], lr=0.1, weight_decay=0.01)
        for _ in range(3):
            p.grad = np.array([0.0])
            opt.step()
        assert p.data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.01) ** 3, rel=1e-9)

    def test_non_finite_gradient_errors(self):
        p = Parameter(np.array([0.0]))
        opt = AdamW([p], lr=0.1)
        p.grad = np.array([np.nan])
        with pytest.raises(FloatingPointError):
            opt.step()

    @pytest.mark.parametrize("grad", [np.ones(3), np.ones((1, 3), np.float32),
                                      np.ones(2, np.float32)],
                             ids=["float64-on-float32", "shape-1x3", "shape-2"])
    def test_mismatched_gradient_errors(self, grad):
        # An out-of-place step let a float64 gradient turn a float32
        # parameter's moments into float64.
        ok = Parameter(np.zeros(2, np.float32))
        p = Parameter(np.zeros(3, np.float32))
        opt = AdamW([ok, p], lr=0.1)
        ok.grad, p.grad = np.ones(2, np.float32), grad
        with pytest.raises(ValueError, match=r"^parameter 1: grad float"):
            opt.step()
        assert opt.m[1].dtype == np.float32

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_matches_out_of_place_step(self, dtype, weight_decay):
        shapes = [(), (5,), (4, 3), (2, 3, 4)]
        runs = []
        for cls in (AdamW, AdamWOutOfPlace):
            init = np.random.default_rng(4)
            params = [Parameter(init.normal(size=s).astype(dtype)) for s in shapes]
            opt = cls(params, lr=0.05, weight_decay=weight_decay)
            grads = np.random.default_rng(5)
            for step in range(12):
                opt.lr = 0.05 * (1 + step) / 12
                for p in params:
                    p.grad = None if step == 3 else grads.normal(size=p.data.shape).astype(dtype)
                opt.step()
            runs.append([p.data.tobytes() for p in params] + [m.tobytes() for m in opt.m]
                        + [v.tobytes() for v in opt.v])
        assert runs[0] == runs[1]


class TestCosineSchedule:
    def test_ramp_start(self):
        assert cosine_schedule(0, 100, 1000, 0.002) == 0.0

    def test_ramp_end(self):
        assert cosine_schedule(100, 100, 1000, 0.002) == pytest.approx(0.002)

    def test_final_step_zero(self):
        assert abs(cosine_schedule(1000, 100, 1000, 0.002)) < 1e-12

    def test_continuity_at_warmup(self):
        before = cosine_schedule(99, 100, 1000, 0.002)
        at = cosine_schedule(100, 100, 1000, 0.002)
        after = cosine_schedule(101, 100, 1000, 0.002)
        assert abs(at - before) < 3e-5
        assert abs(after - at) < 3e-5

    def test_bad_args(self):
        with pytest.raises(ValueError):
            cosine_schedule(2000, 100, 1000, 0.002)
        with pytest.raises(ValueError):
            cosine_schedule(0, 1000, 1000, 0.002)


class TestNoGrad:
    def test_ops_record_no_tape(self):
        w = rand_param(3, 4)
        x = Tensor(np.ones((2, 3)))
        with ad.no_grad():
            out = ad.gelu(ad.matmul(x, w))
            loss, _ = ad.cross_entropy_sum(out, [0, 1], [True, True])
        for t in (out, loss):
            assert not t.requires_grad
            assert t.node is None
        taped = ad.matmul(x, w)
        # The constant x needs no gradient, so w's node is the only parent.
        assert taped.requires_grad and taped.node.parents == (w.node,)
        assert taped.node.backward is not None

    def test_flag_restored_after_exception_and_nesting(self):
        w = rand_param(3)
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                with ad.no_grad():
                    pass
                assert not ad.scale(w, 2.0).requires_grad
                raise RuntimeError("boom")
        assert ad.scale(w, 2.0).requires_grad
