"""Backward-pass checks: analytic gradients against central finite differences."""

import numpy as np
import pytest

from gradcheck import grad_check

from volsynth import autodiff as ad
from volsynth.autodiff import Tensor


def test_sum_loss_gives_ones():
    x = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
    grads = ad.backward(ad.tsum(x), {"x": x})
    assert np.array_equal(grads["x"], np.ones((3, 4)))


def test_sigmoid_derivative_at_zero():
    w = Tensor(np.zeros(()), requires_grad=True)
    grads = ad.backward(ad.sigmoid(w), {"w": w})
    assert grads["w"] == pytest.approx(0.25)


def test_backward_requires_scalar_loss(rng):
    x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    with pytest.raises(ad.GraphError):
        ad.tsum(x, axis=0).backward()


def test_unreachable_parameter_gets_zero_gradient(rng):
    x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    orphan = Tensor(rng.normal(size=3), requires_grad=True)
    grads = ad.backward(ad.tsum(x), {"x": x, "orphan": orphan})
    assert np.array_equal(grads["orphan"], np.zeros(3))


@pytest.mark.parametrize("loss", [Tensor(2.0), Tensor(np.ones(1)),
                                  Tensor(3.0, requires_grad=True).detach()])
def test_a_constant_loss_with_no_graph_is_refused(rng, loss):
    """A loss cut from every parameter would otherwise train on zero gradients."""
    w = Tensor(rng.normal(size=3), requires_grad=True)
    with pytest.raises(ad.GraphError, match="constant with no graph"):
        ad.backward(loss, {"w": w})


def test_a_parameter_as_its_own_loss_gets_ones():
    w = Tensor(np.array([0.5]), requires_grad=True)
    assert np.array_equal(ad.backward(w, {"w": w})["w"], [1.0])


def test_gradient_accumulates_across_paths(rng):
    x = Tensor(rng.normal(size=4), requires_grad=True)
    loss = ad.tsum(ad.add(x, x))
    grads = ad.backward(loss, {"x": x})
    assert np.allclose(grads["x"], 2.0)


class TestOpGradients:
    """Every differentiable op against finite differences (64-bit, step 1e-5)."""

    def check(self, build, params, tol=1e-4):
        report = grad_check(build, params, tolerance=tol)
        assert report.passed, str(report)

    def test_conv3d(self, rng):
        params = {
            "x": Tensor(rng.normal(size=(2, 3, 6, 6, 6)), requires_grad=True),
            "k": Tensor(0.3 * rng.normal(size=(4, 3, 4, 4, 4)), requires_grad=True),
            "b": Tensor(0.1 * rng.normal(size=4), requires_grad=True),
        }
        probe = rng.normal(size=(2, 4, 3, 3, 3))
        self.check(lambda p: ad.tsum(ad.conv3d(p["x"], p["k"], p["b"], 2, 1) * Tensor(probe)),
                   params)

    def test_conv3d_odd_dims(self, rng):
        params = {
            "x": Tensor(rng.normal(size=(1, 2, 7, 5, 5)), requires_grad=True),
            "k": Tensor(0.3 * rng.normal(size=(3, 2, 4, 4, 4)), requires_grad=True),
        }
        spatial = ad.conv3d_output_dims((7, 5, 5), (4, 4, 4), 2, 1)
        probe = rng.normal(size=(1, 3) + spatial)
        self.check(lambda p: ad.tsum(ad.conv3d(p["x"], p["k"], None, 2, 1) * Tensor(probe)),
                   params)

    def test_conv3d_transpose(self, rng):
        params = {
            "x": Tensor(rng.normal(size=(2, 4, 3, 3, 3)), requires_grad=True),
            "k": Tensor(0.3 * rng.normal(size=(4, 3, 4, 4, 4)), requires_grad=True),
            "b": Tensor(0.1 * rng.normal(size=3), requires_grad=True),
        }
        probe = rng.normal(size=(2, 3, 6, 6, 6))
        self.check(lambda p: ad.tsum(
            ad.conv3d_transpose(p["x"], p["k"], p["b"], 2, 1) * Tensor(probe)), params)

    def test_conv3d_transpose_with_override(self, rng):
        params = {
            "x": Tensor(rng.normal(size=(1, 2, 5, 5, 5)), requires_grad=True),
            "k": Tensor(0.3 * rng.normal(size=(2, 2, 4, 4, 4)), requires_grad=True),
        }
        probe = rng.normal(size=(1, 2, 9, 9, 9))
        self.check(lambda p: ad.tsum(
            ad.conv3d_transpose(p["x"], p["k"], None, 2, 1, output_dims=(9, 9, 9))
            * Tensor(probe)), params)

    def test_conv3d_transpose_uneven_parity(self, rng):
        params = {
            "x": Tensor(rng.normal(size=(1, 2, 4, 4, 4)), requires_grad=True),
            "k": Tensor(0.3 * rng.normal(size=(2, 2, 3, 3, 3)), requires_grad=True),
        }
        spatial = ad.conv3d_transpose_output_dims((4, 4, 4), (3, 3, 3), 2, 1)
        probe = rng.normal(size=(1, 2) + spatial)
        self.check(lambda p: ad.tsum(
            ad.conv3d_transpose(p["x"], p["k"], None, 2, 1) * Tensor(probe)), params)

    def test_batchnorm_training(self, rng):
        params = {
            "x": Tensor(rng.normal(size=(3, 2, 4, 4, 4)), requires_grad=True),
            "g": Tensor(np.array([1.3, 0.7]), requires_grad=True),
            "b": Tensor(np.array([0.1, -0.2]), requires_grad=True),
        }
        probe = rng.normal(size=(3, 2, 4, 4, 4))

        def build(p):
            state = ad.BatchNormState(2)
            return ad.tsum(ad.batchnorm3d(p["x"], p["g"], p["b"], state, True) * Tensor(probe))

        self.check(build, params)

    def test_batchnorm_inference(self, rng):
        state = ad.BatchNormState(2)
        state.running_mean = rng.normal(size=2)
        state.running_var = rng.uniform(0.5, 2.0, size=2)
        params = {
            "x": Tensor(rng.normal(size=(2, 2, 3, 3, 3)), requires_grad=True),
            "g": Tensor(np.array([1.1, 0.9]), requires_grad=True),
            "b": Tensor(np.zeros(2), requires_grad=True),
        }
        probe = rng.normal(size=(2, 2, 3, 3, 3))
        self.check(lambda p: ad.tsum(
            ad.batchnorm3d(p["x"], p["g"], p["b"], state, False) * Tensor(probe)), params)

    def test_dense_and_activations(self, rng):
        params = {
            "x": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
            "w": Tensor(rng.normal(size=(4, 5)), requires_grad=True),
            "b": Tensor(rng.normal(size=5), requires_grad=True),
        }
        probe = rng.normal(size=(3, 5))
        self.check(lambda p: ad.tsum(
            ad.tanh(ad.dense(p["x"], p["w"], p["b"])) * Tensor(probe)), params)

    def test_elementwise_chain(self, rng):
        params = {"x": Tensor(rng.normal(size=(4, 4)) + 0.3, requires_grad=True)}
        self.check(lambda p: ad.tsum(ad.sigmoid(p["x"]) * ad.leaky_relu(p["x"], 0.2)),
                   params)

    def test_softmax_cross_entropy(self, rng):
        onehot = np.zeros((4, 3))
        onehot[np.arange(4), [0, 2, 1, 1]] = 1.0
        params = {"z": Tensor(rng.normal(size=(4, 3)), requires_grad=True)}
        self.check(lambda p: ad.softmax_cross_entropy(p["z"], onehot), params)

    def test_bernoulli_reconstruction(self, rng):
        target = rng.uniform(0.05, 0.95, size=(2, 1, 3, 3, 3))
        params = {"z": Tensor(rng.normal(size=(2, 1, 3, 3, 3)), requires_grad=True)}
        self.check(lambda p: ad.bernoulli_reconstruction(ad.sigmoid(p["z"]), target),
                   params)

    def test_sqrt_norm_chain(self, rng):
        params = {"x": Tensor(rng.normal(size=(3, 5)) + 2.0, requires_grad=True)}
        self.check(lambda p: ad.tmean(
            ad.power(ad.tsqrt(ad.tsum(ad.mul(p["x"], p["x"]), axis=(1,))) - 1.0, 2.0)),
            params)

    def test_narrow_and_concat(self, rng):
        params = {
            "a": Tensor(rng.normal(size=(2, 2, 3, 3, 3)), requires_grad=True),
            "b": Tensor(rng.normal(size=(2, 1, 3, 3, 3)), requires_grad=True),
        }
        probe = rng.normal(size=(2, 2, 3, 3, 3))
        self.check(lambda p: ad.tsum(
            ad.narrow(ad.concat_channels(p["a"], p["b"]), 1, 1, 2) * Tensor(probe)),
            params)


class TestGradCheckHarness:
    def test_dense_layer_within_tight_tolerance(self, rng):
        params = {
            "w": Tensor(rng.normal(size=(3, 2)), requires_grad=True),
            "b": Tensor(rng.normal(size=2), requires_grad=True),
        }
        x = rng.normal(size=(4, 3))
        report = grad_check(
            lambda p: ad.tsum(ad.tanh(ad.dense(Tensor(x), p["w"], p["b"]))), params,
            tolerance=1e-6)
        assert report.passed
        assert report.max_rel_error <= 1e-6

    def test_report_is_deterministic(self, rng):
        params = {"w": Tensor(rng.normal(size=(2, 2)), requires_grad=True)}
        build = lambda p: ad.tsum(ad.sigmoid(p["w"]))
        r1 = grad_check(build, params)
        r2 = grad_check(build, params)
        assert r1.entries[0].max_rel_error == r2.entries[0].max_rel_error

    def test_corrupted_backward_rule_is_flagged(self, rng):
        """Negative control: a wrong backward rule must fail the check."""

        def broken_tanh(a):
            out_data = np.tanh(a.data)

            def backward(g):
                a._accumulate(g * (1.0 - out_data))   # wrong derivative

            return ad._make(out_data, (a,), backward)

        params = {"w": Tensor(rng.normal(size=(3, 3)) + 0.5, requires_grad=True)}
        report = grad_check(lambda p: ad.tsum(broken_tanh(p["w"])), params)
        failures = report.failures()
        assert failures and failures[0].name == "w"
        assert failures[0].worst_index is not None
