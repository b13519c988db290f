import base64

import numpy as np
import pytest

from divgan.autodiff import evaluate_with_gradients, finite_diff_gradient


def gradcheck(f, inputs, h=1e-5, rtol=1e-4, atol=1e-8):
    """Compare reverse-mode gradients against the central-difference oracle.

    `f` maps Vars to a scalar Var; the finite-difference side re-evaluates
    through the same function on plain arrays via evaluate_with_gradients'
    forward pass, keeping the oracle independent of the backward pass.
    """
    inputs = [np.asarray(x, dtype=np.float64) for x in inputs]
    _, grads = evaluate_with_gradients(f, inputs)
    for i, x in enumerate(inputs):
        def scalar(xi, i=i):
            probe = [a.copy() for a in inputs]
            probe[i] = xi
            value, _ = evaluate_with_gradients(f, probe)
            return value

        fd = finite_diff_gradient(scalar, x, h=h)
        scale = np.maximum(np.abs(fd), 1.0)
        err = np.max(np.abs(grads[i] - fd) / scale)
        assert err <= rtol + atol, f"input {i}: max relative error {err:.3e}"
    return grads


def edit_vector(doc, network, key, edit):
    """Replace the vector doc[network][key] of a version 2 checkpoint doc
    (base64 of little-endian float64 bytes) with edit(vector)."""
    vector = np.frombuffer(base64.b64decode(doc[network][key], validate=True), "<f8").copy()
    doc[network][key] = base64.b64encode(np.asarray(edit(vector), "<f8").tobytes()).decode()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
