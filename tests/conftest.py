import base64

import numpy as np
import pytest

from divgan.autodiff import evaluate_with_gradients, finite_diff_gradient
from divgan.losses import generate_fakes, generator_total_loss
from divgan.nets import NetworkSpec


def gradcheck(f, inputs, h=1e-5, rtol=1e-4, atol=1e-8):
    """Compare reverse-mode gradients against the central-difference oracle.

    `f` maps Vars to a scalar Var; the finite-difference side re-evaluates
    through the same function on plain arrays via evaluate_with_gradients'
    forward pass, keeping the oracle independent of the backward pass.
    """
    inputs = [np.asarray(x, dtype=np.float64) for x in inputs]
    _, grads = evaluate_with_gradients(f, inputs)
    for i, x in enumerate(inputs):
        assert np.shape(grads[i]) == x.shape, f"input {i}: gradient of another shape"

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


def objective(batch, params_G, params_D, cfg, rng=None):
    """The generator objective on batch as a training step builds it: its
    fakes, then generator_total_loss on them. Returns (fakes, loss)."""
    fakes = generate_fakes(batch, params_G, cfg, rng)
    return fakes, generator_total_loss(fakes, params_D, cfg)


def edit_vector(doc, network, key, edit):
    """Replace the vector doc[network][key] of a version 2 checkpoint doc
    (base64 of little-endian float64 bytes) with edit(vector)."""
    vector = np.frombuffer(base64.b64decode(doc[network][key], validate=True), "<f8").copy()
    doc[network][key] = base64.b64encode(np.asarray(edit(vector), "<f8").tobytes()).decode()


def refit(doc, network, **dims):
    """Set `dims` in doc[network]'s spec ("params_G" or "params_D") and
    resize its parameter and moment vectors to match, so only the two
    networks' shapes can disagree."""
    doc[network]["spec"].update(dims)
    size = NetworkSpec.from_dict(doc[network]["spec"]).n_params
    moments = "adam_" + network[-1]
    for name, key in ((network, "vector"), (moments, "m"), (moments, "v")):
        edit_vector(doc, name, key, lambda v: np.resize(v, size))


def as_version_1(doc):
    """A version 2 checkpoint doc rewritten in the version 1 layout, which
    stored one JSON value list per weight or bias array."""
    for network, moments in (("params_G", "adam_G"), ("params_D", "adam_D")):
        spec = NetworkSpec.from_dict(doc[network]["spec"])
        for name, key, new_key in ((network, "vector", "values"), (moments, "m", "m"),
                                   (moments, "v", "v")):
            vector = np.frombuffer(base64.b64decode(doc[name].pop(key)), "<f8")
            doc[name][new_key] = [a.tolist() for a in spec.param_views(vector)]
    doc["version"] = 1
    return doc


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
