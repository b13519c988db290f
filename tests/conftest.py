import base64
import tracemalloc

import numpy as np
import pytest

from divgan.autodiff import evaluate_with_gradients, finite_diff_gradient
from divgan.config import parse_run_config
from divgan.losses import generate_fakes, generator_total_loss
from divgan.training import task_specs


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


def objective(params_G, params_D, cfg, z1, z2, x=None, y=None, rng=None):
    """The generator objective on one batch as a training step builds it: its
    fakes, then generator_total_loss on them. Returns (fakes, loss)."""
    fakes = generate_fakes(params_G, cfg, z1, z2, x, y, rng)
    return fakes, generator_total_loss(fakes, params_D, cfg)


def traced_peak(fn) -> int:
    """Bytes of traced allocations by which one call of fn peaks above what
    was allocated before it."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak - before


def edit_vector(doc, name, edit):
    """Replace the vector at `name` ("params_G", or an Adam moment such as
    "adam_D.v") of a version 4 checkpoint doc (base64 of little-endian
    float64 bytes) with edit(vector)."""
    *path, key = name.split(".")
    holder = doc[path[0]] if path else doc
    vector = np.frombuffer(base64.b64decode(holder[key], validate=True), "<f8").copy()
    holder[key] = base64.b64encode(np.asarray(edit(vector), "<f8").tobytes()).decode()


def as_version_3(doc):
    """A version 4 checkpoint doc rewritten in the version 3 layout, which
    also stored each Adam state's own step count t, and a config document
    with the key g_loss_form."""
    for name in ("adam_G", "adam_D"):
        doc[name]["t"] = doc["step"]
    doc["config"]["g_loss_form"] = "non_saturating"
    doc["version"] = 3
    return doc


def as_version_2(doc):
    """A version 4 checkpoint doc rewritten in the version 2 layout: version
    3's, but with each network's spec beside its parameter vector in place of
    the config."""
    specs = task_specs(parse_run_config(doc["config"]))
    doc = as_version_3(doc)
    del doc["config"]
    for network, spec in zip(("params_G", "params_D"), specs):
        stored = {"input_dim": spec.input_dim, "hidden_dims": list(spec.hidden_dims),
                  "output_dim": spec.output_dim, "hidden_activation": spec.hidden_activation,
                  "output_activation": "linear", "init_scale": 1.0}
        doc[network] = {"spec": stored, "vector": doc[network]}
    doc["version"] = 2
    return doc


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
