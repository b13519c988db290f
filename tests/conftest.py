import base64
import json
import tracemalloc

import numpy as np
import pytest

from divgan.autodiff import evaluate_with_gradients, finite_diff_gradient
from divgan.config import parse_run_config, to_document
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


# a version 5 checkpoint's vectors, in the order its tail holds them
VECTORS = ("params_G", "params_D", "adam_G.m", "adam_G.v", "adam_D.m", "adam_D.v")


def edit_header(blob, edit):
    """A version 5 checkpoint blob with edit applied to its header line's
    document, which is then written back with json.dumps; the tail is kept."""
    head, newline, tail = blob.partition(b"\n")
    doc = json.loads(head)
    edit(doc)
    return json.dumps(doc).encode() + newline + tail


def edit_vector(blob, name, edit):
    """A version 5 checkpoint blob with the vector at `name` (one of VECTORS)
    in its tail replaced by edit(vector), as little-endian float64 bytes."""
    head, newline, tail = blob.partition(b"\n")
    g_spec, d_spec = task_specs(parse_run_config(json.loads(head)["config"]))
    n_g, n_d = g_spec.n_params, d_spec.n_params
    sizes = dict(zip(VECTORS, (n_g, n_d, n_g, n_g, n_d, n_d)))
    start = 8 * sum(sizes[v] for v in VECTORS[:VECTORS.index(name)])
    stop = start + 8 * sizes[name]
    vector = np.frombuffer(tail[start:stop], "<f8").copy()
    return head + newline + tail[:start] + np.asarray(edit(vector), "<f8").tobytes() + tail[stop:]


def version_4_document(state):
    """The version 4 document for state, as version 4 wrote it: one JSON
    object holding each vector as base64 of its little-endian float64 bytes."""
    def b64(vector):
        return base64.b64encode(vector.astype("<f8").tobytes()).decode("ascii")

    return {
        "version": 4,
        "config": to_document(state.config),
        "params_G": b64(state.params_G.vector),
        "params_D": b64(state.params_D.vector),
        "adam_G": {"m": b64(state.adam_G.m), "v": b64(state.adam_G.v)},
        "adam_D": {"m": b64(state.adam_D.m), "v": b64(state.adam_D.v)},
        "step": state.step,
        "rng_state": state.rng.bit_generator.state,
    }


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
