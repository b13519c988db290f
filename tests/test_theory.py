import numpy as np
import pytest

from conftest import traced_peak
from divgan import autodiff, nets, theory
from divgan.autodiff import NumericsError, jacobian
from divgan.config import parse_run_config
from divgan.nets import NetworkParams, NetworkSpec, generator_forward, mlp_init
from divgan.optim import AdamHyper
from divgan.theory import (
    attraction_check,
    bound_suite,
    path_gradient_bound,
    path_jacobians,
    pull_toward,
)
from divgan.training import task_specs


def linear_params(A):
    """Single-layer linear network computing z @ A.T (i.e. G(z) = A z)."""
    A = np.asarray(A, dtype=np.float64)
    spec = NetworkSpec(A.shape[1], (), A.shape[0])
    return NetworkParams(spec, np.concatenate([A.T.ravel(), np.zeros(A.shape[0])]))


def tanh_generator(seed=0, z_dim=2, width=24):
    return mlp_init(NetworkSpec(z_dim, (width, width), 2, hidden_activation="tanh"), seed)


def test_linear_aligned_direction_is_tight():
    rep = path_gradient_bound(linear_params(np.diag([2.0, 1.0])),
                              np.zeros(2), np.array([1.0, 0.0]), n_quad=16)
    assert rep.lhs == pytest.approx(2.0, abs=1e-12)
    assert rep.rhs == pytest.approx(2.0, abs=1e-12)
    assert rep.holds


def test_linear_misaligned_direction_is_loose():
    rep = path_gradient_bound(linear_params(np.diag([2.0, 1.0])),
                              np.zeros(2), np.array([0.0, 1.0]), n_quad=16)
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.rhs == pytest.approx(2.0, abs=1e-12)  # spectral norm stays 2


def test_bound_on_random_mlps(rng):
    for seed in range(3):
        params = tanh_generator(seed)
        for _ in range(30):
            z1 = rng.standard_normal(2)
            z2 = rng.standard_normal(2)
            rep = path_gradient_bound(params, z1, z2, n_quad=64)
            assert rep.holds, f"lhs={rep.lhs} rhs={rep.rhs}"


def test_bound_suite_counts():
    out = bound_suite(tanh_generator(5), n_pairs=25, rng=np.random.default_rng(0), z_dim=2)
    assert out["passed"] and out["violations"] == 0
    assert out["pairs"] == 25


def test_quadrature_refinement_is_stable(rng):
    params = tanh_generator(7)
    for _ in range(10):
        z1, z2 = rng.standard_normal(2), rng.standard_normal(2)
        r64 = path_gradient_bound(params, z1, z2, n_quad=64)
        r256 = path_gradient_bound(params, z1, z2, n_quad=256)
        assert abs(r64.rhs - r256.rhs) <= 1e-4 * max(r256.rhs, 1e-12)


def test_bound_validation():
    params = tanh_generator(0)
    with pytest.raises(ValueError):
        path_gradient_bound(params, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        path_gradient_bound(params, np.zeros(2), np.ones(2), n_quad=4)


@pytest.mark.parametrize("magnitude", [1e-200, 1.0, 1e200, 1e300])
@pytest.mark.parametrize("shape", [(2, 2), (2, 8), (20, 8), (8, 20)])
def test_spectral_norms_match_svd(shape, magnitude, rng):
    jac = rng.standard_normal((16,) + shape) * magnitude
    ref = np.linalg.svd(jac, compute_uv=False)[:, 0]
    norms = theory._spectral_norms(jac)
    assert np.all(np.abs(norms - ref) <= 1e-14 * ref)


def test_spectral_norm_of_a_zero_node_is_zero(rng):
    jac = rng.standard_normal((3, 20, 8))
    jac[1] = 0.0
    norms = theory._spectral_norms(jac)
    assert norms[1] == 0.0 and np.all(norms[[0, 2]] > 0.0)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
@pytest.mark.parametrize("z_dim,out_dim", [(2, 2), (8, 20)])
def test_bound_on_extreme_jacobians_has_finite_nonzero_rhs(scale, z_dim, out_dim, rng):
    """Jacobian entries whose squares overflow (1e200) or underflow
    (1e-200): a Gram matrix of the raw entries would hold inf, or only
    zeros. The latents sit ~1e-60 apart, so G's output differences and
    their squared norm stay finite."""
    params = mlp_init(NetworkSpec(z_dim, (24, 24), out_dim, hidden_activation="tanh"), 3)
    params.weights[-1][:] *= scale
    z1, z2 = 1e-60 * rng.standard_normal(z_dim), 1e-60 * rng.standard_normal(z_dim)
    jac = path_jacobians(params, z1[None], z2[None], n_quad=64)[0]
    peak = np.max(np.abs(jac))
    assert 1e-3 < peak / scale < 1e3
    with np.errstate(over="ignore"):
        assert np.isinf(peak * peak) if scale > 1 else peak * peak == 0.0
    rep = path_gradient_bound(params, z1, z2, n_quad=64)
    assert np.isfinite(rep.rhs) and rep.rhs > 0.0 and rep.holds
    ref = np.mean(np.linalg.svd(jac, compute_uv=False)[:, 0])
    assert rep.rhs == pytest.approx(ref, rel=1e-14)


# kind -> (cond_dim, hidden_dims, out_dim, activation, z_dim, n_quad), in reverse
JACOBIAN_NETS = {
    "tanh": (0, (16, 16), 2, "tanh", 3, 8),
    "conditional": (3, (16, 16), 2, "tanh", 3, 8),
    "relu": (0, (16, 16), 2, "relu", 3, 8),
    "one_hidden": (0, (16,), 2, "tanh", 3, 64),
    "three_hidden": (2, (16, 8, 12), 3, "tanh", 3, 64),
    "one_output": (0, (16, 16), 1, "tanh", 2, 64),
    "relu_fine": (0, (16, 16), 2, "relu", 2, 512),
    "trajectory_shaped": (20, (128, 128), 8, "tanh", 8, 64),  # 128 wide, out_dim = z_dim
    "one_latent": (0, (16,), 1, "relu", 1, 64),  # a matrix-vector product last
}
# and in tangent (z_dim < out_dim)
TANGENT_NETS = {
    "tanh": (0, (16, 16), 3, "tanh", 2, 8),
    "conditional": (3, (16, 16), 3, "tanh", 2, 8),
    "relu": (0, (16, 16), 3, "relu", 2, 8),
    "one_hidden": (0, (16,), 3, "tanh", 2, 64),
    "three_hidden": (2, (16, 8, 12), 4, "tanh", 3, 64),
    "relu_fine": (0, (16, 16), 3, "relu", 2, 512),
    "trajectory_shaped": (20, (128, 128), 20, "tanh", 8, 64),
    "one_latent": (0, (16,), 2, "relu", 1, 64),
    "no_hidden_wide": (1, (), 5, "tanh", 2, 8),
}


def jacobian_case(net, rng):
    """A G of one of the shapes above, its condition x, a random segment's
    nodes, path_jacobians there and the engine's: one seeded backward per
    output row of G's column sums over all nodes, as (n_quad, out_dim, z_dim)."""
    cond_dim, hidden, out_dim, act, z_dim, n_quad = net
    params = mlp_init(NetworkSpec(cond_dim + z_dim, hidden, out_dim, hidden_activation=act), 5)
    x = rng.normal(size=cond_dim) if cond_dim else None
    z1, z2 = rng.standard_normal(z_dim), rng.standard_normal(z_dim)
    jacs = path_jacobians(params, z1[None], z2[None], n_quad, x=x)
    assert jacs.shape == (1, n_quad, out_dim, z_dim) and jacs.flags.c_contiguous
    ts = (np.arange(n_quad) + 0.5) / n_quad
    gamma = ts[:, None] * z2[None, :] + (1.0 - ts)[:, None] * z1[None, :]
    xs = None if x is None else np.repeat(x[None, :], n_quad, axis=0)
    ref = jacobian(lambda v: generator_forward(params, v, xs).sum(axis=0), gamma)
    return params, x, gamma, jacs[0], ref.reshape(out_dim, n_quad, z_dim).transpose(1, 0, 2)


@pytest.mark.parametrize("kind", list(JACOBIAN_NETS))
def test_path_jacobians_match_per_row_jacobian(kind, rng):
    """In reverse, bit for bit the engine's Jacobians."""
    params, x, gamma, jacs, ref = jacobian_case(JACOBIAN_NETS[kind], rng)
    assert np.array_equal(jacs, ref) and np.array_equal(np.signbit(jacs), np.signbit(ref))
    # and each node's slice is that node's Jacobian
    node = jacobian(lambda v: generator_forward(params, v, None if x is None else x[None, :]),
                    gamma[:1])
    assert jacs[0] == pytest.approx(node, rel=1e-12, abs=1e-15)


def test_path_jacobians_turn_negative_zero_weights_into_zeros():
    """The engine's backward adds 0.0 to each first gradient, so a -0.0
    weight reaches the Jacobian as +0.0."""
    params = linear_params([[2.0, -0.0], [-0.0, 1.0]])
    jacs = path_jacobians(params, np.zeros((1, 2)), np.ones((1, 2)), n_quad=8)[0]
    assert np.array_equal(jacs, np.broadcast_to(np.diag([2.0, 1.0]), (8, 2, 2)))
    assert not np.signbit(jacs).any()


@pytest.mark.parametrize("kind", list(TANGENT_NETS))
def test_tangent_jacobians_match_engine_jacobians(kind, rng):
    """In tangent, node by node within 1e-14 of the node's largest |entry|:
    the pass sums its products in another order than the engine's backward."""
    _, _, _, jacs, ref = jacobian_case(TANGENT_NETS[kind], rng)
    err = np.max(np.abs(jacs - ref), axis=(1, 2))
    assert np.all(err <= 1e-14 * np.max(np.abs(ref), axis=(1, 2)))


def test_overflowing_tangents_are_numerics_errors():
    """z 8 -> 20 with latent 0's W0 row at 1e300: along a segment with
    latent 0 fixed at 0, G and its difference quotient stay finite while
    the Jacobian's first column overflows."""
    params = mlp_init(NetworkSpec(8, (24, 24), 20, hidden_activation="tanh"), 3)
    params.weights[0][0] *= 1e300
    params.weights[-1][:] *= 1e10
    z1, z2 = np.zeros(8), np.zeros(8)
    z1[1], z2[1] = 1.0, -1.0
    with pytest.raises(NumericsError, match="non-finite Jacobian in path_gradient_bound"):
        path_jacobians(params, z1[None], z2[None], 64)
    with pytest.raises(NumericsError, match="non-finite Jacobian in path_gradient_bound"):
        path_gradient_bound(params, z1, z2)


class CallCount:
    """Wraps a function and counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def test_bound_suite_makes_no_backward_call(monkeypatch):
    spy = CallCount(autodiff.backward)
    monkeypatch.setattr(autodiff, "backward", spy)
    monkeypatch.setattr(theory, "backward", spy)
    # z 2 -> 4 takes the tangent pass, z 3 -> 2 the reverse pass
    for z_dim, out_dim in ((2, 4), (3, 2)):
        for act in ("tanh", "relu"):
            params = mlp_init(NetworkSpec(z_dim + 1, (8, 8), out_dim, hidden_activation=act), 0)
            bound_suite(params, n_pairs=3, rng=np.random.default_rng(0), z_dim=z_dim,
                        x=np.ones(1))
    assert spy.calls == 0
    pull_toward(tanh_generator(0), np.zeros(2), np.ones(2), AdamHyper())
    assert spy.calls == 1  # the spy sees the calls theory makes


# name -> (cond_dim, z_dim, out_dim)
BOUND_SHAPES = {"ring": (0, 2, 2), "conditional_ring": (4, 8, 2), "trajectory": (4, 8, 20)}


@pytest.mark.parametrize("task", list(BOUND_SHAPES))
def test_bound_takes_the_pass_with_fewer_products(task, monkeypatch):
    """Tangent iff z_dim < out_dim (z_dim products per node against out_dim),
    seen in the order the pass takes G's hidden layers (16 then 12 wide
    forward, 12 then 16 in reverse), and in either direction two passes of G
    per pair: endpoints by `generate`, then nodes by `mlp_forward_vars`."""
    cond_dim, z_dim, out_dim = BOUND_SHAPES[task]
    params = mlp_init(NetworkSpec(cond_dim + z_dim, (16, 12), out_dim), 0)
    widths = []

    def derivative(kind, h):
        widths.append(h.shape[-1])
        return autodiff.activation_grad(kind, h)

    monkeypatch.setattr(theory, "activation_grad", derivative)
    spies = {name: CallCount(getattr(theory, name)) for name in ("generate", "mlp_forward_vars")}
    for name, spy in spies.items():
        monkeypatch.setattr(theory, name, spy)
    rng = np.random.default_rng(0)
    x = rng.normal(size=cond_dim) if cond_dim else None
    for _ in range(3):
        path_gradient_bound(params, rng.standard_normal(z_dim), rng.standard_normal(z_dim), x=x)
    assert widths == 3 * ([16, 12] if z_dim < out_dim else [12, 16])
    assert spies["generate"].calls == spies["mlp_forward_vars"].calls == 3


def per_pair_suite(params, n_pairs, rng, z_dim, x=None):
    """bound_suite one pair at a time: z1 then z2 from rng, the bound at 64
    nodes (512 for relu), and 4x the nodes for a pair whose bound fails."""
    n_quad = 512 if params.spec.hidden_activation == "relu" else 64
    violations = refined = 0
    min_slack = np.inf
    for _ in range(n_pairs):
        z1, z2 = rng.standard_normal(z_dim), rng.standard_normal(z_dim)
        rep = path_gradient_bound(params, z1, z2, n_quad=n_quad, x=x)
        if not rep.holds:
            refined += 1
            rep = path_gradient_bound(params, z1, z2, n_quad=4 * n_quad, x=x)
            violations += int(not rep.holds)
        min_slack = min(min_slack, rep.slack)
    return {"pairs": n_pairs, "n_quad": n_quad, "violations": violations, "refined": refined,
            "min_slack": float(min_slack), "passed": violations == 0}


# name -> (cond_dim, z_dim, out_dim, hidden_dims, activation)
SUITE_NETS = {
    "ring": (0, 2, 2, (128, 128), "tanh"),
    "conditional_ring": (4, 8, 2, (128, 128), "tanh"),
    "trajectory": (4, 8, 20, (128, 128), "tanh"),
    "relu": (0, 2, 2, (16, 16), "relu"),
    "relu_tangent": (1, 2, 5, (16, 16), "relu"),
}


@pytest.mark.parametrize("kind", ["ring", "conditional_ring", "trajectory", "relu"])
def test_path_gradient_bound_is_its_own_two_row_pass(kind, rng):
    """lhs from a 2-row pass of G and 1-D norms, rhs the mean node norm of
    the pair's own Jacobians: bit for bit, so that stacking pairs moved
    nothing."""
    cond_dim, z_dim, out_dim, hidden, act = SUITE_NETS[kind]
    params = mlp_init(NetworkSpec(cond_dim + z_dim, hidden, out_dim, hidden_activation=act), 4)
    x = rng.normal(size=cond_dim) if cond_dim else None
    z1, z2 = rng.standard_normal(z_dim), rng.standard_normal(z_dim)
    rep = path_gradient_bound(params, z1, z2, n_quad=64, x=x)
    ys = generator_forward(params, np.stack([z1, z2]), None if x is None else np.stack([x, x]))
    diff = ys.data[1] - ys.data[0]
    _, e = np.frexp(np.max(np.abs(diff)))
    assert rep.lhs == float(np.ldexp(np.linalg.norm(np.ldexp(diff, -e)), e)
                            / np.linalg.norm(z2 - z1))
    jac = path_jacobians(params, z1[None], z2[None], 64, x=x)[0]
    assert rep.rhs == float(np.mean(theory._spectral_norms(jac)))


@pytest.mark.parametrize("blocks", ["module", "small"])
@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("kind", list(SUITE_NETS))
def test_bound_suite_is_a_loop_of_per_pair_bounds(kind, forced, blocks, monkeypatch):
    """The same dict, and the same rng state after, as one pair at a time,
    whatever the block sizes. `forced` raises the bar so about half the pairs
    fail at first and are refined."""
    cond_dim, z_dim, out_dim, hidden, act = SUITE_NETS[kind]
    params = mlp_init(NetworkSpec(cond_dim + z_dim, hidden, out_dim, hidden_activation=act), 4)
    x = np.random.default_rng(1).normal(size=cond_dim) if cond_dim else None
    n_pairs = 11
    n_quad = 512 if act == "relu" else 64
    if forced:
        rng = np.random.default_rng(2)
        slacks = [path_gradient_bound(params, rng.standard_normal(z_dim),
                                      rng.standard_normal(z_dim), n_quad=n_quad, x=x).slack
                  for _ in range(n_pairs)]
        monkeypatch.setattr(theory, "BOUND_ATOL", -float(np.median(slacks)))
    rng_ref = np.random.default_rng(2)
    ref = per_pair_suite(params, n_pairs, rng_ref, z_dim, x)
    assert (ref["refined"] > 0) == forced and (ref["violations"] > 0) == forced
    after = rng_ref.standard_normal()
    # "small": at 8 rows, endpoint chunks of 4 pairs and one pair per
    # Jacobian block; at 8 pairs' nodes, Jacobian blocks of 8 pairs, and of
    # 2 at the refined quadrature
    row_blocks = ((8, 8 * n_quad * min(z_dim, out_dim)) if blocks == "small"
                  else (nets.ROW_BLOCK,))
    for row_block in row_blocks:
        monkeypatch.setattr(nets, "ROW_BLOCK", row_block)
        rng = np.random.default_rng(2)
        assert bound_suite(params, n_pairs, rng, z_dim=z_dim, x=x) == ref
        assert rng.standard_normal() == after


@pytest.mark.parametrize("task", list(BOUND_SHAPES))
def test_bound_suite_runs_g_once_per_block(task, monkeypatch):
    """One `generate` pass over all endpoints, then one over the nodes of
    each block of pairs, where a pass per pair would make 2 passes per pair."""
    cond_dim, z_dim, out_dim = BOUND_SHAPES[task]
    params = mlp_init(NetworkSpec(cond_dim + z_dim, (16, 16), out_dim), 0)
    ends = CallCount(theory.generate)
    node_passes = CallCount(theory.mlp_forward_vars)
    monkeypatch.setattr(theory, "generate", ends)
    monkeypatch.setattr(theory, "mlp_forward_vars", node_passes)
    rng = np.random.default_rng(0)
    x = rng.normal(size=cond_dim) if cond_dim else None
    out = bound_suite(params, n_pairs=32, rng=rng, z_dim=z_dim, x=x)
    assert out["refined"] == 0 and out["n_quad"] == 64
    blocks = -(-32 // max(1, nets.ROW_BLOCK // (64 * min(z_dim, out_dim))))
    assert ends.calls == 1 and node_passes.calls == blocks and 1 + blocks < 2 * 32


@pytest.mark.parametrize("task", ["ring", "conditional_ring", "trajectory"])
def test_bound_suite_traced_peak(task):
    """32 pairs on a task's default G peak at most 2.0 MB of traced
    allocations: 1.60, 1.67 and 1.44 MB with Jacobian blocks of ROW_BLOCK
    rows of cotangents or tangents per layer, against 3.19 and 3.32 MB on
    the ring tasks at 8 pairs per reverse block and 10.9 MB on trajectories
    at 8 pairs per tangent block."""
    cfg = parse_run_config({"task": task})
    params = mlp_init(task_specs(cfg)[0], 0)
    cond_dim = params.spec.input_dim - cfg.z_dim
    x = np.random.default_rng(1).normal(size=cond_dim) if cond_dim else None

    def check():
        bound_suite(params, 32, np.random.default_rng(0), cfg.z_dim, x)

    check()
    assert traced_peak(check) <= 2.0e6


@pytest.mark.parametrize("z_dim,passes", [(2, 6), (3, 4)])
def test_attraction_check_runs_each_generator_pass_once(z_dim, passes, monkeypatch):
    """d1 and d1_next, one pass of G_t and one of G_{t+1} over [z1; probes],
    and in 2-D one of each over [z1; grid], each a `generate` call: d1 and
    d1_next are one block each, [z1; 1100 probes] is 3 blocks (512, 512 and
    77 rows), and [z1; grid] is 8, since z1 = 0 is one of the grid's 3721
    points."""
    params = tanh_generator(1, z_dim=z_dim)
    z1, y_star = np.zeros(z_dim), np.full(2, 5.0)
    params_next = pull_toward(params, z1, y_star, AdamHyper())
    single = CallCount(theory.mlp_forward_vars)
    blocked = CallCount(theory.generate)
    blocks = CallCount(nets.generator_forward)
    monkeypatch.setattr(theory, "mlp_forward_vars", single)
    monkeypatch.setattr(theory, "generate", blocked)
    monkeypatch.setattr(nets, "generator_forward", blocks)
    attraction_check(params, params_next, z1, y_star, probes=1100, rng=np.random.default_rng(0))
    assert single.calls == 0 and blocked.calls == passes
    assert blocks.calls == 2 + 2 * 3 + (2 * 8 if z_dim == 2 else 0)


def ring_pull(seed=0):
    """A 128-wide ring G at init, the G one `pull_toward` step makes of it,
    and that step's z1 and y*."""
    params = mlp_init(task_specs(parse_run_config({"task": "ring"}))[0], seed)
    z1, y_star = np.zeros(2), np.full(2, 5.0)
    return params, pull_toward(params, z1, y_star, AdamHyper()), z1, y_star


def test_attraction_check_traced_peak():
    """20000 probes on a 128-wide ring G peak at most 5 MB of traced
    allocations: ~3.1 MB with G run in 512-row blocks, ~43 MB when each pass
    held a 20001 x 128 array per hidden layer."""
    params, params_next, z1, y_star = ring_pull()

    def check():
        attraction_check(params, params_next, z1, y_star, probes=20000,
                         rng=np.random.default_rng(0))

    check()
    assert traced_peak(check) <= 5.0e6


def test_attraction_quotients_equal_one_unblocked_pass():
    """At the default 2000 probes, the blocked passes over [z1; probes]
    give each quotient the bits of one `generator_forward` over all rows."""
    params, params_next, z1, y_star = ring_pull()
    rep = attraction_check(params, params_next, z1, y_star, probes=2000,
                           rng=np.random.default_rng(0))
    assert len(rep.z2) + 1 > nets.ROW_BLOCK
    for p, ratios in ((params, rep.ratio_t), (params_next, rep.ratio_t1)):
        ys = generator_forward(p, np.vstack([z1[None, :], rep.z2])).data
        assert np.array_equal(ratios, np.linalg.norm(ys[1:] - ys[0][None, :], axis=1) / rep.gap)


def test_relu_generator_gets_finer_default_grid():
    relu = mlp_init(NetworkSpec(2, (8,), 2, hidden_activation="relu"), 0)
    out = bound_suite(relu, n_pairs=5, rng=np.random.default_rng(1), z_dim=2)
    assert out["n_quad"] == 512
    assert out["passed"]


# -- attraction -------------------------------------------------------------


def constant_params(value, z_dim=2):
    """Zero-weight network whose output is a constant bias vector."""
    value = np.asarray(value, dtype=np.float64)
    spec = NetworkSpec(z_dim, (), value.size)
    return NetworkParams(spec, np.concatenate([np.zeros(z_dim * value.size), value]))


def test_constant_generators_attract_everywhere():
    params_t = constant_params([0.0, 0.0])
    params_t1 = constant_params([0.5, 0.0])
    rep = attraction_check(params_t, params_t1, np.zeros(2), np.array([1.0, 0.0]),
                           probes=500, rng=np.random.default_rng(0))
    assert rep.epsilon == pytest.approx(0.5)
    assert np.all(rep.ratio_t == 0.0) and np.all(rep.ratio_t1 == 0.0)
    assert np.all(rep.condition_holds)
    assert np.all(rep.attracted)  # 0.75 < 1.0 for every probe
    assert rep.counterexamples == 0
    assert np.isinf(rep.radius_estimate)


def test_identical_parameters_violate_precondition():
    params = tanh_generator(1)
    with pytest.raises(ValueError, match="epsilon"):
        attraction_check(params, params, np.zeros(2), np.ones(2),
                         probes=10, rng=np.random.default_rng(0))


def test_condition_implies_attraction_after_real_step(rng):
    hits = 0
    for seed in range(5):
        params = tanh_generator(seed)
        z1 = rng.standard_normal(2)
        y_star = rng.standard_normal(2) * 2.0
        params_next = pull_toward(params, z1, y_star, AdamHyper())
        rep = attraction_check(params, params_next, z1, y_star,
                               probes=2000, rng=rng)
        assert rep.counterexamples == 0
        hits += int(np.sum(rep.condition_holds))
    assert hits > 0  # the condition must actually fire somewhere


def test_report_records_and_summary():
    params_t = constant_params([0.0, 0.0])
    params_t1 = constant_params([0.1, 0.0])
    rep = attraction_check(params_t, params_t1, np.zeros(2), np.array([1.0, 0.0]),
                           probes=7, rng=np.random.default_rng(3))
    per_probe = (rep.z2, rep.gap, rep.ratio_t, rep.ratio_t1, rep.condition_holds, rep.attracted)
    assert all(len(a) == rep.n_probes == 7 for a in per_probe)
    s = rep.summary()
    assert s["passed"] and s["counterexamples"] == 0
    assert s["radius_estimate"] is None  # inf radius serializes as null


def test_radius_estimate_uses_grid(rng):
    params = tanh_generator(2)
    z1 = rng.standard_normal(2)
    y_star = rng.standard_normal(2)
    params_next = pull_toward(params, z1, y_star, AdamHyper(lr=1e-3))
    rep = attraction_check(params, params_next, z1, y_star, probes=3,
                           rng=np.random.default_rng(1))
    # the grid can only shrink the probes' sampled infimum, growing the radius
    probes_only = rep.epsilon / (4 * np.min(np.maximum(rep.ratio_t, rep.ratio_t1)))
    assert rep.radius_estimate >= probes_only


def huge_output_generator():
    """Finite weights and outputs (~1e201) whose squared norms overflow."""
    params = tanh_generator(0)
    params.weights[-1][:] = 1e200
    return params


def test_overflowing_distances_are_numerics_errors():
    params = huge_output_generator()
    z1 = np.ones(2)
    with pytest.raises(NumericsError, match="distance"):
        attraction_check(params, params, z1, np.zeros(2), probes=10,
                         rng=np.random.default_rng(0))


def test_bound_on_huge_outputs_is_a_finite_report_that_holds():
    """The squared distance of outputs ~1e201 overflows, but the difference
    quotient comes from the exactly rescaled difference."""
    rep = path_gradient_bound(huge_output_generator(), np.ones(2), -np.ones(2))
    assert np.isfinite(rep.rhs) and 1e199 < rep.lhs <= rep.rhs and rep.holds


@pytest.mark.parametrize("scale", [1e160, 1e-200])
def test_bound_lhs_scales_with_the_output_past_the_squares_range(scale):
    """Output differences whose squared norm overflows (1e160) or underflows
    to zero (1e-200) give the quotient of the unscaled network times scale."""
    z1, z2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    ref = path_gradient_bound(tanh_generator(3), z1, z2)
    params = tanh_generator(3)
    params.weights[-1][:] *= scale
    rep = path_gradient_bound(params, z1, z2)
    assert rep.lhs == pytest.approx(ref.lhs * scale, rel=1e-14)
    assert rep.rhs == pytest.approx(ref.rhs * scale, rel=1e-14) and rep.holds


def test_bound_suite_needs_a_pair():
    with pytest.raises(ValueError, match="n_pairs"):
        bound_suite(tanh_generator(0), n_pairs=0, rng=np.random.default_rng(0), z_dim=2)
