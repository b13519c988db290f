import numpy as np
import pytest

from divgan.autodiff import NumericsError, jacobian
from divgan.nets import NetworkParams, NetworkSpec, generator_forward, mlp_init
from divgan.optim import AdamHyper
from divgan.theory import (
    AttractionReport,
    attraction_check,
    bound_suite,
    path_gradient_bound,
    path_jacobians,
    pull_toward,
)


def linear_params(A):
    """Single-layer linear network computing z @ A.T (i.e. G(z) = A z)."""
    A = np.asarray(A, dtype=np.float64)
    spec = NetworkSpec(A.shape[1], (), A.shape[0], output_activation="linear")
    return NetworkParams(spec, [A.T.copy()], [np.zeros(A.shape[0])])


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
    out = bound_suite(tanh_generator(5), n_pairs=25, rng=np.random.default_rng(0))
    assert out["passed"] and out["violations"] == 0
    assert out["pairs"] == 25


def test_quadrature_refinement_is_stable(rng):
    params = tanh_generator(7)
    for _ in range(10):
        z1, z2 = rng.standard_normal(2), rng.standard_normal(2)
        r64 = path_gradient_bound(params, z1, z2, n_quad=64)
        r256 = path_gradient_bound(params, z1, z2, n_quad=256)
        assert abs(r64.rhs - r256.rhs) <= 1e-4 * max(r256.rhs, 1e-12)


def test_frobenius_never_below_spectral(rng):
    params = tanh_generator(9)
    for _ in range(10):
        z1, z2 = rng.standard_normal(2), rng.standard_normal(2)
        spec = path_gradient_bound(params, z1, z2, n_quad=32)
        frob = path_gradient_bound(params, z1, z2, n_quad=32, matrix_norm="frobenius")
        assert frob.rhs >= spec.rhs - 1e-12


def test_bound_validation():
    params = tanh_generator(0)
    with pytest.raises(ValueError):
        path_gradient_bound(params, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        path_gradient_bound(params, np.zeros(2), np.ones(2), n_quad=4)
    with pytest.raises(ValueError):
        path_gradient_bound(params, np.zeros(2), np.ones(2), matrix_norm="nuclear")


@pytest.mark.parametrize("kind", ["tanh", "conditional", "relu"])
def test_path_jacobians_match_per_row_jacobian(kind, rng):
    cond_dim = 3 if kind == "conditional" else 0
    act = "relu" if kind == "relu" else "tanh"
    params = mlp_init(NetworkSpec(cond_dim + 2, (16, 16), 3, hidden_activation=act), 5)
    x = rng.normal(size=cond_dim) if cond_dim else None
    z1, z2 = rng.standard_normal(2), rng.standard_normal(2)
    jacs = path_jacobians(params, z1, z2, n_quad=8, x=x)
    assert jacs.shape == (8, 3, 2)
    for t, jac in zip((np.arange(8) + 0.5) / 8, jacs):
        z = (t * z2 + (1.0 - t) * z1)[None, :]
        xr = None if x is None else x[None, :]
        ref = jacobian(lambda v: generator_forward(params, v, xr), z)
        assert jac == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_relu_generator_gets_finer_default_grid():
    relu = mlp_init(NetworkSpec(2, (8,), 2, hidden_activation="relu"), 0)
    out = bound_suite(relu, n_pairs=5, rng=np.random.default_rng(1))
    assert out["n_quad"] == 512
    assert out["passed"]


# -- attraction -------------------------------------------------------------


def constant_params(value, z_dim=2):
    """Zero-weight network whose output is a constant bias vector."""
    value = np.asarray(value, dtype=np.float64)
    spec = NetworkSpec(z_dim, (), value.size, output_activation="linear")
    return NetworkParams(spec, [np.zeros((z_dim, value.size))], [value.copy()])


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
    recs = rep.records()
    assert len(recs) == rep.n_probes
    assert set(recs[0]) == {"z2", "gap", "ratio_t", "ratio_t1",
                            "condition_holds", "attracted_by_half_eps"}
    s = rep.summary()
    assert s["passed"] and s["counterexamples"] == 0
    assert s["radius_estimate"] is None  # inf radius serializes as null


def test_radius_estimate_uses_grid(rng):
    params = tanh_generator(2)
    z1 = rng.standard_normal(2)
    y_star = rng.standard_normal(2)
    params_next = pull_toward(params, z1, y_star, AdamHyper(lr=1e-3))
    few = attraction_check(params, params_next, z1, y_star, probes=3,
                           rng=np.random.default_rng(1), grid_points=0)
    dense = attraction_check(params, params_next, z1, y_star, probes=3,
                             rng=np.random.default_rng(1), grid_points=61)
    assert dense.epsilon == pytest.approx(few.epsilon)
    # a denser scan can only shrink the sampled infimum, growing the radius
    assert dense.radius_estimate >= few.radius_estimate - 1e-15


def huge_output_generator():
    """Finite weights and outputs (~1e201) whose squared norms overflow."""
    params = tanh_generator(0)
    params.weights[-1][:] = 1e200
    return params


def test_overflowing_distances_are_numerics_errors():
    params = huge_output_generator()
    z1, z2 = np.ones(2), -np.ones(2)
    with pytest.raises(NumericsError, match="difference quotient"):
        path_gradient_bound(params, z1, z2)
    with pytest.raises(NumericsError, match="distance"):
        attraction_check(params, params, z1, np.zeros(2), probes=10,
                         rng=np.random.default_rng(0))


def test_bound_suite_needs_a_pair():
    with pytest.raises(ValueError, match="n_pairs"):
        bound_suite(tanh_generator(0), n_pairs=0, rng=np.random.default_rng(0))
