from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divgan import autodiff, losses
from divgan.autodiff import ShapeMismatch, backward, evaluate_with_gradients, lift
from divgan.config import parse_run_config
from divgan.data import sample_trajectories
from divgan.losses import (
    DegenerateLatentPair,
    DiversityConfig,
    ObjectiveConfig,
    d_loss,
    diversity_ratio,
    g_adv_loss,
    generate_fakes,
    reconstruction_loss,
)
from divgan.nets import (
    NetworkSpec,
    ParamLeaves,
    discriminator_forward,
    generator_forward,
    mlp_init,
)
from divgan.training import init_state, train_step

from conftest import objective

LN2 = np.log(2.0)


# -- adversarial losses -------------------------------------------------------


def naive_d_loss(lr, lf):
    s = lambda t: 1.0 / (1.0 + np.exp(-np.asarray(t, dtype=np.float64)))
    return float(-np.mean(np.log(s(lr))) - np.mean(np.log(1.0 - s(lf))))


def test_d_loss_perfect_discriminator_limit():
    assert d_loss([40.0], [-40.0]).item() == pytest.approx(0.0, abs=1e-15)


def test_d_loss_at_zero_logits():
    assert d_loss([0.0, 0.0], [0.0]).item() == pytest.approx(2 * LN2, abs=1e-12)


def test_d_loss_matches_naive_formula(rng):
    for _ in range(50):
        lr = rng.uniform(-10, 10, size=4)
        lf = rng.uniform(-10, 10, size=4)
        assert d_loss(lr, lf).item() == pytest.approx(naive_d_loss(lr, lf), abs=1e-10)


def test_d_loss_stays_finite_at_extreme_logits():
    assert np.isfinite(d_loss([-1000.0], [1000.0]).item())


def test_d_loss_empty_batch():
    with pytest.raises(ValueError):
        d_loss([], [0.0])


def test_g_adv_loss_at_zero_logits():
    assert g_adv_loss([0.0]).item() == pytest.approx(LN2, abs=1e-12)


def test_g_adv_gradient_raises_fake_logits(rng):
    # non-saturating: the gradient stays away from 0 where D rejects the fake
    for logit in [*rng.uniform(-5, 5, size=(50, 1)), np.array([-1000.0])]:
        value, (grad,) = evaluate_with_gradients(g_adv_loss, [logit])
        assert np.isfinite(value) and np.sign(grad) == -1.0
    assert grad == pytest.approx(-1.0)


# -- diversity ratio ----------------------------------------------------------

L2 = DiversityConfig(norm="l2", tau=None)
L1_FREE = DiversityConfig(norm="l1", tau=None)


def test_collapsed_generator_scores_zero():
    z1, z2 = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    y = np.array([0.3, -0.7])
    assert diversity_ratio([y], [y], z1, z2, L2) == 0.0


def test_ratio_clipped_at_tau():
    cfg = DiversityConfig(norm="l2", tau=0.5)
    z1, z2 = np.array([0.0, 0.0]), np.array([3.0, 4.0])
    assert diversity_ratio([z1], [z2], z1, z2, cfg) == 0.5  # identity map ratio 1, clipped


def test_ratio_l1_arithmetic():
    y1, y2 = np.array([1.0, 2.0]), np.array([0.0, 0.0])
    z1, z2 = np.array([1.0, 1.0]), np.array([0.0, 0.0])
    assert diversity_ratio([y1], [y2], z1, z2, L1_FREE) == pytest.approx(1.5)


def test_ratio_requires_latent_gap():
    z = np.array([0.5, 0.5])
    with pytest.raises(DegenerateLatentPair, match="resample"):
        diversity_ratio([np.ones(2)], [np.zeros(2)], z, z, L2)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_ratio_symmetry_and_translation_invariance(seed):
    r = np.random.default_rng(seed)
    y1, y2 = r.normal(size=3), r.normal(size=3)
    z1, z2 = r.normal(size=2), r.normal(size=2)
    if np.sum(np.abs(z1 - z2)) < 1e-6:
        return
    cfg = DiversityConfig(norm="l1", tau=float(r.uniform(0.5, 5.0)))
    a = diversity_ratio([y1], [y2], z1, z2, cfg)
    assert a == diversity_ratio([y2], [y1], z2, z1, cfg)
    shift = r.normal(size=3)
    assert diversity_ratio([y1 + shift], [y2 + shift], z1, z2, cfg) == pytest.approx(a)
    assert 0.0 <= a <= cfg.tau


@given(st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
@settings(max_examples=30, deadline=None)
def test_ratio_scale_invariance(seed, alpha):
    r = np.random.default_rng(seed)
    y1, y2 = r.normal(size=3), r.normal(size=3)
    z1, z2 = r.normal(size=2), r.normal(size=2)
    if np.sum(np.abs(z1 - z2)) < 1e-6:
        return
    base = diversity_ratio([y1], [y2], z1, z2, L1_FREE)
    mid = 0.5 * (y1 + y2)
    zmid = 0.5 * (z1 + z2)
    scaled = diversity_ratio(
        [mid + alpha * (y1 - mid)], [mid + alpha * (y2 - mid)],
        zmid + alpha * (z1 - zmid), zmid + alpha * (z2 - zmid), L1_FREE,
    )
    assert scaled == pytest.approx(base, rel=1e-9)


def test_clip_only_when_raw_ratio_exceeds_tau():
    z1, z2 = np.zeros(2), np.array([1.0, 0.0])
    cfg = DiversityConfig(norm="l2", tau=2.0)
    below = diversity_ratio([np.zeros(2)], [np.array([1.5, 0.0])], z1, z2, cfg)
    at = diversity_ratio([np.zeros(2)], [np.array([3.0, 0.0])], z1, z2, cfg)
    assert below == 1.5 and at == 2.0


# -- feature and sequence spaces ----------------------------------------------

FEATURE = DiversityConfig(norm="l1", tau=None, space="feature")
SEQUENCE = DiversityConfig(space="sequence")


def test_feature_ratio_identical_features():
    f = [np.ones(4), np.zeros(3)]
    assert diversity_ratio(f, f, np.zeros(2), np.ones(2), FEATURE) == 0.0


def test_feature_ratio_single_layer_reduces_to_output_ratio():
    r = np.random.default_rng(0)
    f1, f2 = r.normal(size=5), r.normal(size=5)
    z1, z2 = r.normal(size=2), r.normal(size=2)
    got = diversity_ratio([f1], [f2], z1, z2, FEATURE)
    assert got == pytest.approx(diversity_ratio([f1], [f2], z1, z2, L1_FREE))


def test_feature_ratio_two_layer_arithmetic():
    f1 = [np.array([2.0, 0.0]), np.array([0.0, 0.0])]
    f2 = [np.array([0.0, 0.0]), np.array([4.0, 0.0])]
    z1, z2 = np.array([3.0, 0.0]), np.array([0.0, 0.0])
    got = diversity_ratio(f1, f2, z1, z2, FEATURE)
    assert got == pytest.approx(1.0)  # mean(2, 4) / 3


def test_feature_ratio_has_no_tau_clip():
    cfg = DiversityConfig(norm="l1", tau=0.001, space="feature")
    f1, f2 = [np.array([10.0])], [np.array([0.0])]
    got = diversity_ratio(f1, f2, np.zeros(1), np.ones(1), cfg)
    assert got == pytest.approx(10.0)


def test_feature_ratio_layer_mismatch():
    with pytest.raises(ShapeMismatch):
        diversity_ratio([np.ones(2)], [np.ones(2), np.ones(2)], np.zeros(2), np.ones(2),
                        FEATURE)


def test_sequence_ratio_t1_is_bitwise_l1_output_ratio(rng):
    for _ in range(20):
        y1, y2 = rng.normal(size=4), rng.normal(size=4)
        z1, z2 = rng.normal(size=3), rng.normal(size=3)
        a = diversity_ratio([y1], [y2], z1, z2, SEQUENCE)
        b = diversity_ratio([y1], [y2], z1, z2, L1_FREE)
        assert a == b  # exact, not approximate


def test_sequence_ratio_is_the_unclipped_l1_output_ratio_over_the_horizon():
    """Sequence space sums each step's l1 distance and divides by T; the
    summed distances are the l1 distance of the flattened (T*2) output. So
    its ratio is output space's l1 ratio without the clip, over T, and the
    trajectory defaults (lambda 10, T 10) weigh that unclipped ratio by 1.
    The config's norm and tau are set to show that sequence space reads
    neither: a tau that bound would hold l_z at 1e-3."""
    cfg = parse_run_config({"task": "trajectory", "batch_size": 64, "steps": 30, "seed": 3})
    state = init_state(cfg)
    for _ in range(cfg.steps):
        state, _ = train_step(state, cfg)
    n, horizon = cfg.batch_size, cfg.traj.horizon
    rng = np.random.default_rng(5)
    real = sample_trajectories(cfg.traj, n, rng)
    batch = dict(z1=rng.standard_normal((n, cfg.z_dim)), z2=rng.standard_normal((n, cfg.z_dim)),
                 x=real.x, y=real.y)
    sequence, output = (
        objective(state.params_G, state.params_D, ObjectiveConfig(diversity=div), **batch)[1]
        for div in (DiversityConfig(weight=10.0, norm="l2", tau=1e-3, space="sequence"),
                    DiversityConfig(weight=1.0, norm="l1", tau=None, space="output")))
    assert sequence.parts["l_z"] > 1e-3
    for key in ("l_z", "ratio_mean"):
        assert sequence.parts[key] == pytest.approx(output.parts[key] / horizon, rel=1e-14)
    assert sequence.total.item() == pytest.approx(output.total.item(), rel=1e-14)


def test_sequence_ratio_identical_sequences():
    seq = [np.ones(2), np.zeros(2)]
    assert diversity_ratio(seq, seq, np.zeros(2), np.ones(2), SEQUENCE) == 0.0


def test_sequence_ratio_arithmetic():
    s1 = [np.array([1.0, 0.0]), np.array([3.0, 0.0])]
    s2 = [np.array([0.0, 0.0]), np.array([0.0, 0.0])]
    z1, z2 = np.array([2.0, 0.0]), np.array([0.0, 0.0])
    assert diversity_ratio(s1, s2, z1, z2, SEQUENCE) == pytest.approx(1.0)


def test_sequence_ratio_constant_sequence_idempotent(rng):
    y1, y2 = rng.normal(size=3), rng.normal(size=3)
    z1, z2 = rng.normal(size=2), rng.normal(size=2)
    per_step = diversity_ratio([y1], [y2], z1, z2, SEQUENCE)
    repeated = diversity_ratio([y1] * 5, [y2] * 5, z1, z2, SEQUENCE)
    assert repeated == pytest.approx(per_step)


def test_sequence_ratio_length_mismatch():
    with pytest.raises(ShapeMismatch):
        diversity_ratio([np.ones(2)], [np.ones(2)] * 2, np.zeros(2), np.ones(2), SEQUENCE)


def test_ratio_latent_shape_mismatch():
    with pytest.raises(ShapeMismatch, match="latent"):
        diversity_ratio([np.ones(2)], [np.zeros(2)], np.zeros(2), np.ones(3), L2)


def numpy_ratio(parts1, parts2, z1, z2, norm, tau):
    """The ratio in plain numpy: mean part distance over latent distance."""
    dist = (lambda v: np.abs(v).sum()) if norm == "l1" else (lambda v: np.sqrt((v * v).sum()))
    ratio = np.mean([dist(a - b) for a, b in zip(parts1, parts2)]) / dist(z1 - z2)
    return ratio if tau is None else min(ratio, tau)


# (space, config norm, config tau) -> the norm and clip the space must use:
# output space takes both, feature space the norm only, sequence space neither
@pytest.mark.parametrize("space,norm,tau,want_norm,want_tau", [
    ("output", "l2", 0.1, "l2", 0.1), ("output", "l1", None, "l1", None),
    ("output", "l1", 0.1, "l1", 0.1), ("feature", "l2", 0.1, "l2", None),
    ("feature", "l1", 0.1, "l1", None), ("sequence", "l2", 0.1, "l1", None),
    ("sequence", "l2", None, "l1", None),
])
def test_each_space_takes_its_own_norm_and_clip(space, norm, tau, want_norm, want_tau, rng):
    cfg = DiversityConfig(norm=norm, tau=tau, space=space)
    n_parts = 1 if space == "output" else 3
    for _ in range(10):
        parts1 = [rng.normal(size=4) for _ in range(n_parts)]
        parts2 = [rng.normal(size=4) for _ in range(n_parts)]
        z1, z2 = rng.normal(size=3), rng.normal(size=3)
        want = numpy_ratio(parts1, parts2, z1, z2, want_norm, want_tau)
        assert diversity_ratio(parts1, parts2, z1, z2, cfg) == pytest.approx(want, rel=1e-12)


# -- reconstruction -------------------------------------------------------------


def test_reconstruction_loss_zero_at_match():
    y = np.array([[1.0, 2.0]])
    assert reconstruction_loss(y, y).item() == 0.0


def test_reconstruction_loss_mae():
    assert reconstruction_loss(np.array([[1.0, 1.0]]), np.zeros((1, 2))).item() == 1.0


def test_reconstruction_loss_symmetric(rng):
    a, b = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    assert reconstruction_loss(a, b).item() == reconstruction_loss(b, a).item()


# -- combined generator objective ------------------------------------------------


def tiny_nets():
    g_spec = NetworkSpec(2, (5,), 2, hidden_activation="tanh")
    d_spec = NetworkSpec(2, (4,), 1, hidden_activation="relu")
    return mlp_init(g_spec, 3), mlp_init(d_spec, 4)


def make_batch(rng, n=6):
    return dict(z1=rng.normal(size=(n, 2)), z2=rng.normal(size=(n, 2)), y=rng.normal(size=(n, 2)))


def test_degenerate_config_is_pure_adversarial(rng):
    params_G, params_D = tiny_nets()
    cfg = ObjectiveConfig(beta=0.0, diversity=DiversityConfig(weight=0.0))
    _, res = objective(params_G, params_D, cfg, **make_batch(rng))
    assert res.total.item() == pytest.approx(res.parts["g_adv"])
    assert res.parts["g_rec"] == 0.0


def test_z_blind_generator_logs_zero_regularizer(rng):
    params_G, params_D = tiny_nets()
    params_G.weights[0][:] = 0.0  # first layer ignores z entirely
    cfg = ObjectiveConfig(diversity=DiversityConfig(weight=0.1, norm="l1", tau=10.0))
    _, res = objective(params_G, params_D, cfg, **make_batch(rng))
    assert res.parts["l_z"] == 0.0
    assert res.parts["ratio_mean"] == 0.0


def test_missing_targets_with_beta():
    params_G, params_D = tiny_nets()
    cfg = ObjectiveConfig(beta=1.0)
    with pytest.raises(ValueError, match="targets"):
        objective(params_G, params_D, cfg, z1=np.zeros((2, 2)), z2=np.ones((2, 2)))


def test_resampling_exhaustion():
    params_G, params_D = tiny_nets()
    cfg = ObjectiveConfig()
    z = np.zeros((3, 2))
    with pytest.raises(DegenerateLatentPair):
        generate_fakes(params_G, cfg, z, z.copy(), rng=None)


def test_resampling_recovers_with_rng(rng):
    params_G, params_D = tiny_nets()
    cfg = ObjectiveConfig()
    z = rng.normal(size=(3, 2))
    fakes = generate_fakes(params_G, cfg, z, z.copy(), rng=rng)
    gaps = np.sum(np.abs(z - fakes.z2), axis=1)
    assert np.all(gaps >= losses.MIN_Z_GAP)


@pytest.mark.parametrize("space,norm,tau", [
    ("output", "l1", None), ("output", "l1", 0.1), ("output", "l2", None),
    ("output", "l2", 0.1), ("feature", "l1", 0.1), ("feature", "l2", None),
    ("sequence", "l2", 0.1),
])
@pytest.mark.parametrize("weight", [0.0, 0.3])
def test_training_graph_ratios_match_pairwise_functions(space, norm, tau, weight, rng,
                                                        monkeypatch):
    """Per example, the ratios the training objective builds equal the public
    per-pair diversity_ratio on the same outputs and the z2 actually used."""
    horizon = 3 if space == "sequence" else 1
    params_G = mlp_init(NetworkSpec(2, (5,), 2 * horizon), 3)
    params_D = mlp_init(NetworkSpec(2 * horizon, (4, 3), 1, hidden_activation="tanh"), 4)
    z1, z2 = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
    z2[0] = z1[0]  # degenerate pair: the objective resamples it
    div = DiversityConfig(weight=weight, tau=tau, norm=norm, space=space)

    seen = []
    batch_ratios = losses._batch_ratios

    def spy(*args):
        seen.append(batch_ratios(*args))
        return seen[-1]

    monkeypatch.setattr(losses, "_batch_ratios", spy)
    fakes, res = objective(params_G, params_D, ObjectiveConfig(diversity=div), z1, z2, rng=rng)
    monkeypatch.undo()
    (term, raw), = seen
    z2 = fakes.z2
    assert not np.array_equal(z2[0], z1[0])

    y1, y2 = generator_forward(params_G, z1).data, generator_forward(params_G, z2).data
    feats1 = discriminator_forward(params_D, y1)[1]
    feats2 = discriminator_forward(params_D, y2)[1]

    def parts(y, feats, i):  # G's output or its steps, or D's hidden layers
        return [f.data[i] for f in feats] if space == "feature" else np.split(y[i], horizon)

    for i in range(len(z1)):
        p1, p2 = parts(y1, feats1, i), parts(y2, feats2, i)
        want_term = diversity_ratio(p1, p2, z1[i], z2[i], div)
        want_raw = diversity_ratio(p1, p2, z1[i], z2[i], replace(div, tau=None))
        assert term.data[i] == pytest.approx(want_term, rel=1e-12)
        assert raw.data[i] == pytest.approx(want_raw, rel=1e-12)
    if space == "output" and tau is not None:
        assert np.any(term.data < raw.data)  # the clip is exercised
    assert res.parts["l_z"] == pytest.approx(float(term.data.mean()), rel=1e-12)
    assert res.parts["ratio_mean"] == float(raw.data.mean())


@pytest.mark.parametrize("space", ["output", "feature", "sequence"])
def test_second_fake_records_a_graph_only_when_weighted(space, rng, monkeypatch):
    """At weight 0 the second fake only feeds the logged ratios, so it is
    built from constants and records no graph; at weight > 0 it carries G's
    gradient. The ratios keep their bits either way."""
    horizon = 2 if space == "sequence" else 1
    params_G = mlp_init(NetworkSpec(2, (5,), 2 * horizon), 3)
    params_D = mlp_init(NetworkSpec(2 * horizon, (4, 3), 1, hidden_activation="relu"), 4)
    z1, z2 = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
    seen = []
    batch_ratios = losses._batch_ratios

    def spy(parts1, parts2, *rest):
        seen.append(([p.requires_grad for p in parts2], batch_ratios(parts1, parts2, *rest)))
        return seen[-1][1]

    monkeypatch.setattr(losses, "_batch_ratios", spy)
    logged = [objective(params_G, params_D,
                        ObjectiveConfig(diversity=DiversityConfig(weight=w, space=space)),
                        z1, z2)[1]
              for w in (0.0, 0.3)]
    (grads0, ratios0), (grads1, ratios1) = seen
    assert grads0 and not any(grads0)
    assert grads1 and all(grads1)
    for a, b in zip(ratios0, ratios1):  # (term, raw)
        assert a.data.tobytes() == b.data.tobytes()
    assert logged[0].parts["ratio_mean"] == logged[1].parts["ratio_mean"]


@pytest.mark.parametrize("space", ["output", "feature", "sequence"])
@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_total_loss_gradients_match_finite_differences(space, norm, rng):
    horizon = 2 if space == "sequence" else 1
    g_spec = NetworkSpec(2, (4,), 2 * horizon, hidden_activation="tanh")
    d_spec = NetworkSpec(2 * horizon, (3,), 1, hidden_activation="tanh")
    params_G, params_D = mlp_init(g_spec, 5), mlp_init(d_spec, 6)
    z1 = rng.normal(size=(4, 2))
    z2 = rng.normal(size=(4, 2))
    y = rng.normal(size=(4, 2 * horizon))
    cfg = ObjectiveConfig(
        beta=0.5,
        diversity=DiversityConfig(weight=0.3, tau=5.0, norm=norm, space=space),
    )

    # engine gradients through the real path
    fakes, res = objective(params_G, params_D, cfg, z1, z2, y=y)
    backward(res.total)
    engine = [v.grad for v in fakes.leaves.flat()]

    # finite differences on the loss value as a black box
    from divgan.autodiff import finite_diff_gradient
    from divgan.nets import NetworkParams

    flat0 = params_G.flat()
    for i in range(len(flat0)):
        def scalar(x, i=i):
            probe = [a.copy() for a in flat0]
            probe[i] = x
            probe_G = NetworkParams(g_spec, np.concatenate([a.ravel() for a in probe]))
            _, res = objective(probe_G, params_D, cfg, z1, z2, y=y)
            return res.total.item()

        fd = finite_diff_gradient(scalar, flat0[i])
        err = np.max(np.abs(engine[i] - fd) / np.maximum(np.abs(fd), 1.0))
        assert err <= 1e-4, f"param {i}: relative error {err:.2e}"


def test_lambda_scales_regularizer_gradient_linearly(rng):
    """Doubling the weight doubles the gradient attributable to the ratio
    term whenever the clip is inactive."""
    g_spec = NetworkSpec(2, (4,), 2, hidden_activation="tanh")
    d_spec = NetworkSpec(2, (3,), 1)
    params_G, params_D = mlp_init(g_spec, 7), mlp_init(d_spec, 8)
    z1, z2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))

    def grads_at(weight):
        cfg = ObjectiveConfig(diversity=DiversityConfig(weight=weight, tau=None, norm="l2"))
        fakes, res = objective(params_G, params_D, cfg, z1, z2)
        backward(res.total)
        return [v.grad.copy() for v in fakes.leaves.flat()]

    g0 = grads_at(1e-12)  # adversarial part only (weight ~ 0)
    g1 = grads_at(0.2)
    g2 = grads_at(0.4)
    for a, b, c in zip(g0, g1, g2):
        np.testing.assert_allclose(c - a, 2.0 * (b - a), rtol=1e-6, atol=1e-12)


def _cols(v, start, stop):
    """Columns start:stop of a 2-d Var as a node whose gradient is zero off
    the slice: the per-step slice the sequence regularizer once used."""
    shape = v.shape

    def bwd(g, _):
        full = np.zeros(shape)
        full[:, start:stop] = g
        return (full,)

    return autodiff._node(v.data[:, start:stop], (v,), bwd)


def _per_step_objective(params_G, params_D, cfg, z1, z2, y):
    """The sequence objective with one column slice per 2-D step and a chain
    of adds over the steps, as a reference for the one-pass graph."""
    leaves = ParamLeaves(params_G)
    y1 = generator_forward(leaves, z1)
    y2 = generator_forward(leaves, z2)
    adv = g_adv_loss(discriminator_forward(params_D, y1)[0])
    horizon = y1.shape[1] // 2
    acc = None
    for t in range(horizon):
        a, b = _cols(y1, 2 * t, 2 * t + 2), _cols(y2, 2 * t, 2 * t + 2)
        d = (a - b).abs().sum(axis=1)
        acc = d if acc is None else acc + d
    gaps = np.abs(z1 - z2).sum(axis=1)
    raw = acc * (1.0 / horizon) * lift(1.0 / gaps)
    weight = cfg.diversity.weight
    total = adv - weight * raw.mean() if weight > 0 else adv
    if cfg.beta > 0:
        total = total + cfg.beta * reconstruction_loss(y1, y)
    return total, raw, leaves


@pytest.mark.parametrize("horizon", [1, 2, 10])
@pytest.mark.parametrize("weight,beta", [(0.0, 0.0), (0.7, 0.0), (10.0, 0.5)])
def test_sequence_objective_equals_per_step_reference_bit_for_bit(horizon, weight, beta, rng,
                                                                 monkeypatch):
    """The one-pass sequence ratio (a (B, T, dim) reshape, step norms summed
    over the leading axis of a (T, B) copy) gives the per-step chain's
    ratios, loss and G gradients to the last bit."""
    params_G = mlp_init(NetworkSpec(3, (9,), 2 * horizon), 21)
    params_D = mlp_init(NetworkSpec(2 * horizon, (8,), 1, hidden_activation="relu"), 22)
    params_G.weights[1][:, 0] = -0.0  # step 0's first coordinate ignores z
    z1, y = rng.normal(size=(7, 3)), rng.normal(size=(7, 2 * horizon))
    z2 = rng.normal(size=(7, 3))
    cfg = ObjectiveConfig(beta=beta, diversity=DiversityConfig(weight=weight,
                                                                space="sequence"))
    seen = []
    batch_ratios = losses._batch_ratios

    def spy(*args):
        seen.append(batch_ratios(*args))
        return seen[-1]

    monkeypatch.setattr(losses, "_batch_ratios", spy)
    fakes, res = objective(params_G, params_D, cfg, z1, z2, y=y)
    monkeypatch.undo()
    (term, raw), = seen
    ref_total, ref_raw, ref_leaves = _per_step_objective(params_G, params_D, cfg, z1, fakes.z2, y)
    assert raw.data.tobytes() == ref_raw.data.tobytes()
    assert term.data.tobytes() == ref_raw.data.tobytes()  # no clip off output space
    assert res.parts["ratio_mean"] == float(ref_raw.data.mean())
    assert res.total.data.tobytes() == ref_total.data.tobytes()
    backward(res.total)
    backward(ref_total)
    for got, want in zip(fakes.leaves.flat(), ref_leaves.flat()):
        assert got.grad.tobytes() == want.grad.tobytes()
