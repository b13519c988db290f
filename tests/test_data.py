import numpy as np
import pytest

from divgan.config import TrainConfig
from divgan.data import (
    MODES_PER_LABEL,
    N_LABELS,
    RingMixtureSpec,
    TrajectorySpec,
    label_of,
    nearest_modes,
    sample_conditional_ring,
    sample_ring,
    sample_trajectories,
)
from divgan.metrics import conditional_coverage

SPEC = RingMixtureSpec()


def binomial_band(n, p, sigmas=5.0):
    mean = n * p
    half = sigmas * np.sqrt(n * p * (1 - p))
    return mean - half, mean + half


def test_centers_on_circle():
    c = SPEC.centers()
    assert c.shape == (8, 2)
    assert np.allclose(np.linalg.norm(c, axis=1), SPEC.radius, atol=1e-12)
    # first center on the positive x axis, counterclockwise order
    assert np.allclose(c[0], [SPEC.radius, 0.0])


def test_sampling_is_deterministic():
    a = sample_ring(SPEC, 100, np.random.default_rng(5))
    b = sample_ring(SPEC, 100, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_degenerate_noise_sits_on_centers():
    spec = RingMixtureSpec(std=1e-12)
    pts = sample_ring(spec, 200, np.random.default_rng(0))
    _, dist = nearest_modes(pts, spec)
    assert np.max(dist) < 1e-9


def test_mode_counts_are_uniform():
    n = 10_000
    pts = sample_ring(SPEC, n, np.random.default_rng(1))
    idx, _ = nearest_modes(pts, SPEC)
    lo, hi = binomial_band(n, 1.0 / SPEC.n_modes)
    counts = np.bincount(idx, minlength=8)
    assert np.all((counts >= lo) & (counts <= hi)), counts


def test_mean_radius_close_to_spec():
    pts = sample_ring(SPEC, 10_000, np.random.default_rng(2))
    mean_r = np.mean(np.linalg.norm(pts, axis=1))
    assert abs(mean_r - SPEC.radius) / SPEC.radius < 0.01


def test_three_sigma_rule_tail():
    # 2-dof chi^2: P(dist <= 3 std) = 1 - exp(-9/2) = 0.98889...
    pts = sample_ring(SPEC, 20_000, np.random.default_rng(3))
    _, dist = nearest_modes(pts, SPEC)
    frac = np.mean(dist <= 3 * SPEC.std)
    assert frac >= 0.985
    assert frac == pytest.approx(1.0 - np.exp(-4.5), abs=5e-3)


def test_nearest_mode_exact_center():
    idx, dist = nearest_modes(SPEC.centers(), SPEC)
    assert np.array_equal(idx, np.arange(8)) and np.all(dist == 0.0)


def test_nearest_mode_tie_breaks_to_smallest_index():
    idx, dist = nearest_modes(np.zeros((1, 2)), SPEC)
    assert idx[0] == 0
    assert dist[0] == pytest.approx(SPEC.radius)


def test_nearest_mode_matches_bruteforce(rng):
    points = rng.normal(size=(200, 2)) * 3
    idx, dist = nearest_modes(points, SPEC)
    for p, i, di in zip(points, idx, dist):
        d = [float(np.linalg.norm(p - c)) for c in SPEC.centers()]
        assert i == int(np.argmin(d))
        assert di == pytest.approx(min(d))


def test_spec_validation():
    with pytest.raises(ValueError):
        RingMixtureSpec(n_modes=0)
    with pytest.raises(ValueError):
        RingMixtureSpec(std=0.0)
    # the labels split the default ring's modes (check_labels refuses a ring they do not)
    assert N_LABELS * MODES_PER_LABEL == RingMixtureSpec().n_modes
    with pytest.raises(ValueError):
        TrajectorySpec(horizon=0)


# -- conditional ring ---------------------------------------------------------


@pytest.mark.parametrize("n_modes", [7, 16])
def test_a_ring_the_labels_do_not_split_is_refused(n_modes):
    """7 modes would index past the ring and 16 would leave half of it
    unlabelled: the sampler, the coverage metric and the config all refuse
    both by name."""
    ring, rng = RingMixtureSpec(n_modes=n_modes), np.random.default_rng(0)
    y, labels = np.zeros((10, 2)), np.zeros(10, dtype=int)
    calls = {
        "sample_conditional_ring": lambda: sample_conditional_ring(ring, 10, rng),
        "conditional_coverage": lambda: conditional_coverage(y, labels, ring),
        "TrainConfig": lambda: TrainConfig(task="conditional_ring", ring=ring),
    }
    for where, call in calls.items():
        with pytest.raises(ValueError,
                           match=f"^{where}: 4 labels x 2 modes != {n_modes} ring modes$"):
            call()


def test_conditional_single_sample():
    b = sample_conditional_ring(SPEC, 1, np.random.default_rng(0))
    assert b.x.shape == (1, 4) and b.y.shape == (1, 2)
    assert b.x.sum() == 1.0


def test_conditional_samples_land_in_owned_modes():
    n = 10_000
    b = sample_conditional_ring(SPEC, n, np.random.default_rng(4))
    idx, _ = nearest_modes(b.y, SPEC)
    assert np.array_equal(label_of(idx), b.labels)
    # label k owns the adjacent pair {2k, 2k+1}, and each label reaches both
    assert label_of(np.arange(8)).tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
    assert len(np.unique(idx)) == 8


def test_conditional_label_histogram_uniform():
    n = 10_000
    b = sample_conditional_ring(SPEC, n, np.random.default_rng(6))
    lo, hi = binomial_band(n, 1.0 / N_LABELS)
    counts = np.bincount(b.labels, minlength=4)
    assert np.all((counts >= lo) & (counts <= hi))


def test_conditional_onehot_matches_labels():
    b = sample_conditional_ring(SPEC, 50, np.random.default_rng(7))
    assert np.array_equal(np.argmax(b.x, axis=1), b.labels)


# -- trajectories ---------------------------------------------------------------


def test_noiseless_trajectories_on_circle():
    spec = TrajectorySpec(noise_std=0.0)
    b = sample_trajectories(spec, 100, np.random.default_rng(8))
    pts = np.concatenate([b.x, b.y], axis=1).reshape(-1, 2)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - spec.circle_radius)) < 1e-9


def test_trajectory_direction_frequencies():
    n = 10_000
    b = sample_trajectories(TrajectorySpec(), n, np.random.default_rng(9))
    lo, hi = binomial_band(n, 0.5)
    assert lo <= np.sum(b.labels) <= hi


def test_noiseless_context_and_future_contiguous_in_angle():
    spec = TrajectorySpec(noise_std=0.0)
    b = sample_trajectories(spec, 20, np.random.default_rng(10))
    full = np.concatenate([b.x, b.y], axis=1).reshape(20, -1, 2)  # (n, K + T, 2)
    angles = np.arctan2(full[..., 1], full[..., 0])
    deltas = np.angle(np.exp(1j * np.diff(angles, axis=1)))
    assert np.allclose(np.abs(deltas), spec.angle_step, atol=1e-9)
    # constant sign per trajectory: contexts and futures share one rotation
    assert np.all(np.abs(np.sum(np.sign(deltas), axis=1)) == deltas.shape[1])


def test_trajectory_shapes():
    spec = TrajectorySpec(context_len=3, horizon=7)
    b = sample_trajectories(spec, 11, np.random.default_rng(11))
    assert b.x.shape == (11, 6)  # flat rows: the K context points' coordinates
    assert b.y.shape == (11, 14)

