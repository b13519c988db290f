import json

import numpy as np
import pytest
import scipy.linalg

from divgan.data import ConditionalRingSpec, RingMixtureSpec, nearest_modes, one_hot
from divgan.metrics import (
    EvalReport,
    conditional_coverage,
    dist_min,
    frechet_2d,
    latent_interpolation,
    mode_coverage,
    pairwise_diversity,
)
from divgan.nets import NetworkSpec, mlp_init

SPEC = RingMixtureSpec()


# -- mode coverage ---------------------------------------------------------


def test_one_sample_per_center():
    modes, hq = mode_coverage(SPEC.centers(), SPEC)
    assert modes == 8 and hq == 1.0


def test_collapsed_samples_at_origin():
    modes, hq = mode_coverage(np.zeros((100, 2)), SPEC)
    assert modes == 0 and hq == 0.0


def test_mode_coverage_brute_force(rng):
    samples = np.concatenate([
        SPEC.centers() + rng.normal(0, SPEC.std, size=(8, 2)),
        rng.normal(size=(300, 2)),
    ])
    modes, hq = mode_coverage(samples, SPEC)
    # independent recomputation: per-sample scan over all centers
    hq_count, captured = 0, set()
    for p in samples:
        dists = [np.linalg.norm(p - c) for c in SPEC.centers()]
        k = int(np.argmin(dists))
        if dists[k] <= 3 * SPEC.std:
            hq_count += 1
            captured.add(k)
    assert modes == len(captured)
    assert hq == pytest.approx(hq_count / len(samples))


def test_mode_coverage_permutation_invariant(rng):
    samples = rng.normal(size=(50, 2)) * 2
    a = mode_coverage(samples, SPEC)
    b = mode_coverage(samples[rng.permutation(50)], SPEC)
    assert a == b


def test_mode_coverage_empty():
    with pytest.raises(ValueError):
        mode_coverage(np.zeros((0, 2)), SPEC)


# -- pairwise diversity ------------------------------------------------------


def test_identical_samples_have_zero_diversity():
    assert pairwise_diversity(np.ones((5, 2))) == pytest.approx(0.0, abs=1e-12)


def test_two_point_diversity_arithmetic():
    got = pairwise_diversity(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert got == pytest.approx(2.0)


def test_diversity_near_collapse():
    """A nearly collapsed generator: the spread is ~1e-9 around 5.0, far
    below what an uncentered (Gram) formula can resolve."""
    samples = 5.0 + 1e-9 * np.random.default_rng(3).standard_normal((2500, 2))
    x = samples.astype(np.longdouble)
    centered = x - x.mean(axis=0)
    n, d = samples.shape
    ref = float(2 * np.sum(centered * centered) / ((n - 1) * d))
    assert pairwise_diversity(samples) == pytest.approx(ref, rel=1e-9, abs=0.0)


def test_diversity_matches_bruteforce(rng):
    samples = rng.normal(size=(50, 3))
    fast = pairwise_diversity(samples)
    acc = []
    for i in range(50):
        for j in range(i + 1, 50):
            acc.append(np.mean((samples[i] - samples[j]) ** 2))
    assert fast == pytest.approx(np.mean(acc), rel=1e-10)


def test_diversity_scaling_quadratic(rng):
    samples = rng.normal(size=(20, 2))
    base = pairwise_diversity(samples)
    assert pairwise_diversity(3.0 * samples) == pytest.approx(9.0 * base, rel=1e-9)


def test_diversity_needs_two_samples():
    with pytest.raises(ValueError):
        pairwise_diversity(np.ones((1, 2)))


# -- dist_min -----------------------------------------------------------------


def test_dist_min_zero_when_target_present(rng):
    samples = rng.normal(size=(10, 2))
    assert dist_min(samples, samples[3]) == 0.0


def test_dist_min_single_sample():
    got = dist_min(np.array([[1.0, 1.0]]), np.array([0.0, 0.0]))
    assert got == pytest.approx(1.0)


def test_dist_min_matches_bruteforce(rng):
    samples = rng.normal(size=(100, 4))
    gt = rng.normal(size=4)
    expected = min(float(np.mean((s - gt) ** 2)) for s in samples)
    assert dist_min(samples, gt) == pytest.approx(expected, rel=1e-12)


# -- frechet ---------------------------------------------------------------------


def sqrtm_frechet(a, b):
    """Oracle via scipy's eigendecomposition-based matrix square root."""
    mu_a, mu_b = a.mean(0), b.mean(0)
    ca = np.cov(a, rowvar=False, ddof=1)
    cb = np.cov(b, rowvar=False, ddof=1)
    mid = scipy.linalg.sqrtm(ca @ cb)
    if np.iscomplexobj(mid):
        mid = mid.real
    return float(np.sum((mu_a - mu_b) ** 2) + np.trace(ca + cb - 2 * mid))


def test_frechet_self_distance_zero(rng):
    a = rng.normal(size=(200, 2))
    assert frechet_2d(a, a) == pytest.approx(0.0, abs=1e-9)


def test_frechet_pure_mean_shift(rng):
    a = rng.normal(size=(4000, 2))
    d = 1.7
    b = a + np.array([d, 0.0])  # identical sample covariance by construction
    assert frechet_2d(a, b) == pytest.approx(d * d, rel=1e-9)


def test_frechet_matches_sqrtm_oracle(rng):
    for _ in range(20):
        # random SPD covariance structure via linear maps of Gaussians
        a = rng.normal(size=(500, 2)) @ rng.normal(size=(2, 2)) + rng.normal(size=2)
        b = rng.normal(size=(400, 2)) @ rng.normal(size=(2, 2)) + rng.normal(size=2)
        assert frechet_2d(a, b) == pytest.approx(sqrtm_frechet(a, b), abs=1e-8)


def test_frechet_symmetric(rng):
    a = rng.normal(size=(100, 2))
    b = 2 * rng.normal(size=(100, 2)) + 1
    assert frechet_2d(a, b) == pytest.approx(frechet_2d(b, a), rel=1e-12)


def test_frechet_degenerate_sets():
    with pytest.raises(ValueError):
        frechet_2d(np.zeros((2, 2)), np.zeros((10, 2)))


# -- interpolation -----------------------------------------------------------------


def ring_generator():
    return mlp_init(NetworkSpec(2, (16,), 2), seed=5)


def test_interpolation_endpoints_exact(rng):
    params = ring_generator()
    z_a, z_b = rng.normal(size=2), rng.normal(size=2)
    res = latent_interpolation(params, z_a, z_b, steps=7, mode="slerp")
    from divgan.nets import generator_forward

    ya = generator_forward(params, z_a[None, :]).data[0]
    yb = generator_forward(params, z_b[None, :]).data[0]
    assert np.array_equal(res.outputs[0], ya)
    assert np.array_equal(res.outputs[-1], yb)


def test_interpolation_two_steps_is_endpoints_only(rng):
    params = ring_generator()
    z_a, z_b = rng.normal(size=2), rng.normal(size=2)
    res = latent_interpolation(params, z_a, z_b, steps=2, mode="linear")
    assert res.outputs.shape == (2, 2)
    assert np.array_equal(res.latents, np.stack([z_a, z_b]))


def test_slerp_preserves_norm(rng):
    params = ring_generator()
    z_a = rng.normal(size=2)
    z_b = rng.normal(size=2)
    z_b *= np.linalg.norm(z_a) / np.linalg.norm(z_b)
    res = latent_interpolation(params, z_a, z_b, steps=17, mode="slerp")
    norms = np.linalg.norm(res.latents, axis=1)
    assert np.max(np.abs(norms - np.linalg.norm(z_a))) < 1e-9
    assert not res.slerp_fallback


def test_linear_midpoint(rng):
    params = ring_generator()
    z_a, z_b = rng.normal(size=2), rng.normal(size=2)
    res = latent_interpolation(params, z_a, z_b, steps=3, mode="linear")
    assert np.allclose(res.latents[1], (z_a + z_b) / 2, atol=1e-12)


def test_slerp_degenerate_falls_back_to_linear():
    params = ring_generator()
    z = np.array([1.0, 1.0])
    res = latent_interpolation(params, z, 2.0 * z, steps=5, mode="slerp")
    assert res.slerp_fallback
    assert np.allclose(res.latents[2], 1.5 * z)
    anti = latent_interpolation(params, z, -z, steps=5, mode="slerp")
    assert anti.slerp_fallback


def test_interpolation_validation():
    params = ring_generator()
    with pytest.raises(ValueError):
        latent_interpolation(params, np.ones(2), np.zeros(2), steps=1)
    with pytest.raises(ValueError):
        latent_interpolation(params, np.zeros(2), np.ones(2), steps=3, mode="slerp")


def test_conditional_interpolation_shapes(rng):
    params = mlp_init(NetworkSpec(6, (8,), 2), seed=1)
    res = latent_interpolation(
        params, rng.normal(size=2), rng.normal(size=2), steps=9,
        mode="linear", x=one_hot(np.array([1]), 4)[0],
    )
    assert res.outputs.shape == (9, 2)


# -- report + conditional coverage ----------------------------------------------


def test_eval_report_json_roundtrip():
    rep = EvalReport(
        modes_captured=8, hq_fraction=0.8, pairwise_diversity=4.2,
        dist_min=0.01, frechet2=0.3, n_samples=2500,
    )
    doc = json.loads(rep.to_json())
    assert set(doc) == {
        "modes_captured", "hq_fraction", "pairwise_diversity",
        "dist_min", "frechet2", "n_samples",
    }
    assert EvalReport.from_json(rep.to_json()) == rep


def test_eval_report_validation():
    with pytest.raises(ValueError):
        EvalReport(1, 1.5, 0.0, 0.0, 0.0, 10)
    with pytest.raises(ValueError):
        EvalReport(1, 0.5, np.nan, 0.0, 0.0, 10)


def test_conditional_coverage_perfect_and_misplaced():
    spec = ConditionalRingSpec()
    centers = spec.base.centers()
    y = centers.copy()
    labels = np.repeat(np.arange(4), 2)  # each label at its two own modes
    per_label, frac = conditional_coverage(y, labels, spec)
    assert per_label == [True] * 4 and frac == 1.0
    wrong = np.roll(labels, 2)  # every sample now credited to the wrong label
    per_label, frac = conditional_coverage(y, wrong, spec)
    assert frac == 0.0
