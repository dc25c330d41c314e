"""The relu family's feature operator against its closed-form population limit.

For inputs with i.i.d. N(0, s^2) entries, s^2 = sigma_x^2 / N_f = 1 / N_f,
and relu features z = 2 max(0, W^T x), two moments are exact:

  * Stein's identity: E[z x^T] = s^2 W^T;
  * the degree-1 arc-cosine kernel (Cho & Saul 2009, "Kernel Methods for
    Deep Learning"): E[z z^T]_ij = (4 s^2 |w_i| |w_j| / 2 pi)
    (sin theta_ij + (pi - theta_ij) cos theta_ij), with theta_ij the angle
    between columns i and j of W.

So the least-squares operator P_f = (W G X)^T of a fixed W tends, as M grows
at fixed N_p < M and lam = 0, to P* = s^2 W Sigma_z^-1 W^T, and the bias^2
of a replica with teacher beta to s^2 |(I - P*)^T beta|^2.  The oracle does
not depend on the package's factorizations.

Measured over seeds 0-19 at M = 2000 with 40 fits per seed: the entrywise
z-score of the mean P_f against P* had an rms of 0.89-1.12 and a largest
|z| of 2.2-4.5 at (N_f, N_p) = (16, 8) and (16, 32); |E P_f - P*|_F was
2.2e-2 to 2.8e-2, which is the standard error's size.  A Sigma_z whose
diagonal is 2% too large reads an rms z of 3.0-4.2 and a largest |z| of
11-19 at seed 1.

The bias^2 test compares the one-sided bias_sq of 200 replicas at M = 1024
(lam = 1e-8, the bias-variance command's) with each replica's own population
bias^2.  Over seeds 0-39 the z-score of the mean gap read -2.70 to 1.85 at
(N_f, N_p) = (16, 8) and -3.07 to 2.20 at (32, 16).  Over seeds 0-19 the
mean gap was -1.7e-3, -6.0e-4 and -2.0e-4 at M = 256, 1024 and 4096 for
(16, 8), against a population bias^2 of about 0.6, so the finite-M gap is
below the standard error at M >= 1024.  At seed 3 a Sigma_z whose diagonal
is 5% too large reads z = -7.2 and -7.6, and P* = 0 reads -27 and -37.

P* is symmetric, so its modes have theta = 0.  The largest mode angle of P_f
falls towards that limit as M grows at fixed N_p, about as M^-1/2: over 10
seeds at lam = 1e-8 its mean was 29.6, 10.9, 5.1 and 2.5 degrees at
(N_f, N_p) = (64, 128), the N_p/M = 0.5 point of c04, for M = 256, 1024,
4096 and 16384, and 29.5, 20.2, 8.9 and 4.3 degrees at (16, 8).  c04's peak
above 75 degrees sits at N_p = M, far from this limit; no bound is drawn
from it.
"""
import numpy as np
import pytest

from georeg import (
    ExperimentConfig,
    STREAM_TEACHER,
    STREAM_TRAIN,
    STREAM_WEIGHTS,
    apply_features,
    feature_operator_from_model,
    fit,
    make_feature_map,
    sample_dataset,
    sample_teacher,
)
from georeg.decomposition import _one_sided_metrics

N_FITS = 40
N_REPLICAS = 200


def _population_operator(W: np.ndarray) -> np.ndarray:
    """P* = s^2 W Sigma_z^-1 W^T for relu features of inputs with per-entry variance s^2 = 1 / N_f."""
    s2 = 1.0 / W.shape[0]
    norms = np.linalg.norm(W, axis=0)
    cos = np.clip((W.T @ W) / np.outer(norms, norms), -1.0, 1.0)
    theta = np.arccos(cos)
    sigma_z = 4.0 * s2 * np.outer(norms, norms) / (2.0 * np.pi) * (np.sin(theta) + (np.pi - theta) * cos)
    return s2 * W @ np.linalg.solve(sigma_z, W.T)


@pytest.mark.parametrize("n_p", [8, 32])
def test_mean_feature_operator_matches_the_population_operator(n_p):
    cfg = ExperimentConfig(m=2000, n_f=16, n_p=n_p, activation="relu", lam=0.0, seed=1)
    beta = sample_teacher(cfg)
    fmap = make_feature_map(cfg)
    P = np.empty((N_FITS, cfg.n_f, cfg.n_f))
    for k in range(N_FITS):
        data = sample_dataset(cfg, beta, (0, k, STREAM_TRAIN))
        model = fit(apply_features(fmap, data.X), data.y, lam=0.0, feature_map=fmap)
        P[k] = feature_operator_from_model(model, data.X)
    se = P.std(axis=0, ddof=1) / np.sqrt(N_FITS)
    z = (P.mean(axis=0) - _population_operator(fmap.W)) / se
    rms, worst = float(np.sqrt(np.mean(z**2))), float(np.abs(z).max())
    assert 0.7 <= rms <= 1.3, f"rms z = {rms:.3f}"
    assert worst <= 5.0, f"max |z| = {worst:.2f}"


def _population_bias_sq(cfg: ExperimentConfig, replica_idx: int) -> float:
    """s^2 |(I - P*)^T beta|^2 of one replica, its W and beta rebuilt from its stream tags."""
    key = (0, replica_idx)
    beta = sample_teacher(cfg, key + (STREAM_TEACHER,))
    r = beta - _population_operator(make_feature_map(cfg, key + (STREAM_WEIGHTS,)).W).T @ beta
    return float(r @ r) / cfg.n_f


@pytest.mark.parametrize("n_f, n_p", [(16, 8), (32, 16)])
def test_one_sided_bias_sq_matches_the_population_bias_sq(n_f, n_p):
    cfg = ExperimentConfig(m=1024, n_f=n_f, n_p=n_p, activation="relu", seed=3)
    gap = [_one_sided_metrics(cfg, 0, k)["bias_sq"] - _population_bias_sq(cfg, k) for k in range(N_REPLICAS)]
    z = np.mean(gap) / (np.std(gap, ddof=1) / np.sqrt(N_REPLICAS))
    assert abs(z) <= 4.0, f"z = {z:.2f}"
