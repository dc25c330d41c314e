"""The relu family's feature operator against its closed-form population limit.

For inputs with i.i.d. N(0, s^2) entries, s^2 = sigma_x^2 / N_f = 1 / N_f,
and relu features z = 2 max(0, W^T x), two moments are exact:

  * Stein's identity: E[z x^T] = s^2 W^T;
  * the degree-1 arc-cosine kernel (Cho & Saul 2009, "Kernel Methods for
    Deep Learning"): E[z z^T]_ij = (4 s^2 |w_i| |w_j| / 2 pi)
    (sin theta_ij + (pi - theta_ij) cos theta_ij), with theta_ij the angle
    between columns i and j of W.

So the least-squares operator P_f = (W G X)^T of a fixed W tends, as M grows
at fixed N_p < M and lam = 0, to P* = s^2 W Sigma_z^-1 W^T.  The oracle does
not depend on the package's factorizations.

Measured over seeds 0-19 at M = 2000 with 40 fits per seed: the entrywise
z-score of the mean P_f against P* had an rms of 0.89-1.12 and a largest
|z| of 2.2-4.5 at (N_f, N_p) = (16, 8) and (16, 32); |E P_f - P*|_F was
2.2e-2 to 2.8e-2, which is the standard error's size.  A Sigma_z whose
diagonal is 2% too large reads an rms z of 3.0-4.2 and a largest |z| of
11-19 at seed 1.
"""
import numpy as np
import pytest

from georeg import (
    ExperimentConfig,
    STREAM_TRAIN,
    apply_features,
    feature_operator_from_model,
    fit,
    make_feature_map,
    sample_dataset,
    sample_teacher,
)

N_FITS = 40


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
