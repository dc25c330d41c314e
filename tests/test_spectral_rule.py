"""Property tests pinning the one singular-value rule shared by every caller.

Z is drawn as a product of Gaussian factors with a planted rank r (r = 0 is
the zero matrix), at scales far from 1 so that the relative cutoff matters;
planted_cut puts singular values on either side of the cut.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from georeg import analyze_operator, fit, label_projector, pseudoinverse


@st.composite
def planted_rank(draw):
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    r = draw(st.integers(0, min(m, n)))
    scale = draw(st.sampled_from([1e-8, 1.0, 1e8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Z = scale * (rng.normal(size=(m, r)) @ rng.normal(size=(r, n)))
    return Z, rng.normal(size=m), r


@settings(derandomize=True, deadline=None, max_examples=150)
@given(planted_rank())
def test_pseudoinverse_is_the_min_norm_effective_inverse(case):
    Z, y, _ = case
    assert np.array_equal(pseudoinverse(Z), fit(Z, y, lam=0.0).effective_inverse())


@settings(derandomize=True, deadline=None, max_examples=150)
@given(planted_rank())
def test_fit_and_label_projector_share_the_rank(case):
    Z, y, r = case
    rank = fit(Z, y).factors.rank
    assert rank == label_projector(Z).rank
    assert rank == r


@st.composite
def planted_cut(draw):
    """(A, kept): singular values s_max, then some at 2x and some at 0.5x of
    the cut 1e-10 * max(A.shape) * s_max, then zeros; kept counts s_max and
    the 2x values."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    k = min(m, n)
    above = draw(st.integers(0, k - 1))
    below = draw(st.integers(0, k - 1 - above))
    s_max = draw(st.sampled_from([1e-8, 1.0, 1e8]))
    cut = 1e-10 * max(m, n) * s_max
    s = np.zeros(k)
    s[0], s[1 : 1 + above], s[1 + above : 1 + above + below] = s_max, 2.0 * cut, 0.5 * cut
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U, _ = np.linalg.qr(rng.normal(size=(m, k)))
    V, _ = np.linalg.qr(rng.normal(size=(n, k)))
    return (U * s) @ V.T, 1 + above


@settings(derandomize=True, deadline=None, max_examples=150)
@given(planted_cut())
def test_analyze_operator_and_label_projector_share_the_cut(case):
    A, kept = case
    assert fit(A, np.ones(A.shape[0]), lam=0.0).factors.rank == kept
    assert label_projector(A).rank == kept
    # each kept mode gives A^+ a singular value 1/s >= 1/s_max; a dropped one
    # leaves only round-off
    s_max = np.linalg.norm(A, 2)
    assert np.sum(np.linalg.svd(pseudoinverse(A), compute_uv=False) > 0.5 / s_max) == kept
    # zero-padded to a square of the same max(shape): the same cut
    P = np.zeros((max(A.shape),) * 2)
    P[: A.shape[0], : A.shape[1]] = A
    assert analyze_operator(P).rank == kept
