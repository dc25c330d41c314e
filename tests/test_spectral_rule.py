"""Property tests pinning the one singular-value rule shared by every caller.

Z is drawn as a product of Gaussian factors with a planted rank r (r = 0 is
the zero matrix), at scales far from 1 so that the relative cutoff matters.
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
    rank = fit(Z, y).rank_z
    assert rank == label_projector(Z).rank
    assert rank == r


@settings(derandomize=True, deadline=None, max_examples=150)
@given(planted_rank(), st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]))
def test_analyze_operator_and_label_projector_share_the_cut(case, tol):
    Z, _, _ = case
    # zero-padded to a square: the same nonzero singular values
    A = np.zeros((max(Z.shape),) * 2)
    A[: Z.shape[0], : Z.shape[1]] = Z
    assert analyze_operator(A, rank_tol=tol).rank == label_projector(A, rel_tol=tol).rank
