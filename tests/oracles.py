"""Test-only oracles: quantities the library never computes during a run."""

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from robustbo.gp import gp_fit
from robustbo.kernels import KernelSpec, _as_points, cross_matrix, jittered_cho_factor
from robustbo.rcgp import rcgp_data
from robustbo.weights import PimqParams, _excess


def estimate_tc(params: PimqParams, y) -> int:
    """The number of observations y outside the plateau of params, counted on its own plateau test.
    The loop reads the same count off each fit's corrections, dropped points included."""
    return int(np.count_nonzero(_excess(params, y)[2]))


def deviation_schur(clean, corrupt, spec: KernelSpec, noise_var: float, params: PimqParams, x):
    """Predicted gap between the full robust mean and the clean-only GP mean.

    Requires ground-truth corruption labels, and assumes the clean residuals
    all lie inside the weight plateau (the caller asserts this).  Returns the
    deviation at each query point.

    clean and corrupt are (X, y) pairs; corrupt must be nonempty.
    """
    if np.size(corrupt[1]) == 0:
        raise ValueError("corrupt subset must be nonempty")
    Xq = _as_points(x, spec.dim)

    uc = gp_fit(*clean, spec, noise_var)

    def cov_uc(A, B):
        # Posterior covariance conditioned on the clean subset: K(A, B) - (L^-1 K_a)'(L^-1 K_b).
        Va = solve_triangular(uc.L, cross_matrix(spec, uc.X, A), lower=True)
        Vb = solve_triangular(uc.L, cross_matrix(spec, uc.X, B), lower=True)
        return cross_matrix(spec, A, B) - Va.T @ Vb  # without clean data, K(A, B) - 0

    Xc, yc, corr_c, _ = rcgp_data(*corrupt, spec, noise_var, params)
    if yc.shape[0] == 0:
        dev = np.zeros(Xq.shape[0])
        return dev if Xq.shape[0] > 1 else float(dev[0])
    S = cov_uc(Xc, Xc) + noise_var * np.diag(corr_c.jw)
    S = 0.5 * (S + S.T)
    L_s, _ = jittered_cho_factor(S, spec.outputscale + noise_var * float(np.max(corr_c.jw)))
    mu_uc_c, _ = uc.predict(Xc)
    rhs = cho_solve((L_s, True), yc - corr_c.mw - mu_uc_c)
    dev = cov_uc(Xc, Xq).T @ rhs
    return dev if Xq.shape[0] > 1 else float(dev[0])


def full_block_search(domain, acquisition):
    """The d > 1 search with every start in every block: 2*d calls of
    n_starts * coord_grid rows and one of n_starts, repeated starts and all.
    The library's search drops repeated starts; it must return the same point."""
    d, n, k = domain.dim, domain.n_starts, domain.coord_grid
    x = domain.starts
    for _ in range(2):
        for j in range(d):
            cand = np.repeat(x, k, axis=0)
            cand[:, j] = np.tile(np.linspace(domain.bounds[j, 0], domain.bounds[j, 1], k), n)
            vals = acquisition(cand).reshape(n, k)
            x = cand.reshape(n, k, d)[np.arange(n), np.argmax(vals, axis=1)]
    return x[int(np.argmax(acquisition(x)))].copy()
