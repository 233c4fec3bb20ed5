"""Shared helpers for the test suite."""

import numpy as np


def eckart_young(U: np.ndarray, r: int) -> np.ndarray:
    """Closest rank <= r matrix in unweighted Frobenius distance."""
    u, s, vt = np.linalg.svd(np.asarray(U, dtype=float), full_matrices=False)
    s[r:] = 0.0
    return (u * s) @ vt


def fd_gradient_error(system, npts=20, h=1e-5, seed=3):
    """Max relative error between stored gradient equations and central
    finite differences of the system's scalar potential."""
    rng = np.random.default_rng(seed)
    errs = []
    for _ in range(npts):
        x = rng.normal(size=system.n_vars) + 1j * rng.normal(size=system.n_vars)
        for var, eq_index in enumerate(system.grad_map or []):
            if eq_index is None:
                continue
            xp, xm = x.copy(), x.copy()
            xp[var] += h
            xm[var] -= h
            fd = (system.potential.eval(xp) - system.potential.eval(xm)) / (2 * h)
            an = system.equations[eq_index].eval(x)
            errs.append(abs(fd - an) / (1.0 + abs(an)))
    return max(errs)
