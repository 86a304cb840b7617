"""Exhaustive check of the decoupling and symmetrization inequalities.

Shared by test_validation and test_acceptance.  It checks two inequalities
on small fixed matrix families; it is not a reference that a package path is
compared against, so it takes its inputs as given and checks none of them.
"""

import numpy as np

from chainbounds import exact_chaos_distribution, sign_patterns


def _lp_of_mean(values: np.ndarray, weights: np.ndarray | None, p: float) -> float:
    """(E values^p)^(1/p), E the mean over the first axis, plain or under
    weights, of the mean over the second axis where values has one.  As in
    estimate_moments, powers of values / max stay in [0, 1], so a large p
    cannot overflow; the root is scaled back by max."""
    top = float(values.max()) or 1.0
    powered = (values / top) ** p
    if powered.ndim == 2:
        powered = powered.mean(axis=1)
    mean = powered.mean() if weights is None else float(weights @ powered)
    return top * mean ** (1.0 / p)


def check_symmetrization_decoupling(matrices, *, selector_prob=0.5, table=None,
                                    p_list=(1.0, 2.0, 4.0)) -> dict:
    """Exhaustively verify two reduction inequalities on a small matrix family.

    Decoupling: with B = A^H A per family member and Rademacher xi,
        (E sup_A |sum_{i != j} B_ij xi_i xi_j|^p)^(1/p)
            <= 4 (E E' sup_A |xi . B xi'|^p)^(1/p),
    evaluated exactly over all sign patterns (and pattern pairs).

    Symmetrization: with independent selectors theta_i ~ Bernoulli(q) and a
    nonnegative value table v (default: the diagonals of the B matrices),
        (E sup_rows |sum_i (theta_i - q) v_i|^p)^(1/p)
            <= 2 (E E_eps sup_rows |sum_i eps_i theta_i v_i|^p)^(1/p),
    again exactly over all selector and sign patterns.
    """
    stack = np.asarray(matrices, dtype=complex)
    n = stack.shape[2]
    bilinear_sup = exact_chaos_distribution(stack, decoupled=True)  # first: it checks k 4^n
    # Off-diagonal chaos per sign pattern: xi.B xi - tr(B) = ||A xi||^2 - ||A||_F^2.
    # It reads A only through B, so a tall A gives way to its n x n QR factor R
    # (R^H R = B): the plain law's 2^n x k min(m, n) table then fits in k 4^n.
    square = np.linalg.qr(stack, mode="r") if stack.shape[1] > n else stack
    offdiag_sup = exact_chaos_distribution(square)
    decoupling = []
    for p in p_list:
        lhs = _lp_of_mean(offdiag_sup, None, p)
        rhs = 4.0 * _lp_of_mean(bilinear_sup, None, p)
        decoupling.append({"p": p, "lhs": lhs, "rhs": rhs, "holds": lhs <= rhs * (1 + 1e-12)})

    if table is None:
        grams = np.einsum("kmi,kmj->kij", stack.conj(), stack)
        v = np.einsum("kii->ki", grams).real.copy()
    else:
        v = np.asarray(table, dtype=float)
    q = selector_prob
    signs = sign_patterns(n)
    selectors = 0.5 * (signs + 1.0)
    weights = (q**selectors.sum(axis=1)) * ((1 - q) ** (n - selectors.sum(axis=1)))
    centered_sup = np.abs((selectors - q) @ v.T).max(axis=1)
    # For each selector pattern, average over all sign patterns of the
    # symmetrized sup; selected = theta_i v_i row by row.
    symmetrization = []
    signed = np.abs(np.einsum("ai,si,ki->ska", signs, selectors, v)).max(axis=1)
    for p in p_list:
        lhs = _lp_of_mean(centered_sup, weights, p)
        rhs = 2.0 * _lp_of_mean(signed, weights, p)
        symmetrization.append({"p": p, "lhs": lhs, "rhs": rhs, "holds": lhs <= rhs * (1 + 1e-12)})

    holds = all(r["holds"] for r in decoupling) and all(r["holds"] for r in symmetrization)
    return {
        "dimension": n,
        "family_size": stack.shape[0],
        "decoupling": decoupling,
        "symmetrization": symmetrization,
        "holds": holds,
    }
