"""Independent references for the sparselab benchmark checks.

Every generated instance lives on the uniform grid of 64 level-6 cells of
[0, 1): family members have level at most 6 and the piecewise weights are
constant on those cells. The references below are built from a weight's
`values` array and each member's (level, position) alone. They never call
into sparselab (no `atoms_of`, no `mass`, no `CubeObjective`), so a change
to the program cannot move the value it is checked against.

Grid functions suffice: the operators only see a function through its
integrals over members, and averaging f over each cell against sigma keeps
those integrals while not increasing any L^p(sigma) norm. Norms over grid
functions are therefore the operator norms themselves.
"""

from __future__ import annotations

import numpy as np

LEVEL = 6
CELLS = 1 << LEVEL


def cell_masses(density_values) -> np.ndarray:
    """Masses of the 64 cells under a density constant on each cell."""
    values = np.asarray(density_values, dtype=float)
    if values.shape != (CELLS,):
        raise ValueError(f"expected {CELLS} cell densities, got shape {values.shape}")
    return values / CELLS


def incidence(members) -> np.ndarray:
    """0/1 member-by-cell matrix from (level, position) pairs."""
    matrix = np.zeros((len(members), CELLS))
    for j, (level, position) in enumerate(members):
        if not 0 <= level <= LEVEL or not 0 <= position < (1 << level):
            raise ValueError(f"member ({level}, {position}) is not on the 64-cell grid")
        width = CELLS >> level
        matrix[j, position * width : (position + 1) * width] = 1.0
    return matrix


def containment(matrix: np.ndarray) -> np.ndarray:
    """inside[R, Q] is True when member Q lies in member R (equality included)."""
    sizes = matrix.sum(axis=1)
    return (matrix @ matrix.T) == sizes[None, :]


def lengths(members) -> np.ndarray:
    return np.array([2.0 ** -level for level, _ in members])


def spectral_norm(matrix, gamma, sigma_cells, omega_cells) -> float:
    """L^2(sigma) -> L^2(omega) norm of f -> sum_Q gamma_Q (int_Q f dsigma) 1_Q.

    Equals || diag(sqrt omega) M^T diag(gamma) M diag(sqrt sigma) ||_2.
    """
    kernel = matrix.T @ (np.asarray(gamma, dtype=float)[:, None] * matrix)
    scaled = np.sqrt(omega_cells)[:, None] * kernel * np.sqrt(sigma_cells)[None, :]
    return float(np.linalg.norm(scaled, 2))


def _local_norms(matrix, inside, coefs, cell_weights, exponent) -> np.ndarray:
    """Per member R: || sum_{Q <= R} coefs_Q 1_Q ||_{L^exponent(cell_weights)}."""
    values = (inside * coefs[None, :]) @ matrix
    return ((values**exponent) @ cell_weights) ** (1.0 / exponent)


def characteristic(matrix, alpha, p, q, sigma_cells, omega_cells) -> float:
    """max over members of |Q|^-alpha omega(Q)^(1/q) sigma(Q)^(1/p')."""
    sizes = matrix.sum(axis=1) / CELLS
    p_conj = p / (p - 1.0)
    vals = sizes**-alpha * (matrix @ omega_cells) ** (1.0 / q) * (
        matrix @ sigma_cells
    ) ** (1.0 / p_conj)
    return float(vals.max())


def testing_constants(matrix, alpha, p, q, r, sigma_cells, omega_cells):
    """The testing constants T and, when p > r, T* (else None)."""
    inside = containment(matrix)
    sizes = matrix.sum(axis=1) / CELLS
    sig_q = matrix @ sigma_cells
    om_q = matrix @ omega_cells
    gamma = sizes ** (-alpha * r)
    t_norms = _local_norms(matrix, inside, gamma * sig_q**r, omega_cells, q / r)
    t_val = float(np.max(sig_q ** (-r / p) * t_norms))
    if not p > r:
        return t_val, None
    s = p / r
    tr = q / r
    s_norms = _local_norms(
        matrix, inside, gamma * sig_q ** (r - 1.0) * om_q, sigma_cells, s / (s - 1.0)
    )
    return t_val, float(np.max(om_q ** (-(tr - 1.0) / tr) * s_norms))


def lsu_testing_sums(matrix, taus, p, q, sigma_cells, omega_cells):
    """The two localized testing suprema of the positive operator with taus."""
    inside = containment(matrix)
    sizes = matrix.sum(axis=1) / CELLS
    sig_q = matrix @ sigma_cells
    om_q = matrix @ omega_cells
    taus = np.asarray(taus, dtype=float)
    p_conj = p / (p - 1.0)
    q_conj = q / (q - 1.0)
    n1 = _local_norms(matrix, inside, taus * om_q / sizes, sigma_cells, p_conj)
    n2 = _local_norms(matrix, inside, taus * sig_q / sizes, omega_cells, q)
    first = float(np.max(om_q ** (-1.0 / q_conj) * n1))
    second = float(np.max(sig_q ** (-1.0 / p) * n2))
    return first, second


def lemma41_sides(matrix, coefs, p, sigma_cells):
    """(||sum a_Q 1_Q||_{L^p(sigma)}, (sum_Q a_Q <phi_Q>_Q^(p-1) sigma(Q))^(1/p))."""
    coefs = np.asarray(coefs, dtype=float)
    inside = containment(matrix)
    sig_q = matrix @ sigma_cells
    lhs = float(((coefs @ matrix) ** p @ sigma_cells) ** (1.0 / p))
    local = inside.astype(float) @ (coefs * sig_q)
    rhs = float(np.sum(coefs * (local / sig_q) ** (p - 1.0) * sig_q) ** (1.0 / p))
    return lhs, rhs


def slope_target(p: float, q: float, alpha: float, variant: str) -> float:
    """Growth exponent of the sweep ratio: p' alpha / q (primal), alpha - 1/2 (dual)."""
    if variant == "primal":
        return (p / (p - 1.0)) * alpha / q
    if variant == "dual":
        return alpha - 0.5
    raise ValueError(f"unknown variant {variant!r}")


def fitted_slope(chars, ratios) -> float:
    """Least-squares slope of log(ratio) against log(char)."""
    x = np.log(np.asarray(chars, dtype=float))
    y = np.log(np.asarray(ratios, dtype=float))
    dx = x - x.mean()
    return float(np.dot(dx, y - y.mean()) / np.dot(dx, dx))


# Checks. Each returns a failure reason, or None when the value passes.


def close(name: str, value: float, ref: float, tol: float):
    if abs(value - ref) <= tol * abs(ref):
        return None
    return f"{name} {value!r} differs from reference {ref!r} by more than {tol:g} relative"


def at_least(name: str, value: float, bound: float, tol: float):
    if value >= bound - tol * abs(bound):
        return None
    return f"{name} {value!r} below {bound!r} (tolerance {tol:g} relative)"


def at_most(name: str, value: float, bound: float, tol: float):
    if value <= bound + tol * abs(bound):
        return None
    return f"{name} {value!r} above {bound!r} (tolerance {tol:g} relative)"
