"""Apply the sparse operator and bound its two-weight norm from both sides.

The operator sends f to (sum over cubes of the r-th power of the scaled
cube integral of f dsigma, restricted to the cube)^(1/r). We compute it
pointwise, then bracket the norm: the certified indicator lower bound,
the fixed-point estimate with its stationarity residual and, since
p = q here, the certified Collatz-Wielandt upper bound; a dense grid
oracle checks the estimate on this tiny instance. Finally the
mixed-characteristic upper bound is shown with its two regimes.
"""

import numpy as np

from sparselab import (
    ExponentConfig,
    PowerWeight,
    StepFunction,
    apply_sparse,
    atoms_of,
    chain_family,
    estimate_opnorm,
    indicator_lower_bound,
    lp_norm,
    oracle_opnorm,
    rhs_branch,
    theorem_rhs,
    two_weight_char,
)

w = PowerWeight(-0.5)
cfg = ExponentConfig(p=2, q=2, r=1, alpha=1)
fam = chain_family(1)

part = atoms_of(fam)
f = StepFunction(part, np.ones(len(part)))
g = apply_sparse(fam, cfg, w, f)
print("operator applied to 1 with sigma = x^(-1/2):")
for atom, val in zip(part.atoms, g.values):
    print(f"  {atom}: {val:.12g}")
print(f"L^2_omega norm of the image: {lp_norm(g, w, 2):.12g}")

lower = indicator_lower_bound(fam, cfg, w, w)
est = estimate_opnorm(fam, cfg, w, w, seed=0)
char = two_weight_char(w, w, cfg, fam).value
print(f"\ncertified indicator bound: {lower:.12g}")
print(f"fixed-point estimate:      {est.ascent_value:.12g}"
      f" (converged={est.converged}, residual {est.residual:.1e},"
      f" {est.iterations} iterations)")
print(f"bracket [certified lower, estimate, certified upper] from {est.starts} start:")
print(f"  [{est.certified_lower:.12g}, {est.ascent_value:.12g}, {est.certified_upper:.12g}]")
print(f"two-weight characteristic: {char:.12g}")
print(f"maximizer profile: {np.round(est.maximizer.values, 6)}")

# two atoms only, so the dense oracle is cheap and tight
oracle = oracle_opnorm(fam, cfg, w, w)
print(f"grid oracle:               {oracle:.12g}")
print(f"estimate vs oracle gap:    {abs(est.ascent_value - oracle):.3g}")

rhs = theorem_rhs(cfg, char, a_sigma=1.0, a_omega=4.0)
print(f"\nupper bound, branch '{rhs_branch(cfg)}': {rhs:.12g}")
diag = ExponentConfig(p=2, q=2, r=1, alpha=0.5)
rhs_d = theorem_rhs(diag, 1.0, a_sigma=1.0, a_omega=4.0)
print(f"upper bound, branch '{rhs_branch(diag)}': {rhs_d:.12g}")
print("sandwich char <= indicator <= estimate <= upper:",
      char <= lower <= est.ascent_value <= est.certified_upper)
