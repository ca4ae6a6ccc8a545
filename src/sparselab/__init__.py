"""Two-weight norm experiments for sparse dyadic operators on [0, 1).

The package computes weight characteristics, certified operator-norm
estimates, local testing constants, and the power-weight sweeps that
exhibit the sharp growth exponents, all in exact dyadic arithmetic over
finite interval families.
"""

from types import ModuleType as _ModuleType

from .ascent import AscentResult, CubeObjective, maximize
from .dyadic import (
    ROOT,
    AtomPartition,
    DyadicInterval,
    FamilyGeometry,
    Relation,
    SparseFamily,
    atoms_of,
    carleson_constant,
    chain_family,
    packing_certified,
    relate,
    subdivide,
    uniform_partition,
)
from .errors import (
    BaselineViolationError,
    DegenerateInstanceError,
    InstanceParseError,
    ParameterError,
    SparselabError,
)
from .functions import StepFunction
from .instances import RandomInstance, make_instance, random_family, random_weight
from .sharpness import (
    SharpnessConfig,
    SlopeFit,
    SweepRow,
    default_eps_grid,
    dual_quantities,
    expected_slope,
    fit_slope,
    primal_quantities,
    sweep,
)
from .sparse import (
    OpNormEstimate,
    apply_sparse,
    estimate_opnorm,
    indicator_lower_bound,
    lp_norm,
    oracle_opnorm,
    rayleigh_objective,
    rhs_branch,
    theorem_rhs,
)
from .stopping import StoppingFamily, build_principal_cubes, principal_sum_bound
from .suites import SuiteResult, SuiteRow, run_suite
from .testing import (
    ComparabilityReport,
    MeasureEstimateQuery,
    PositiveDyadicOperator,
    check_lemma32,
    check_lemma41,
    check_lemma43,
    check_prop31,
    check_thm11,
    lsu_check,
    lsu_testing_sums,
    testing_T,
    testing_Tstar,
    verify_thm42,
)
from .weights import (
    LEBESGUE,
    CharacteristicReport,
    ExponentConfig,
    FeasibilityReport,
    PiecewiseWeight,
    PowerWeight,
    ainfty,
    average,
    classical_ap,
    dyadic_maximal,
    feasibility,
    one_weight_apq,
    two_weight_char,
    weighted_average,
    weighted_integral,
)

__version__ = "0.1.0"

# every name imported above: the public API has one list, the imports
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
