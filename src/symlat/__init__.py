"""symlat: estimate the maximal symmetry of a regression function by testing
invariance hypotheses over a subgroup lattice, and exploit the estimate in
nonparametric regression."""

from .data import NeighborIndex, RegressionDataset
from .groups import (
    CayleyTable,
    GroupAction,
    GroupDescriptor,
    SamplerSpec,
    act,
    compose,
    elements_of,
    sample_elements,
)
from .invariance import (
    NoiseModel,
    TestOutcome,
    VariationBound,
    binom_tail,
    exceedance_test,
    gaussian_noise,
    known_bound,
    order_bound,
    ratio_permutation_test,
)
from .lattice import Lattice, SubgroupNode
from .projections import ProjectionMap
from .regression import (
    KernelRegressor,
    fit_lce,
    mspe,
    project_dataset,
    symmetrized_estimator,
)
from .search import (
    ExceedanceTester,
    OracleTester,
    PermutationTester,
    SearchConfig,
    SearchResult,
    bound_diagnostics,
    breadth_first_estimate,
    breadth_first_greedy_estimate,
    depth_first_estimate,
    resolve_tilde,
    run_search,
)

__version__ = "0.1.0"
KERNEL_BACKEND = "numpy"
