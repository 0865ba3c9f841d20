"""maslovflow: spectral flow and Maslov indices for families of symplectic
boundary value problems.

The package computes two independent integers for a one-parameter family of
self-adjoint boundary value problems — the spectral flow of the eigenvalue
families and the Maslov index of the induced path of boundary Lagrangian
pairs — and verifies that they agree.  All index computations reduce to
counting unitary eigenvalues crossing a co-oriented line, which keeps every
answer an exact integer with an auditable crossing report.
"""

from . import core, flow, maslov, odebvp, harness
from .core import (
    SymplecticSpace,
    Subspace,
    Splitting,
    make_space,
    make_splitting,
    subspace_from_span,
    annihilator,
    classify,
    pair_index,
    graph_rep,
    pair_unitary,
    normalize_metric,
    boxplus,
    diagonal_subspace,
)
from .flow import spectral_flow, spectral_projection, FlowOpts, CrossingReport
from .maslov import PairPath, maslov_index, maslov_index_block, complexify_and_compare
from .odebvp import (
    FirstOrderFamily,
    SecondOrderFamily,
    transfer_matrix,
    eigen_count,
    sf_bvp,
    mas_bvp,
    maslov_long,
    w_of_r,
)
from .harness import builtin_scenarios, run_scenario, property_sweep

__version__ = "0.1.0"

__all__ = [
    "SymplecticSpace",
    "Subspace",
    "Splitting",
    "make_space",
    "make_splitting",
    "subspace_from_span",
    "annihilator",
    "classify",
    "pair_index",
    "graph_rep",
    "pair_unitary",
    "normalize_metric",
    "boxplus",
    "diagonal_subspace",
    "spectral_flow",
    "spectral_projection",
    "FlowOpts",
    "CrossingReport",
    "PairPath",
    "maslov_index",
    "maslov_index_block",
    "complexify_and_compare",
    "FirstOrderFamily",
    "SecondOrderFamily",
    "transfer_matrix",
    "eigen_count",
    "sf_bvp",
    "mas_bvp",
    "maslov_long",
    "w_of_r",
    "builtin_scenarios",
    "run_scenario",
    "property_sweep",
    "core",
    "flow",
    "maslov",
    "odebvp",
    "harness",
]
