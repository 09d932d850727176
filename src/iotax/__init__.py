"""Taxation systems, price equilibria, and partial market clearing for
input-output economies.

The package is organized around the physical economy (:mod:`iotax.model`),
structural matrix analysis (:mod:`iotax.matcheck`), the price-balance fixed
point (:mod:`iotax.equilibrium`), tax construction and value accounting
(:mod:`iotax.taxation`), and equilibria with partial market clearing
(:mod:`iotax.clearing`).  ``iotax.cli`` provides the batch front end.
"""

import logging

from . import errors
from .clearing import (
    ClearingConfig,
    ClearingEquilibrium,
    ClearingMethod,
    ClearingProblem,
    ClearingResult,
    SolutionFamily,
    alpha_from_solution,
    equilibrium_from_solution,
    min_excess_solution,
    ray_bounds,
    scale_function,
    solution_from_alpha,
    solve_clearing,
    support_solution,
    verify_partial_clearing,
)
from .equilibrium import (
    ClearingReportRow,
    MarkupResult,
    Normalization,
    PriceVector,
    RowStatus,
    SolverConfig,
    markup_condition,
    solve_price_balance,
    verify_clearing,
)
from .matcheck import (
    ConeMembership,
    ConeRegion,
    MatrixProfile,
    analyze_matrix,
    cone_membership,
)
from .model import (
    DemandRegime,
    EconomyModel,
    RegimeKind,
    balance_residual,
    demand_regime,
    load_economy,
)
from .taxation import (
    IndustryClassification,
    SustainabilityResult,
    TaxProvenance,
    TaxVector,
    ValueAccounts,
    check_tax_sustainable,
    classify_industries,
    perfect_tax,
    subsidy_requirements,
    sustainable_tax,
    tax_from_value_shares,
    value_accounts,
    value_balance_check,
)

__version__ = "0.1.0"

# The library logs; the application decides whether records are shown.
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "errors",
    "EconomyModel", "DemandRegime", "RegimeKind",
    "load_economy", "balance_residual", "demand_regime",
    "MatrixProfile", "ConeMembership", "ConeRegion",
    "analyze_matrix", "cone_membership",
    "PriceVector", "SolverConfig", "Normalization",
    "ClearingReportRow", "RowStatus", "MarkupResult",
    "solve_price_balance", "verify_clearing", "markup_condition",
    "TaxVector", "TaxProvenance", "ValueAccounts", "IndustryClassification",
    "SustainabilityResult",
    "sustainable_tax", "perfect_tax", "check_tax_sustainable",
    "value_accounts", "classify_industries", "subsidy_requirements",
    "value_balance_check", "tax_from_value_shares",
    "ClearingProblem", "SolutionFamily", "ClearingConfig", "ClearingEquilibrium",
    "ray_bounds", "scale_function", "solution_from_alpha", "alpha_from_solution",
    "min_excess_solution", "support_solution", "equilibrium_from_solution",
    "verify_partial_clearing", "solve_clearing", "ClearingResult", "ClearingMethod",
    "__version__",
]
