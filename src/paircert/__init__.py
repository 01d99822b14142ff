"""Certified two-sided enclosures for expectations of functions of
i.i.d. uniform signs, built on pair-product averages.

For a function f on {-1,+1}^n whose Walsh coefficients are all
nonnegative, the pair-product average F over p seeded sample vectors
satisfies 0 <= F - E[f] <= G for every realization, where G is the same
average of the flip half-sum g. The certificate [F - G, F] is therefore
deterministic given the samples; randomness only affects its width.
Functions with signed or complex coefficients get disk certificates via
a coefficientwise dominating companion.

The bundled application: normalized resolvent traces and analytic
functional calculus of sign-diagonal Schrodinger operators on finite
graphs, where a single Cholesky inverse plus a rank-one flip sweep
yields f and g together.
"""

from .estimator import (
    NUMERICAL_SLACK,
    SCHEMA_VERSION,
    Certificate,
    DominatedCertificate,
    EvalCounters,
    certify,
    certify_dominated,
    choose_p,
    markov_apriori,
)
from .functions import (
    AnalyticFunction,
    BernoulliFunction,
    FactorizationError,
    GFunction,
    QuadratureError,
    ResolventParams,
    ResolventTraceFunction,
    SpectralTraceFunction,
    contour_norm_integral,
    dominating_resolvent_scale,
    naive_g,
)
from .graph import EdgeListError, Graph, build_torus_cayley, from_edge_list, laplacian
from .oracle import (
    BudgetError,
    CheckResult,
    WalshSpectrum,
    check_domination,
    check_nonnegative,
    exact_expectation,
    walsh_spectrum,
)
from .sampling import MAX_SIGNS, all_ones, flip, pair_product, sample, splitmix64

__version__ = "0.1.0"

__all__ = [
    "AnalyticFunction",
    "BernoulliFunction",
    "BudgetError",
    "Certificate",
    "CheckResult",
    "DominatedCertificate",
    "EdgeListError",
    "EvalCounters",
    "FactorizationError",
    "GFunction",
    "Graph",
    "MAX_SIGNS",
    "NUMERICAL_SLACK",
    "QuadratureError",
    "ResolventParams",
    "ResolventTraceFunction",
    "SCHEMA_VERSION",
    "SpectralTraceFunction",
    "WalshSpectrum",
    "all_ones",
    "build_torus_cayley",
    "certify",
    "certify_dominated",
    "check_domination",
    "check_nonnegative",
    "choose_p",
    "contour_norm_integral",
    "dominating_resolvent_scale",
    "exact_expectation",
    "flip",
    "from_edge_list",
    "laplacian",
    "markov_apriori",
    "naive_g",
    "pair_product",
    "sample",
    "splitmix64",
    "walsh_spectrum",
]
