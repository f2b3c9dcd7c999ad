"""Corona graph generation, structural analytics, closed-form spectra, and
the numeric oracle that cross-checks them."""

from .distributions import (
    DistributionSeries,
    PowerLawFit,
    cumulative_series,
    fit_exponential,
    fit_power_law,
)
from .graph import (
    CapExceededError,
    CoronaPlan,
    CountOverflowError,
    EdgeListError,
    Graph,
    SeedDescriptor,
    complete_graph,
    corona_iterate,
    corona_product,
    cycle_graph,
    edge_count_formula,
    node_count_formula,
    path_graph,
    read_edge_list,
    star_graph,
    write_edge_list,
)
from .oracle import (
    MatchReport,
    brute_betweenness,
    brute_diameter,
    build_matrix,
    compare_spectra,
    sym_eigenvalues,
    sym_eigensystem,
)
from .spectral import (
    CubicDiscrepancy,
    EigenPair,
    Spectrum,
    algebraic_connectivity,
    build_one_step_eigenpairs,
    closed_form_spectrum,
    corona_step,
    star_cubic_roots,
    step_rule,
)
from .structural import (
    average_degree,
    average_degree_limit,
    betweenness_clique_pathcount,
    betweenness_exact,
    cumulative_degree_formula_regular,
    degree_distribution_formula,
    degree_histogram,
    density,
    diameter_formula,
    diameter_measured,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
