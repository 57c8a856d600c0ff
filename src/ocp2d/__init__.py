"""Radial statistics of the two-dimensional trapped log-gas.

Rate functions and finite-size corrections for the extreme radius, tilted
equilibrium measures and free energies for radial moments, exact finite-n
formulas at coupling 2, exact and Metropolis samplers, and the verification
harness confronting all of the above.
"""

from .edge import (
    MIN_GUMBEL_N,
    ConstrainedEdgeMeasure,
    GumbelScaling,
    constrained_measure,
    gumbel_log_factor,
    gumbel_scaling,
    invn_correction,
    left_rate,
    left_tail_prediction,
    lognn_correction,
    right_rate,
)
from .equilibrium import (
    EquilibriumMeasure,
    Piece,
    RadialMeasure,
    RingMass,
    StabilityDomain,
    TiltedPotential,
    TransitionClass,
    closed_form_energy,
    closed_form_entropy,
    energy_excess,
    entropy_excess,
    entropy_functional,
    equilibrium_measure,
    leading_cumulant,
    mean_field_energy,
    stability_domain,
    support_radii,
    transition_order,
    typical_value,
)
from .errors import (
    DomainError,
    NumericalError,
    Ocp2dError,
    SingularityError,
    StabilityError,
)
from .exact import (
    MgfResult,
    edge_cdf_log,
    edge_pdf_log,
    exact_moment,
    mgf_log,
)
from .harness import (
    CumulantReport,
    CumulantRow,
    GumbelReport,
    LdpRow,
    LdpTable,
    TransitionReport,
    TransitionRow,
    cumulant_check,
    extract_subleading,
    gumbel_check,
    left_tail_mcmc_table,
    left_tail_table,
    mgf_table,
    right_tail_table,
    subleading_coefficient,
    transition_scan,
    untested_beta,
)
from .sampling import (
    MetropolisChain,
    PlasmaConfig,
    SampleBatch,
    hamiltonian,
    radial_statistic,
    sample_kostlan,
    sample_mcmc,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "Ocp2dError", "DomainError", "StabilityError", "SingularityError",
    "NumericalError",
    # edge large deviations
    "left_rate", "right_rate", "lognn_correction", "invn_correction",
    "left_tail_prediction", "ConstrainedEdgeMeasure", "constrained_measure",
    "gumbel_log_factor", "GumbelScaling", "gumbel_scaling", "MIN_GUMBEL_N",
    # tilted equilibria
    "StabilityDomain", "stability_domain", "EquilibriumMeasure",
    "equilibrium_measure", "support_radii", "typical_value", "energy_excess",
    "entropy_excess", "closed_form_energy", "closed_form_entropy",
    "TransitionClass", "transition_order", "leading_cumulant", "Piece",
    "RingMass", "RadialMeasure", "TiltedPotential", "mean_field_energy",
    "entropy_functional",
    # finite-n exact formulas
    "edge_cdf_log", "edge_pdf_log", "exact_moment", "MgfResult", "mgf_log",
    # sampling
    "PlasmaConfig", "SampleBatch", "radial_statistic", "hamiltonian",
    "sample_kostlan", "MetropolisChain", "sample_mcmc",
    # harness
    "LdpRow", "LdpTable", "left_tail_table", "right_tail_table",
    "left_tail_mcmc_table", "mgf_table", "extract_subleading",
    "subleading_coefficient", "untested_beta", "CumulantRow",
    "CumulantReport", "cumulant_check", "GumbelReport", "gumbel_check",
    "TransitionRow", "TransitionReport", "transition_scan",
]
