"""Gauge (Henstock-Kurzweil) integration engine and Fresnel path-integral lab.

The package is organized bottom-up:

    cells       tagged cells, gauges, divisions of the line, Riemann sums
    fresnel     incomplete Fresnel integral, oscillatory densities and
                distributions on product cells, incremental kernels
    oscquad     analytic chirp quadrature (Filon cells with exact moments)
    integrate   adaptive gauge integration on windows, undamped improper
                oscillatory integrals
    cylinder    time sets, undamped reduction of cylinder integrals to
                finite dimension
    propagator  closed-form and undamped time-sliced propagators, perturbation
                series terms
    exchange    growth tables, bounded-convergence diagnostics and the
                series/integral exchange experiment
    config      run configuration (JSON file, env var, flag overrides)
    reports     deterministic CSV/JSON report rendering
    acceptance  the runnable acceptance suite behind `gaugeint selftest`
    cli         the command-line front end
"""

from .errors import (
    AssociationError,
    DimensionCapError,
    GaugeIntError,
    GridTooCoarseError,
    IntegrandError,
    NoConvergenceError,
    NoMFoundError,
    ResourceLimitError,
    ScheduleError,
)
from .cells import (
    Cell1D,
    CellND,
    Division1D,
    DivisionReport,
    Gauge1D,
    TaggedCell1D,
    Violation,
    cell_volume,
    cousin_division,
    division_from_json,
    division_to_json,
    is_delta_fine,
    riemann_sum,
    tag_is_associated,
    validate_division,
)
from .fresnel import (
    FigureND,
    IncrementSchedule,
    fresnel_distribution,
    incremental_density,
    incremental_distribution,
)
from .integrate import (
    IntegrationReport,
    OscillatoryTailSpec,
    fresnel_line_integral,
    hk_integrate_1d,
    oscillatory_improper,
)
from .oscquad import (
    FRESNEL_LIMIT,
    ROOT_MINUS_I_OVER_2PI,
    adaptive_chirp_integral,
    chirp_filon_weights,
    damped_chirp_filon_weights,
    fresnel_integral,
)
from .cylinder import TimeSet, reduce_cylinder_integral
from .propagator import (
    Potential,
    PropagatorQuery,
    SliceGrid,
    closed_kernel,
    free_kernel,
    free_kernel_semigroup_residual,
    harmonic_kernel_closed,
    perturbation_partial_sum,
    perturbation_partial_sums,
    perturbation_term,
    perturbation_terms,
    psi0_closed,
    psi0_sliced,
    psi_sliced,
)
from .exchange import (
    ConvergenceWitness,
    ExchangeRow,
    GrowthTable,
    abs_g0_growth,
    bounded_convergence_diagnostic,
    envelope_growth_table,
    exchange_experiment,
    free_modulus_envelope,
    gaussian_envelope,
    growth_verdict,
    partial_sum_family,
)
from .config import (
    IntegratorConfig,
    LabConfig,
    PathintConfig,
    RunConfig,
    load_config,
)

__version__ = "0.1.0"
