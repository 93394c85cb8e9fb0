"""Operator means, perturbative expansions, and commutation probes on the
positive definite cone of small complex matrix algebras."""

from .errors import (
    ConvergenceFailure,
    DimMismatch,
    DomainError,
    FitFailure,
    IllConditioned,
    MeanlabError,
    NotInCone,
    NotKuboAndo,
    PositivityError,
    SingularError,
)
from .matcore import (
    HermitianMatrix,
    PdMatrix,
    Spectrum,
    congruence,
    eig,
    frobenius,
    func_calc,
    identity_pd,
    loewner_leq,
    matrix_from_json,
    matrix_to_json,
    mpow,
    pauli_basis,
)
from .means import (
    ARITHMETIC,
    GEOMETRIC,
    HARMONIC,
    SPECTRAL_GEOMETRIC,
    WASSERSTEIN,
    AxiomCheck,
    AxiomReport,
    MeanKind,
    RepresentingFunction,
    ando_variational_certificate,
    check_kubo_ando_axioms,
    conventional_power,
    from_function,
    kubo_ando_from_function,
    kubo_ando_power,
    mean,
    representing_function_of,
    wasserstein_alt,
)
from .expansion import (
    DEFAULT_GRID,
    EpsFamily,
    GeneralSeriesFit,
    SeriesFit,
    check_power_mean_expansion,
    check_unitary_invariance,
    check_wasserstein_expansion,
    fit_series,
    fit_series_general,
    gp_d1,
    gp_d2,
    gp_eval,
    pauli_pair,
)
from .preserver import (
    CoefficientSolveReport,
    MasaFunctional,
    ScalarFunctional,
    canonical_direction,
    constant_functional,
    linear_functional,
    masa_eval,
    masa_split,
    phi_of,
    preserver_residual,
    solve_coefficients,
    trace_power_functional,
)
from .centrality import (
    ChainReport,
    CommutatorReport,
    arith_mean_commutator,
    centrality_probe,
    comm_tol,
    commutator_norm,
    commutator_report,
    probe_report,
    remark1_identity_chain,
    remark2_identity_chain,
)
from .geometry import (
    GEODESIC_BW,
    GEODESIC_TRACE,
    GeodesicKind,
    check_geodesic_metric,
    d_bw,
    geodesic,
)
from .report import CheckItem, CheckReport
from .sampling import random_hermitian, random_pd, random_unitary, rng_for
from .verification import CRITERIA, run_all

__version__ = "0.1.0"
