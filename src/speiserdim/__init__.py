"""Numerical toolkit for Julia set dimension of a lattice-built family of
finite-singular-value meromorphic maps: elliptic evaluation, orbit
classification and rendering, dimension bounds, and continuity envelopes."""

import os

# Set before the first numpy import: OpenBLAS otherwise starts a worker per extra
# core that spins ~0.13 s CPU at start-up, though BLAS here sees only a 2x10 np.cov.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .sphere import ExtendedComplex, INFINITY
from .elliptic import (
    PI,
    SpeiserdimError,
    eisenstein_g4,
    square_lattice,
    wp,
    wp_direct_sum,
    wp_prime,
)
from .families import (
    MapFamily,
    PoleData,
    PoleRangeError,
    enumerate_poles,
    eval_deriv_array,
    eval_family,
    eval_family_array,
    local_exponent,
    nearest_pole,
)
from .dynamics import (
    CODE_JULIA,
    CODE_UNDETERMINED,
    FixedPointData,
    GridSpec,
    LinearizationDomainError,
    NoAttractingFixedPointError,
    RasterResult,
    find_attracting_fixed_point,
    koenigs_check,
    koenigs_value,
    render,
)
from .dimension import (
    BasePoleError,
    ContractionViolationError,
    DegenerateMultiplierError,
    DegenerateSystemError,
    DimensionEstimate,
    IFSBranch,
    IFSBranchSet,
    InsufficientPolesError,
    UndefinedDimensionError,
    box_counting,
    continuity_envelope,
    estimate_branch_contractions,
    formula_lower,
    formula_upper,
    multiplier_sign_mismatch,
    qc_dilatation,
    series_exponent,
    series_terms,
    solve_bowen,
    synthetic_lattice_branches,
)
from .config import ConfigError, ExperimentConfig, load_config, parse_config, serialize_config

__version__ = "0.1.0"
