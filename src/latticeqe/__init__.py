"""Spectral certification toolkit for finite lattice boxes.

Analytic eigenbases of box adjacency matrices under zero-boundary and
wraparound conditions, quantum variance and time-averaged observables,
the certification of the eigenfunction embedding between the two boundary
conditions, truncated periodic Schrödinger operators, the shift overlaps of
sine eigenfunctions against the spherical function, and a reproducible
experiment driver.
"""

__version__ = "0.1.0"  # first, so modules may read it while the package imports

from .lattice import (
    BoxMismatchError,
    LatticeBox,
    Observable,
    ShiftSet,
    UnsupportedPeriodError,
    Wavefunction,
    cube,
    shift_set,
)
from .spectra import (
    SpectralData,
    adjacency_matrix,
    bloch_basis,
    degeneracy_classes,
    lemma_c1_bins,
    lemma_c1_count,
    lemma_c1_counts,
    sine_basis,
)
from .time_average import (
    bessel_bound_check,
    centered,
    hs_norm,
    numeric_time_average,
    quantum_variance,
    theta_decompose,
    time_averaged_observable,
)
from .correspondence import verify_correspondence
from .schrodinger import (
    PeriodicPotential,
    build_operator,
    counterexample_mass_profile,
    eigensolve_symmetric,
    partial_qe_experiment,
)
from .correlators import chebyshev_operator, spherical
