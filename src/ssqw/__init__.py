"""Witten index of one-dimensional split-step quantum walks.

The walk on l2(Z, C^2) composes an anisotropic shift with a site-dependent
coin; its supersymmetric structure pairs two chiral blocks whose kernel
dimensions differ by a homotopy-invariant integer.  This package computes
that integer in closed form from the two limit coins (``analytic``) and
checks every formula against finite-lattice numerics: operator algebra
on band grids over rings (``lattice``), and banded kernel censuses, explicit
bound states and heat-trace estimates on open windows and banded
spectrum sampling on rings (``solver``).  ``checks`` holds the ten
verification criteria that pair each closed form with its numeric, and
``cli`` exposes the lot as the ``ssqw`` command, whose ``verify`` runs
those checks.
"""

from .analytic import (
    essential_spectrum,
    is_fredholm,
    kernel_dimensions,
    sign_flip_identities,
    transfer_eigenvalues,
    witten_index,
)
from .model import (
    CoinEntry,
    CoinProfile,
    CoinType,
    IndexReport,
    LimitCoin,
    ProfileError,
    WalkParameters,
    classify_coin,
    load_profile,
    validate_parameters,
)

__version__ = "0.1.0"

__all__ = [
    "CoinEntry",
    "CoinProfile",
    "CoinType",
    "IndexReport",
    "LimitCoin",
    "ProfileError",
    "WalkParameters",
    "classify_coin",
    "essential_spectrum",
    "is_fredholm",
    "kernel_dimensions",
    "load_profile",
    "sign_flip_identities",
    "transfer_eigenvalues",
    "validate_parameters",
    "witten_index",
    "__version__",
]
