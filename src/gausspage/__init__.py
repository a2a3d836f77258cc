"""Entanglement entropy statistics of random fermionic Gaussian states.

Closed-form Page curves, Jacobi-ensemble level statistics, and Monte Carlo
samplers for the four state ensembles (Haar Gaussian, random quadratic
Hamiltonian eigenstates, number-conserving eigenstates, and full-Hilbert
Haar pure states), plus a CLI that emits curve/density/variance tables.
"""

from gausspage.linalg import RngStream, haar_orthogonal, antisym_canonical
from gausspage.gstates import (
    SystemSplit,
    mode_entropy,
    reference_structure,
    conjugate,
    restrict,
    entropy_from_spectrum,
)
from gausspage.rmt import JacobiKernelCtx, build_kernel_ctx
from gausspage import formulas, ensembles, stats

__all__ = [
    "RngStream",
    "haar_orthogonal",
    "antisym_canonical",
    "SystemSplit",
    "mode_entropy",
    "reference_structure",
    "conjugate",
    "restrict",
    "entropy_from_spectrum",
    "JacobiKernelCtx",
    "build_kernel_ctx",
    "formulas",
    "ensembles",
    "stats",
]

__version__ = "0.1.0"
