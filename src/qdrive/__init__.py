"""Bound and resonance state identification on simulated quantum processors.

The workflow chains deflated Hermitian eigenstate searches into
pseudovariance minimizations against a CAP-augmented non-Hermitian
Hamiltonian, executed as a parallel asynchronous task graph over a built-in
noisy circuit simulator with readout-inversion and zero-noise-extrapolation
mitigation, and validated against an exact-diagonalization oracle.

A submodule is imported only when it is named, and scipy only when a
trust-region or simplex phase starts: ``import qdrive.cli`` loads no scipy.
"""

__version__ = "0.1.0"

__all__ = [
    "circuits",
    "config",
    "estimator",
    "mitigation",
    "model",
    "optimize",
    "orchestrator",
    "pauli",
    "pipeline",
    "simulator",
    "__version__",
]
