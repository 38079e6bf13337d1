"""Threshold quantum state tomography.

Plan a reduced set of projective measurements from diagonal counts and a
threshold, simulate or ingest those measurements, and reconstruct the
density matrix by maximum likelihood, with fidelity diagnostics and a
provable fidelity lower bound.

Every name lives in its module and is imported from there, as in
``from tqst.mle import reconstruct``; the package root holds only
``__version__``.
"""

__version__ = "0.1.0"
