"""Exact-arithmetic toolkit for binomial cup-one dgas over Z and Z_p.

The package builds 1-minimal models of simplicial cochain algebras stage
by stage, computes the torsion invariants kappa_n, triple Massey
products with a Magnus-expansion cross-check, and nilpotent group
realizations, all with exact integer or mod-p arithmetic.

The top level carries the names of the README quick tour; everything
else is imported from its submodule (``cupone.delta``, ``cupone.linalg``,
``cupone.massey``, ...).
"""
from .model import kappa, minimal_model
from .presentation import borromean_presentation, presentation_complex
from .rings import RingSpec

__version__ = "0.1.0"

__all__ = [
    "RingSpec", "borromean_presentation", "kappa", "minimal_model",
    "presentation_complex", "__version__",
]
