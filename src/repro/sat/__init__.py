"""SAT solving: CDCL engines, DPLL reference, proofs, interpolation.

Two CDCL engines share one public surface: :class:`KernelSolver`
(``solver="kernel"``), the compiled C core, and the pure-Python
:class:`CdclSolver` reference (``solver="reference"``) it is
differentially pinned against.  The reference is also the readable
specification, the only engine that logs resolution/DRAT proofs, and
the fallback when no C compiler is available.  :func:`make_solver` is
the one place that picks an engine; the process default comes from
the ``REPRO_SAT_KERNEL`` environment variable via
:func:`resolve_engine`.
"""

from .dpll import DpllSolver, brute_force_models, brute_force_sat
from .kernel import CompiledCoreUnavailable, KernelSolver, make_solver
from .proof import DratProof, ProofError, ResolutionProof
from .solver import CdclSolver, SolverStats
from .types import (DEFAULT_SAT_ENGINE, SAT_ENGINE_ENV, SAT_ENGINES, Budget,
                    BudgetExceeded, SolveResult, resolve_engine)

__all__ = [
    "CdclSolver",
    "KernelSolver",
    "CompiledCoreUnavailable",
    "make_solver",
    "resolve_engine",
    "SAT_ENGINES",
    "SAT_ENGINE_ENV",
    "DEFAULT_SAT_ENGINE",
    "SolverStats",
    "DpllSolver",
    "brute_force_models",
    "brute_force_sat",
    "ResolutionProof",
    "DratProof",
    "ProofError",
    "Budget",
    "BudgetExceeded",
    "SolveResult",
]
