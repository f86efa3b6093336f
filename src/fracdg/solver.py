"""Sparse linear solvers with post-hoc residual verification.

Reduced systems with wall-trace transport terms are nonsymmetric, so the
default there is a direct factorization; full-dimensional interior
penalty systems are symmetric (positive definite only while the penalty
dominates) and default to conjugate gradients with diagonal
preconditioning.  Whatever the path, the reported
relative residual is recomputed from the returned iterate, never taken
from the iteration itself.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import SparseSystem

METHODS = ("direct-LU", "CG", "BiCGStab")

# symmetry gate for CG, on the relative defect max|A - A^T| / max|A|
SYMMETRY_TOL = 1e-10

_NEWSTYLE_TOL = "rtol" in inspect.signature(spla.cg).parameters


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a linear solve."""

    iterations: int
    relative_residual: float
    method: str
    converged: bool

    def summary(self) -> str:
        state = "converged" if self.converged else "NOT converged"
        return (f"{self.method}: {state} in {self.iterations} iterations, "
                f"relative residual {self.relative_residual:.3e}")


def relative_residual(matrix, x: np.ndarray, rhs: np.ndarray) -> float:
    """2-norm residual of a candidate solution, relative where possible."""
    norm_b = float(np.linalg.norm(rhs))
    norm_r = float(np.linalg.norm(matrix @ x - rhs))
    return norm_r / norm_b if norm_b > 0.0 else norm_r


def _jacobi(matrix) -> spla.LinearOperator:
    diag = matrix.diagonal()
    if np.any(diag == 0.0):
        raise ValueError("zero diagonal entry, Jacobi preconditioner "
                         "unavailable")
    inv = 1.0 / diag
    n = matrix.shape[0]
    return spla.LinearOperator((n, n), matvec=lambda v: inv * v)


def _tol_kwargs(tol: float) -> dict:
    if _NEWSTYLE_TOL:
        return {"rtol": tol, "atol": 0.0}
    return {"tol": tol, "atol": 0.0}


def solve(system: SparseSystem, method: str | None = None,
          tol: float = 1e-10,
          max_iter: int | None = None) -> tuple[np.ndarray, SolveReport]:
    """Solve the assembled system and verify the result.

    ``method`` is one of "direct-LU", "CG", "BiCGStab"; by default reduced
    systems use the direct path and full-dimensional ones conjugate
    gradients (subject to the symmetry check).  Iterative non-convergence
    is not an exception: the best iterate is returned with
    ``report.converged`` false.  A singular matrix on the direct path
    raises.
    """
    matrix = system.matrix.tocsr()
    rhs = np.asarray(system.rhs, dtype=float)
    n = matrix.shape[0]
    if matrix.shape[0] != matrix.shape[1] or len(rhs) != n:
        raise ValueError("system is not square")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if max_iter is None:
        max_iter = max(1000, 10 * n)

    symmetric = system.symmetry_defect() < SYMMETRY_TOL
    if method is None:
        method = "CG" if (system.n_iface == 0 and symmetric) else "direct-LU"
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one "
                         f"of {METHODS}")
    if method == "CG" and not symmetric:
        raise ValueError("CG requested for a nonsymmetric system "
                         f"(defect {system.symmetry_defect():.2e})")

    if method == "direct-LU":
        try:
            lu = spla.splu(matrix.tocsc())
            x = lu.solve(rhs)
        except RuntimeError as exc:
            raise np.linalg.LinAlgError(f"direct factorization failed: "
                                        f"{exc}") from exc
        if not np.all(np.isfinite(x)):
            raise np.linalg.LinAlgError("direct solve produced non-finite "
                                        "values (singular matrix?)")
        res = relative_residual(matrix, x, rhs)
        return x, SolveReport(iterations=0, relative_residual=res,
                              method=method, converged=res <= tol)

    count = [0]

    def tick(_xk):
        count[0] += 1

    precond = _jacobi(matrix)
    runner = spla.cg if method == "CG" else spla.bicgstab
    x, info = runner(matrix, rhs, M=precond, maxiter=max_iter,
                     callback=tick, **_tol_kwargs(tol))
    if info < 0:
        raise np.linalg.LinAlgError(f"{method} failed with breakdown "
                                    f"(info={info})")
    res = relative_residual(matrix, x, rhs)
    return x, SolveReport(iterations=count[0], relative_residual=res,
                          method=method, converged=info == 0 and res <= tol)
