"""Sparse linear solvers with post-hoc residual verification.

Reduced systems with wall-trace transport terms are nonsymmetric, so the
default there is a direct factorization; full-dimensional interior
penalty systems are symmetric (positive definite only while the penalty
dominates) and default to conjugate gradients.  Every factorization,
symmetric or not, runs SuperLU in symmetric mode (``_factor``): a
minimum degree ordering of A + A^T applied to rows and columns alike,
with a diagonal pivot threshold of 0.01, so the ordering survives
pivoting unless a diagonal entry is too small; the direct path's fill
(the entries SuperLU stores for L and U, ``lu.nnz``) is on the report.
Both iterative methods are preconditioned by a two-level additive
Schwarz method: the inverses of the matrix's element diagonal blocks
(block Jacobi), which undo the conditioning of the local monomial
bases, plus an exact solve on a coarse space,
``M^-1 r = B r + P A0^-1 P^T r`` with ``A0 = P^T A P`` factored once.
The columns of P span the coarse space: a full system carries the
continuous P1 hats on its mesh's vertices, and any other system gets
the injection of the first dof of every block, the constant of the
monomial basis.  The coarse level keeps the iteration count from
growing as h shrinks.  On the hats the interior jumps vanish, so A0 is
the conforming P1 form with the boundary terms, which stays positive
definite where the fine matrix is not.  Both methods start from the
coarse solution ``x0 = P A0^-1 P^T b``, one more coarse solve, and stop
on the residual ``rtol * ||b||`` as from a zero start.  A system without
element blocks gets 1x1 blocks, i.e. point Jacobi, and its coarse space
is the whole space.  Whatever the path, the reported relative residual
is recomputed from the returned iterate, never taken from the iteration
itself.
"""

from __future__ import annotations

import inspect
import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import _CHUNK_ENTRIES, SparseSystem, _canonical, _search
from .geometry import refusal

METHODS = ("direct-LU", "CG", "BiCGStab")

# symmetry gate for CG, on the relative defect max|A - A^T| / max|A|
SYMMETRY_TOL = 1e-10

_NEWSTYLE_TOL = "rtol" in inspect.signature(spla.cg).parameters

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a linear solve.

    ``indefinite_blocks`` counts the preconditioner's element blocks
    whose symmetric part is not positive definite; one such block proves
    a symmetric matrix indefinite.  The direct path builds no blocks and
    reports 0.  ``fill`` is the number of entries SuperLU stores for the
    LU factors (``lu.nnz``) on the direct path and 0 on the iterative
    ones.  Its supernodal storage can hold entries that the CSC copies
    ``lu.L`` and ``lu.U`` leave out, so the count can exceed theirs.
    """

    iterations: int
    relative_residual: float
    method: str
    converged: bool
    indefinite_blocks: int = 0
    fill: int = 0

    def summary(self) -> str:
        state = "converged" if self.converged else "NOT converged"
        cost = (f", LU fill {self.fill}" if self.method == "direct-LU"
                else f" in {self.iterations} iterations")
        text = (f"{self.method}: {state}{cost}, "
                f"relative residual {self.relative_residual:.3e}")
        if self.indefinite_blocks:
            text += (f", {self.indefinite_blocks} element blocks not "
                     "positive definite")
            if self.method == "CG":
                text += " (indefinite matrix, CG unreliable)"
        return text


def relative_residual(matrix, x: np.ndarray, rhs: np.ndarray) -> float:
    """2-norm residual of a candidate solution, relative where possible."""
    norm_b = float(np.linalg.norm(rhs))
    norm_r = float(np.linalg.norm(matrix @ x - rhs))
    return norm_r / norm_b if norm_b > 0.0 else norm_r


def _block_starts(n: int, block_offsets) -> np.ndarray:
    """First dof of every block; 1x1 blocks when ``block_offsets`` is None."""
    return (np.arange(n) if block_offsets is None
            else np.asarray(block_offsets, dtype=np.int64))


def _factor(matrix):
    """Sparse LU of ``matrix`` in SuperLU's symmetric mode."""
    return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.01,
                     options=dict(SymmetricMode=True))


def _block_jacobi(matrix: sp.csr_matrix, block_offsets):
    """Block-diagonal inverse of the diagonal blocks of ``matrix``.

    Returns the preconditioner as a CSR matrix and the number of blocks
    whose symmetric part is not positive definite; their eigenvalues are
    computed only in the batches a Cholesky factorization rejects.  The
    blocks start at ``block_offsets`` (1x1 blocks when it is None) and
    are read at their positions in the CSR, a batch of blocks of one
    size at a time: one search per row finds the block's first column,
    and the block's stored columns follow it (a non-canonical matrix is
    summed on a copy first).  The inverses are written straight into the
    CSR they form.  A singular block raises ``ValueError``.
    """
    matrix = _canonical(matrix)
    if not matrix.nnz:
        raise ValueError("singular diagonal blocks of a zero matrix, block "
                         "preconditioner unavailable")
    n = matrix.shape[0]
    starts = _block_starts(n, block_offsets)
    sizes = np.diff(starts, append=n)
    # entries before every block, and the CSR of the block diagonal
    before = np.concatenate([[0], np.cumsum(sizes ** 2)])
    index = np.int32 if max(n, before[-1]) < 2**31 else np.int64
    block_of = np.repeat(np.arange(len(starts)), sizes)
    indptr = np.append(before[block_of] + (np.arange(n) - starts[block_of])
                       * sizes[block_of], before[-1]).astype(index)
    del block_of
    indices = np.empty(before[-1], dtype=index)
    data = np.empty(before[-1])

    indefinite = 0
    for s in np.unique(sizes):
        same = np.flatnonzero(sizes == s)
        batch = max(1, _CHUNK_ENTRIES // s ** 2)
        for ids in (same[i:i + batch] for i in range(0, len(same), batch)):
            dofs = starts[ids, None] + np.arange(s)
            # the stored columns of a block row follow its first one
            pos = _search(matrix, dofs, starts[ids, None])[..., None] \
                + np.arange(s)
            inside = pos < matrix.indptr[dofs + 1][..., None]
            pos[~inside] = 0
            col = matrix.indices[pos] - starts[ids, None, None]
            if inside.all() and np.all(col == np.arange(s)):
                blocks = matrix.data[pos]
            else:  # some entry of a block is not stored
                at = np.nonzero(inside & (col < s))
                blocks = np.zeros((len(ids), s, s))
                blocks[at[:2] + (col[at],)] = matrix.data[pos[at]]
            try:
                inv = np.linalg.inv(blocks)
                if not np.all(np.isfinite(inv)):
                    raise np.linalg.LinAlgError
            except np.linalg.LinAlgError as exc:
                raise ValueError(f"singular {s}x{s} diagonal block, block "
                                 "preconditioner unavailable") from exc
            sym = 0.5 * (blocks + blocks.transpose(0, 2, 1))
            try:  # a batch that Cholesky factors holds no indefinite block
                np.linalg.cholesky(sym)
            except np.linalg.LinAlgError:
                indefinite += int(np.count_nonzero(
                    np.linalg.eigvalsh(sym)[:, 0] <= 0.0))
            pos = before[ids, None] + np.arange(s * s)
            data[pos] = inv.reshape(len(ids), -1)
            indices[pos] = np.broadcast_to(dofs[:, None, :],
                                           inv.shape).reshape(len(ids), -1)
    return sp.csr_matrix((data, indices, indptr), shape=(n, n)), indefinite


def _two_level(matrix: sp.csr_matrix, block_offsets, prolongation=None):
    """Block Jacobi plus an exact solve on a coarse space.

    Returns the preconditioner ``r -> B r + P A0^-1 P^T r`` and its
    coarse part ``r -> P A0^-1 P^T r`` as linear operators, and the
    indefinite-block count of ``_block_jacobi``.  The columns of
    ``prolongation`` (P) span the coarse space; None means the injection
    of the first dof of every block.  ``A0 = P^T A P`` is factored once.
    A singular block or coarse matrix raises ``ValueError``.
    """
    smoother, indefinite = _block_jacobi(matrix, block_offsets)
    n = matrix.shape[0]
    if prolongation is None:
        starts = _block_starts(n, block_offsets)
        prolongation = sp.csr_matrix(
            (np.ones(len(starts)), (starts, np.arange(len(starts)))),
            shape=(n, len(starts)))
    restriction = prolongation.T.tocsr()
    coarse = restriction @ (matrix @ prolongation)
    try:
        lu = _factor(coarse)
    except RuntimeError as exc:
        raise ValueError(f"singular {coarse.shape[0]}x{coarse.shape[1]} "
                         "coarse matrix, coarse solve unavailable") from exc

    def correct(r):
        return prolongation @ lu.solve(restriction @ r)

    def apply(r):
        z = smoother @ r
        z += correct(r)
        return z

    return (spla.LinearOperator(matrix.shape, matvec=apply, dtype=float),
            spla.LinearOperator(matrix.shape, matvec=correct, dtype=float),
            indefinite)


def _tol_kwargs(tol: float) -> dict:
    if _NEWSTYLE_TOL:
        return {"rtol": tol, "atol": 0.0}
    return {"tol": tol, "atol": 0.0}


def check_stopping(tol: float, max_iter: int | None) -> None:
    """Refuse a residual target outside (0, 1) or a negative iteration
    cap (None picks one); the ValueError names ``tol`` or ``max_iter``."""
    if not 0.0 < tol < 1.0:
        raise refusal("tol", "tol must lie strictly between 0 and 1")
    if max_iter is not None and max_iter < 0:
        raise refusal("max_iter", "max_iter cannot be negative")


def solve(system: SparseSystem, method: str | None = None,
          tol: float = 1e-10,
          max_iter: int | None = None) -> tuple[np.ndarray, SolveReport]:
    """Solve the assembled system and verify the result.

    ``method`` is one of "direct-LU", "CG", "BiCGStab"; by default reduced
    systems use the direct path and full-dimensional ones conjugate
    gradients (subject to the symmetry check).  Iterative non-convergence
    is not an exception: the best iterate is returned with
    ``report.converged`` false.  A singular matrix on the direct path
    raises, and so do ``tol`` and ``max_iter`` that
    :func:`check_stopping` refuses.
    """
    matrix = system.matrix.tocsr()
    rhs = np.asarray(system.rhs, dtype=float)
    n = matrix.shape[0]
    if matrix.shape[0] != matrix.shape[1] or len(rhs) != n:
        raise ValueError("system is not square")
    check_stopping(tol, max_iter)
    if max_iter is None:
        max_iter = max(1000, 10 * n)

    if method not in (None, *METHODS):
        raise ValueError(f"unknown method {method!r}, expected one "
                         f"of {METHODS}")
    # A - A^T is built only where the symmetry gate decides something
    if method is None:
        method = "CG" if (system.n_iface == 0 and system.symmetry_defect()
                          < SYMMETRY_TOL) else "direct-LU"
    elif method == "CG":
        defect = system.symmetry_defect()
        if defect >= SYMMETRY_TOL:
            raise ValueError("CG requested for a nonsymmetric system "
                             f"(defect {defect:.2e})")

    if method == "direct-LU":
        try:
            lu = _factor(matrix)
            x = lu.solve(rhs)
        except RuntimeError as exc:
            raise np.linalg.LinAlgError(f"direct factorization failed: "
                                        f"{exc}") from exc
        if not np.all(np.isfinite(x)):
            raise np.linalg.LinAlgError("direct solve produced non-finite "
                                        "values (singular matrix?)")
        res = relative_residual(matrix, x, rhs)
        return x, SolveReport(iterations=0, relative_residual=res,
                              method=method, converged=res <= tol,
                              fill=lu.nnz)

    count = [0]

    def tick(_xk):
        count[0] += 1

    precond, coarse, indefinite = _two_level(matrix, system.block_offsets,
                                             system.prolongation)
    if method == "CG" and indefinite:
        logger.warning("CG on an indefinite matrix: %d element blocks are "
                       "not positive definite", indefinite)
    runner = spla.cg if method == "CG" else spla.bicgstab
    # start from the coarse solution: one more coarse solve
    x, info = runner(matrix, rhs, x0=coarse @ rhs, M=precond,
                     maxiter=max_iter, callback=tick, **_tol_kwargs(tol))
    if info < 0:
        raise np.linalg.LinAlgError(f"{method} failed with breakdown "
                                    f"(info={info})")
    res = relative_residual(matrix, x, rhs)
    return x, SolveReport(iterations=count[0], relative_residual=res,
                          method=method, converged=info == 0 and res <= tol,
                          indefinite_blocks=indefinite)
