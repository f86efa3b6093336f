"""Tests for the linear solver layer.

Small systems are hand-solvable; assembled systems are verified through
the recomputed residual and by cross-checking the direct and iterative
paths against each other.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from fracdg import assembly as asm
from fracdg import solver
from fracdg.geometry import ApertureProfile, FractureFrame, PermeabilityData
from fracdg.mesh import build_bulk_mesh, build_interface_grid

DOMAIN = ((0.0, 0.0), (1.0, 1.0))
FRAME = FractureFrame.vertical_line(0.5)


def raw_system(matrix, rhs):
    matrix = sp.csr_matrix(matrix)
    return asm.SparseSystem(matrix=matrix, rhs=np.asarray(rhs, dtype=float),
                            n_bulk=matrix.shape[0], n_iface=0)


def full_system(h=0.25):
    profile = ApertureProfile.constant(0.05, 0.05)
    mesh = build_bulk_mesh(DOMAIN, profile, "full", h, frame=FRAME)
    space = asm.DGSpace.bulk(mesh, 1)
    perm = PermeabilityData(np.eye(2), np.eye(2), np.eye(2), 1.0)
    return asm.assemble_full(mesh, space, perm, None,
                             lambda x: 1.0 - x[:, 0], 10.0)


def reduced_system(h=0.25, variant="I"):
    profile = ApertureProfile.sinusoidal(0.1)
    mesh = build_bulk_mesh(DOMAIN, profile, "curved-reduced", h, frame=FRAME)
    grid = build_interface_grid(mesh)
    bs = asm.DGSpace.bulk(mesh, 1)
    ifs = asm.DGSpace.interface(grid, 1)
    perm = PermeabilityData(np.eye(2), np.eye(2), np.eye(2), 1.0)
    return asm.assemble_reduced(mesh, grid, bs, ifs, perm, profile,
                                None, None, lambda x: 1.0 - x[:, 0],
                                lambda t: 0.5, variant, 10.0, 10.0)


class TestSmallSystems:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.5])
        for method in solver.METHODS:
            x, rep = solver.solve(raw_system(np.eye(3), b), method=method)
            np.testing.assert_allclose(x, b, atol=1e-12)
            assert rep.iterations <= 1
            assert rep.method == method
            assert rep.converged

    def test_two_by_two_spd(self):
        sys_ = raw_system([[2.0, 1.0], [1.0, 2.0]], [1.0, 1.0])
        for method in solver.METHODS:
            x, rep = solver.solve(sys_, method=method)
            np.testing.assert_allclose(x, [1.0 / 3.0, 1.0 / 3.0],
                                       atol=1e-10)
            assert rep.converged

    def test_singular_direct_raises(self):
        sys_ = raw_system([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0])
        with pytest.raises(np.linalg.LinAlgError):
            solver.solve(sys_, method="direct-LU")

    def test_zero_rhs(self):
        x, rep = solver.solve(raw_system(np.eye(2), np.zeros(2)))
        np.testing.assert_allclose(x, 0.0)
        assert rep.relative_residual == 0.0

    def test_validation(self):
        sys_ = raw_system(np.eye(2), np.ones(2))
        with pytest.raises(ValueError):
            solver.solve(sys_, tol=0.0)
        with pytest.raises(ValueError):
            solver.solve(sys_, tol=1.5)
        with pytest.raises(ValueError):
            solver.solve(sys_, method="GMRES")


class TestAssembledSystems:
    def test_full_defaults_to_cg_and_meets_tol(self):
        sys_ = full_system()
        x, rep = solver.solve(sys_, tol=1e-10)
        assert rep.method == "CG"
        assert rep.converged
        assert rep.relative_residual <= 1e-10
        assert rep.iterations > 1

    def test_posthoc_residual_matches_report(self):
        sys_ = full_system()
        x, rep = solver.solve(sys_)
        check = np.linalg.norm(sys_.matrix @ x - sys_.rhs) \
            / np.linalg.norm(sys_.rhs)
        assert check <= 1.01 * max(rep.relative_residual, 1e-16)

    def test_direct_and_iterative_agree(self):
        sys_ = full_system(h=0.125)
        assert sys_.matrix.shape[0] <= 10_000
        xd, _ = solver.solve(sys_, method="direct-LU")
        xi, _ = solver.solve(sys_, method="CG", tol=1e-12)
        scale = np.linalg.norm(xd)
        assert np.linalg.norm(xd - xi) / scale < 1e-8

    def test_reduced_defaults_to_direct(self):
        sys_ = reduced_system(variant="I")
        x, rep = solver.solve(sys_)
        assert rep.method == "direct-LU"
        assert rep.converged
        assert rep.relative_residual <= 1e-10

    def test_cg_refused_on_nonsymmetric_reduced(self):
        sys_ = reduced_system(variant="I")
        with pytest.raises(ValueError, match="nonsymmetric"):
            solver.solve(sys_, method="CG")

    def test_bicgstab_matches_direct_on_reduced(self):
        sys_ = reduced_system(variant="I")
        xd, _ = solver.solve(sys_, method="direct-LU")
        xb, rep = solver.solve(sys_, method="BiCGStab", tol=1e-12,
                               max_iter=5000)
        assert rep.converged
        assert np.linalg.norm(xd - xb) / np.linalg.norm(xd) < 1e-8

    def test_nonconvergence_returns_best_iterate(self):
        sys_ = full_system(h=0.125)
        x, rep = solver.solve(sys_, method="CG", max_iter=2)
        assert not rep.converged
        assert rep.relative_residual > 1e-10
        assert len(x) == sys_.matrix.shape[0]
        assert np.all(np.isfinite(x))

    def test_report_summary_mentions_method(self):
        sys_ = full_system()
        _, rep = solver.solve(sys_)
        assert "CG" in rep.summary()
        assert "converged" in rep.summary()
