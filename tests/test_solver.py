"""Tests for the linear solver layer.

Small systems are hand-solvable; assembled systems are verified through
the recomputed residual and by cross-checking the direct and iterative
paths against each other.
"""

import logging
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from fracdg import assembly as asm
from fracdg import models, postproc, solver
from fracdg.geometry import ApertureProfile, PermeabilityData
from fracdg.mesh import build_bulk_mesh, build_interface_grid

DOMAIN = ((0.0, 0.0), (1.0, 1.0))


def raw_system(matrix, rhs):
    matrix = sp.csr_matrix(matrix)
    return asm.SparseSystem(matrix=matrix, rhs=np.asarray(rhs, dtype=float),
                            n_bulk=matrix.shape[0], n_iface=0)


def affine(x):
    return 1.0 - x[:, 0]


def harmonic(x):
    """A datum whose solution is not piecewise linear, so the coarse
    start leaves CG work to do."""
    return np.exp(x[:, 0]) * np.cos(x[:, 1])


def full_system(h=0.25, degree=1, g=affine):
    profile = ApertureProfile.constant(0.05, 0.05)
    mesh = build_bulk_mesh(DOMAIN, profile, "full", h)
    space = asm.DGSpace.bulk(mesh, degree)
    perm = PermeabilityData(np.eye(2), np.eye(2), np.eye(2), 1.0)
    return asm.assemble_full(mesh, space, perm, None, g, 10.0)


def reduced_system(h=0.25, variant="I"):
    profile = ApertureProfile.sinusoidal(0.1)
    mesh = build_bulk_mesh(DOMAIN, profile, "curved-reduced", h)
    grid = build_interface_grid(mesh)
    bs = asm.DGSpace.bulk(mesh, 1)
    ifs = asm.DGSpace.interface(grid, 1)
    perm = PermeabilityData(np.eye(2), np.eye(2), np.eye(2), 1.0)
    system = asm.assemble_reduced(mesh, grid, bs, ifs, perm, None, None,
                                  lambda x: 1.0 - x[:, 0], lambda t: 0.5,
                                  10.0, 10.0)
    if models.ModelVariant.of(variant).gradient_terms_in_transport:
        system.matrix = system.matrix + asm.transport_form(
            mesh, grid, bs, ifs, perm)
    return system


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

    def test_permutation_needs_off_diagonal_pivots(self):
        # both diagonal entries are zero, so threshold pivoting must
        # leave the diagonal
        sys_ = raw_system([[0.0, 1.0], [1.0, 0.0]], [2.0, 3.0])
        x, rep = solver.solve(sys_, method="direct-LU")
        np.testing.assert_array_equal(x, [3.0, 2.0])
        assert rep.converged and rep.relative_residual == 0.0

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
        # the solution of the affine datum lies in the coarse space, so
        # CG would start from it
        sys_ = full_system(g=harmonic)
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

    @pytest.mark.parametrize("method", ["direct-LU", "BiCGStab"])
    def test_named_method_skips_symmetry_defect(self, method, monkeypatch):
        # A - A^T is built only where the symmetry gate decides something
        def refuse(self):
            raise AssertionError("symmetry defect computed")

        monkeypatch.setattr(asm.SparseSystem, "symmetry_defect", refuse)
        _, rep = solver.solve(full_system(), method=method)
        assert rep.converged and rep.method == method
        _, rep = solver.solve(reduced_system(variant="I"))
        assert rep.converged and rep.method == "direct-LU"
        with pytest.raises(AssertionError, match="symmetry defect"):
            solver.solve(full_system(), method="CG")

    def test_bicgstab_matches_direct_on_reduced(self):
        sys_ = reduced_system(variant="I")
        xd, _ = solver.solve(sys_, method="direct-LU")
        xb, rep = solver.solve(sys_, method="BiCGStab", tol=1e-12,
                               max_iter=5000)
        assert rep.converged
        assert np.linalg.norm(xd - xb) / np.linalg.norm(xd) < 1e-8

    def test_nonconvergence_returns_best_iterate(self):
        sys_ = full_system(h=0.125, g=harmonic)
        x, rep = solver.solve(sys_, method="CG", max_iter=2)
        assert not rep.converged
        assert rep.relative_residual > 1e-10
        assert len(x) == sys_.matrix.shape[0]
        assert np.all(np.isfinite(x))

    def test_direct_report_carries_fill(self):
        sys_ = full_system()
        _, rep = solver.solve(sys_, method="direct-LU")
        assert rep.fill >= sys_.matrix.shape[0]
        # the entries SuperLU stores, read off the factorization itself
        assert rep.fill == solver._factor(sys_.matrix).nnz
        assert f"LU fill {rep.fill}," in rep.summary()
        assert "iterations" not in rep.summary()
        _, rep = solver.solve(sys_, method="CG")
        assert rep.fill == 0
        assert "LU fill" not in rep.summary()

    def test_report_summary_mentions_method(self):
        sys_ = full_system()
        _, rep = solver.solve(sys_)
        assert "CG" in rep.summary()
        assert "converged" in rep.summary()


def block_bounds(system):
    starts = system.block_offsets
    return zip(starts, np.append(starts[1:], system.n_dofs))


# a full system of every degree, and a reduced one, whose bulk and
# interface blocks differ in size
SYSTEM_KINDS = [f"full k={k}" for k in range(1, asm.MAX_DEGREE + 1)] \
    + ["reduced II"]


def system_of(kind):
    if kind == "reduced II":
        return reduced_system(variant="II")
    return full_system(degree=int(kind.removeprefix("full k=")))


class TestBlockPreconditioner:
    @pytest.mark.parametrize("kind", SYSTEM_KINDS)
    def test_inverts_every_element_block(self, kind):
        sys_ = system_of(kind)
        if kind == "reduced II":
            # interface segments are blocks too: degree 1, two dofs each
            iface = sys_.block_offsets[sys_.block_offsets >= sys_.n_bulk]
            assert iface[0] == sys_.n_bulk and len(iface) > 1
            assert np.all(np.diff(np.append(iface, sys_.n_dofs)) == 2)
        precond, _ = solver._block_jacobi(sys_.matrix.tocsr(),
                                          sys_.block_offsets)
        a, m = sys_.matrix.toarray(), precond.toarray()
        covered = np.zeros(m.shape, dtype=bool)
        for start, end in block_bounds(sys_):
            want = np.linalg.inv(a[start:end, start:end])
            np.testing.assert_allclose(m[start:end, start:end], want,
                                       rtol=0.0,
                                       atol=1e-12 * np.abs(want).max())
            covered[start:end, start:end] = True
        assert not np.any(m[~covered])

    def test_raw_system_gets_point_jacobi(self):
        a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
        sys_ = raw_system(a, [1.0, 2.0, 3.0])
        assert sys_.block_offsets is None
        precond, indefinite = solver._block_jacobi(sys_.matrix,
                                                   sys_.block_offsets)
        np.testing.assert_array_equal(precond.toarray(),
                                      np.diag(1.0 / np.diag(a)))
        assert indefinite == 0
        x, rep = solver.solve(sys_, method="CG")
        assert rep.converged
        np.testing.assert_allclose(a @ x, [1.0, 2.0, 3.0], atol=1e-10)

    @pytest.mark.parametrize("offsets", [[0, 3, 5], None],
                             ids=["blocks", "point"])
    def test_non_canonical_matrix(self, offsets):
        # every entry stored twice, split in two parts, in shuffled order
        rng = np.random.default_rng(5)
        n = 7
        a = rng.standard_normal((n, n)) + 10.0 * np.eye(n)
        split = rng.random((n, n))
        data, indices = [], []
        for i in range(n):
            order = rng.permutation(2 * n)
            data.append(np.concatenate([a[i] * split[i],
                                        a[i] * (1.0 - split[i])])[order])
            indices.append(np.tile(np.arange(n), 2)[order])
        matrix = sp.csr_matrix((np.concatenate(data), np.concatenate(indices),
                                np.arange(0, 2 * n * n + 1, 2 * n)),
                               shape=(n, n))
        assert not matrix.has_canonical_format
        np.testing.assert_allclose(matrix.toarray(), a, rtol=1e-15)
        precond, indefinite = solver._block_jacobi(matrix, offsets)
        starts = np.arange(n) if offsets is None else np.array(offsets)
        want = np.zeros((n, n))
        for start, end in zip(starts, np.append(starts[1:], n)):
            want[start:end, start:end] = np.linalg.inv(a[start:end,
                                                         start:end])
        np.testing.assert_allclose(precond.toarray(), want, rtol=0.0,
                                   atol=1e-14 * np.abs(want).max())
        assert indefinite == 0

    def test_block_jacobi_peak_memory(self):
        # the degree-3 converge problem at h = 1/16: the blocks are read
        # from the matrix in place, not from a COO copy of all of it
        system = models.prepare_full(models.preset_by_name("manufactured"),
                                     1 / 16, 3)[-1]
        matrix = system.matrix
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            solver._block_jacobi(matrix, system.block_offsets)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        nbytes = matrix.data.nbytes + matrix.indices.nbytes \
            + matrix.indptr.nbytes
        assert peak <= 2.5 * nbytes

    @pytest.mark.parametrize("method", ["CG", "BiCGStab"])
    @pytest.mark.parametrize("offsets", [None, [0, 2]])
    def test_singular_block_raises(self, method, offsets):
        # nonsingular symmetric matrices whose first entry, or first 2x2
        # block, is singular
        if offsets is None:
            a = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        else:
            a = [[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]
        sys_ = asm.SparseSystem(matrix=sp.csr_matrix(a), rhs=np.ones(3),
                                n_bulk=3, n_iface=0, block_offsets=offsets)
        assert np.linalg.matrix_rank(a) == 3
        with pytest.raises(ValueError, match="singular"):
            solver.solve(sys_, method=method)

    def test_cg_iterations_on_degree_three(self):
        # point Jacobi needs 3964 iterations on this system, block Jacobi
        # without the coarse level 547, the two-level method 268 on the
        # element constants and 112 on the P1 hats started from the coarse
        # solution
        sol = models.run_full(models.preset_by_name("manufactured"),
                              1 / 16, 3, tol=1e-10)
        assert sol.report.method == "CG"
        assert sol.report.converged
        assert sol.report.relative_residual <= 1e-10
        assert sol.report.iterations < 1000


class TestInPlaceBlocks:
    """``_block_jacobi`` reads each diagonal block at its CSR positions
    and writes the inverses straight into the preconditioner's CSR."""

    def test_sparse_blocks_between_stored_neighbours(self):
        # blocks [0, 3), [3, 5), [5, 8), [8, 9): some entries of a block
        # are not stored, and rows hold columns before and after it
        rng = np.random.default_rng(3)
        n, offsets = 9, [0, 3, 5, 8]
        bounds = list(zip(offsets, offsets[1:] + [n]))
        a = np.where(rng.random((n, n)) < 0.5, rng.standard_normal((n, n)),
                     0.0)
        want = np.zeros((n, n))
        for start, end in bounds:
            block = a[start:end, start:end]
            block += 4.0 * np.eye(end - start)
            if end - start > 1:
                block[-1, 0] = 0.0
            want[start:end, start:end] = np.linalg.inv(block)
        matrix = sp.csr_matrix(a)
        assert sum(matrix[start:end, start:end].nnz
                   for start, end in bounds) < 3 * 3 + 2 * 2 + 3 * 3 + 1
        precond, _ = solver._block_jacobi(matrix, offsets)
        assert precond.has_canonical_format
        np.testing.assert_allclose(precond.toarray(), want, rtol=0.0,
                                   atol=1e-14 * np.abs(want).max())
        # the preconditioner stores every entry of every block
        assert precond.nnz == 3 * 3 + 2 * 2 + 3 * 3 + 1

    def test_indefinite_blocks_across_batches(self, monkeypatch):
        # batches of one 2x2 block each: the count sums over them
        monkeypatch.setattr(solver, "_CHUNK_ENTRIES", 4)
        a = np.kron(np.eye(4), np.array([[1.0, 2.0], [2.0, 1.0]])) \
            + np.diag([0.0] * 4 + [3.0] * 4)
        precond, indefinite = solver._block_jacobi(sp.csr_matrix(a),
                                                   [0, 2, 4, 6])
        assert indefinite == 2
        np.testing.assert_allclose(precond.toarray(), np.linalg.inv(a),
                                   rtol=0.0, atol=1e-14)

    def test_two_level_peak_memory(self):
        # the degree-3 converge problem at h = 1/16: 1.8x the CSR's bytes
        # when the blocks were read with matrix[rows, cols] and the
        # preconditioner built from COO triplets
        system = models.prepare_full(models.preset_by_name("manufactured"),
                                     1 / 16, 3)[-1]
        matrix = system.matrix
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            solver._two_level(matrix, system.block_offsets)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        nbytes = matrix.data.nbytes + matrix.indices.nbytes \
            + matrix.indptr.nbytes
        assert peak <= 1.0 * nbytes

    def test_two_level_on_hats_peak_memory(self):
        # the same guard with the system's own coarse space, the P1 hats
        system = models.prepare_full(models.preset_by_name("manufactured"),
                                     1 / 16, 3)[-1]
        matrix = system.matrix
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            solver._two_level(matrix, system.block_offsets,
                              system.prolongation)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        nbytes = matrix.data.nbytes + matrix.indices.nbytes \
            + matrix.indptr.nbytes
        assert peak <= 1.0 * nbytes


def prolongation(system):
    """Dense P: the system's own, or the injection of the first dof of
    every element block where it has none."""
    if system.prolongation is not None:
        return system.prolongation.toarray()
    return np.eye(system.n_dofs)[:, system.block_offsets]


class TestCoarseLevel:
    """The exact solve on the coarse space added to block Jacobi:
    ``M^-1 = B + P A0^-1 P^T`` with ``A0 = P^T A P``; P holds the P1 hats
    of a full system and injects the first dof of every block otherwise.
    """

    @pytest.mark.parametrize("kind", SYSTEM_KINDS)
    def test_operator_adds_exact_coarse_solve(self, kind):
        sys_ = system_of(kind)
        matrix = sys_.matrix.tocsr()
        precond, coarse, _ = solver._two_level(matrix, sys_.block_offsets,
                                               sys_.prolongation)
        smoother, _ = solver._block_jacobi(matrix, sys_.block_offsets)
        assert (sys_.prolongation is None) == (kind == "reduced II")
        p_mat = prolongation(sys_)
        a0 = p_mat.T @ matrix.toarray() @ p_mat
        rhs = np.random.default_rng(7).standard_normal(sys_.n_dofs)
        correction = p_mat @ np.linalg.solve(a0, p_mat.T @ rhs)
        want = smoother @ rhs + correction
        np.testing.assert_allclose(precond @ rhs, want, rtol=0.0,
                                   atol=1e-10 * np.abs(want).max())
        np.testing.assert_allclose(coarse @ rhs, correction, rtol=0.0,
                                   atol=1e-10 * np.abs(correction).max())

    @pytest.mark.parametrize("kind", ["reduced II", "raw"])
    def test_injection_keeps_first_dof_submatrix(self, kind):
        # without a prolongation A0 = P^T A P is A[starts][:, starts] bit
        # for bit, and so is the coarse solve
        if kind == "raw":
            a = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 1.0], [0.5, 1.0, 2.0]])
            sys_ = raw_system(a, np.ones(3))
        else:
            sys_ = system_of(kind)
        assert sys_.prolongation is None
        matrix = sys_.matrix.tocsr()
        starts = solver._block_starts(sys_.n_dofs, sys_.block_offsets)
        _, coarse, _ = solver._two_level(matrix, sys_.block_offsets)
        rhs = np.random.default_rng(8).standard_normal(sys_.n_dofs)
        want = np.zeros(sys_.n_dofs)
        want[starts] = solver._factor(matrix[starts][:, starts]).solve(
            rhs[starts])
        np.testing.assert_array_equal(coarse @ rhs, want)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_hats_are_continuous(self, degree):
        # random vertex values through P give a DG field that takes them
        # at every element's corners, and is linear on every element
        mesh, space, _, system = models.prepare_full(
            models.preset_by_name("perp-asym"), 1 / 8, degree)
        used = np.unique(mesh.elements)
        p_mat = system.prolongation
        assert p_mat.shape == (space.n_dofs, len(used))
        assert p_mat.nnz == 5 * mesh.n_elements
        values = np.random.default_rng(degree).standard_normal(len(used))
        elems = np.arange(mesh.n_elements)
        coeffs = (p_mat @ values)[space.dofs(elems)]
        assert not coeffs[:, 3:].any()
        corners = asm._basis_at(mesh.maps, space, elems,
                                mesh.vertices[mesh.elements])
        np.testing.assert_allclose(
            np.einsum("ecd,ed->ec", corners, coeffs),
            values[np.searchsorted(used, mesh.elements)], rtol=0.0,
            atol=1e-12)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_first_basis_function_is_constant(self, degree):
        # R relies on the first local dof being the element's constant
        pts = np.random.default_rng(degree).random((9, 2))
        np.testing.assert_array_equal(asm.tri_basis(degree, pts)[:, 0], 1.0)
        np.testing.assert_array_equal(asm.seg_basis(degree, pts[:, 0])[:, 0],
                                      1.0)

    def test_iterations_do_not_grow_with_refinement(self):
        # block Jacobi alone needs 547 and 891 iterations
        preset = models.preset_by_name("manufactured")
        its = []
        for h in (1 / 16, 1 / 32):
            sol = models.run_full(preset, h, 3, tol=1e-10)
            assert sol.report.method == "CG" and sol.report.converged
            its.append(sol.report.iterations)
        assert max(its) < 400
        assert its[1] <= 1.25 * its[0]

    def test_cg_error_matches_direct(self):
        # block Jacobi alone leaves a relative gap of 1.2e-3
        preset = models.preset_by_name("manufactured")
        errs = [postproc.l2_error_bulk(models.run_full(preset, 1 / 16, 3,
                                                       method=method),
                                       preset.exact_pressure)
                for method in (None, "direct-LU")]
        assert abs(errs[0] - errs[1]) <= 1e-4 * errs[1]

    def test_cg_error_gap_on_hats(self):
        # the element constants left a relative gap of 4.4e-6 here, the
        # P1 hats with the coarse start 1.2e-7
        preset = models.preset_by_name("manufactured")
        errs = [postproc.l2_error_bulk(models.run_full(preset, 1 / 16, 3,
                                                       method=method),
                                       preset.exact_pressure)
                for method in (None, "direct-LU")]
        assert abs(errs[0] - errs[1]) <= 1e-6 * errs[1]

    def test_thin_aperture_coarse_matrix_is_spd(self):
        # the fine matrix has 128 indefinite element blocks here; the
        # smallest eigenvalue of the hats' A0 is 0.048
        preset = models.preset_by_name("perp-asym", d0=1e-3)
        system = models.prepare_full(preset, 1 / 16, 2)[-1]
        p_mat = system.prolongation
        a0 = (p_mat.T @ system.matrix @ p_mat).toarray()
        np.testing.assert_allclose(a0, a0.T, rtol=0.0,
                                   atol=1e-12 * np.abs(a0).max())
        assert np.linalg.eigvalsh(a0)[0] > 0.0

    @pytest.mark.parametrize("method", ["CG", "BiCGStab"])
    def test_singular_coarse_matrix_raises(self, method):
        # identity-like diagonal blocks, but the first dofs of the two
        # blocks couple into [[1, 1], [1, 1]]
        a = [[1.0, 0.5, 1.0, 0.0], [0.5, 1.0, 0.0, 0.0],
             [1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
        sys_ = asm.SparseSystem(matrix=sp.csr_matrix(a), rhs=np.ones(4),
                                n_bulk=4, n_iface=0, block_offsets=[0, 2])
        assert np.linalg.matrix_rank(a) == 4
        with pytest.raises(ValueError, match="singular 2x2 coarse"):
            solver.solve(sys_, method=method)


class TestIndefiniteFlag:
    def test_indefinite_block_is_counted(self):
        a = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        sys_ = asm.SparseSystem(matrix=sp.csr_matrix(a), rhs=np.ones(3),
                                n_bulk=3, n_iface=0,
                                block_offsets=np.array([0, 2]))
        _, rep = solver.solve(sys_, method="CG")
        assert rep.indefinite_blocks == 1
        assert "1 element blocks not positive definite" in rep.summary()
        assert "indefinite matrix" in rep.summary()

    def test_thin_aperture_reference_is_flagged(self, caplog):
        preset = models.preset_by_name("perp-asym", d0=1e-3)
        with caplog.at_level(logging.WARNING, logger="fracdg.solver"):
            sol = models.run_full(preset, 1 / 16, 2, method="CG",
                                  max_iter=2)
        assert sol.report.indefinite_blocks == 128
        assert "CG on an indefinite matrix" in caplog.text
        assert "not positive definite" in sol.report.summary()

    @pytest.mark.parametrize("method", ["CG", "BiCGStab", "direct-LU"])
    def test_spd_system_is_not_flagged(self, method, caplog):
        with caplog.at_level(logging.WARNING, logger="fracdg.solver"):
            _, rep = solver.solve(full_system(), method=method)
        assert rep.converged and rep.indefinite_blocks == 0
        assert "not positive definite" not in rep.summary()
        assert not caplog.records


class TestSymmetricModeLU:
    """The direct path orders A + A^T by minimum degree and pivots on the
    diagonal unless an entry falls below 0.01 of its column's largest."""

    def test_reference_fill_stays_low(self):
        # the column ordering of partial pivoting gives 4.67M here
        sol = models.run_full(models.preset_by_name("perp-asym", d0=1e-1),
                              1 / 32, 2, method="direct-LU")
        assert sol.report.converged
        assert sol.report.relative_residual <= 1e-13
        assert sol.report.fill < 2_500_000

    def test_nonsymmetric_reduced_system(self):
        # the aperture of the symmetric walls varies, so the d' p_gamma
        # term of the tangential flow form makes II-R nonsymmetric (with
        # perp-asym d is constant and II-R is symmetric)
        preset = models.preset_by_name("tangential", d0=1e-1)
        system = models.prepare_reduced(preset, "II-R", 1 / 16)[-1]
        assert system.symmetry_defect() > solver.SYMMETRY_TOL
        _, rep = solver.solve(system)
        assert rep.method == "direct-LU"
        assert rep.converged and rep.relative_residual <= 1e-13

    def test_indefinite_thin_aperture_reference(self):
        preset = models.preset_by_name("perp-asym", d0=1e-3)
        sol = models.run_full(preset, 1 / 32, 2, method="direct-LU")
        assert sol.report.converged
        assert sol.report.relative_residual <= 1e-13


class TestStoppingRule:
    def test_negative_cap_is_named(self):
        # it reached scipy's CG and came back as a breakdown
        with pytest.raises(ValueError, match="max_iter cannot be negative") \
                as info:
            solver.solve(full_system(), method="CG", max_iter=-5)
        assert info.value.param == "max_iter"

    @pytest.mark.parametrize("tol", [0.0, 1.0, -1e-3, float("nan")])
    def test_tol_outside_the_unit_interval_is_named(self, tol):
        with pytest.raises(ValueError, match="tol must lie strictly") \
                as info:
            solver.solve(full_system(), tol=tol)
        assert info.value.param == "tol"
