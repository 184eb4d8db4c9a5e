import json
import subprocess
import sys

import numpy as np
import pytest

from qdrive.model import (
    ClassifierThresholds,
    Grid,
    PotentialModel,
    build_basis,
    classify_state,
    evaluate_cap,
    evaluate_potential,
    exact_diagonalize,
    oracle_targets,
    project_hamiltonians,
)

BENCHMARK = PotentialModel(lam=0.1, j=0.8, x0=8.0)

# reference exact-diagonalization energies (benchmark table): q -> (E_b, E_r1, E_r2)
ORACLE_TABLE = {
    2: (0.623 - 2.63e-3j, 1.61 - 4.15e-2j, 2.36 - 5.83e-3j),
    3: (0.505 - 2.02e-5j, 1.43 - 1.61e-4j, 2.15 - 2.04e-2j),
    4: (0.502 - 9.98e-11j, 1.42 - 3.60e-5j, 2.12 - 1.18e-2j),
}


@pytest.fixture(scope="module")
def grid():
    return Grid()


class TestPotential:
    def test_well_bottom_is_zero(self):
        assert evaluate_potential(0.0, BENCHMARK) == pytest.approx(0.0)

    def test_asymptote(self):
        assert evaluate_potential(1e4, BENCHMARK) == pytest.approx(0.8)

    def test_scalar_value(self):
        # (2^2/2 - 0.8) e^{-0.4} + 0.8 evaluated independently
        expected = (2.0 - 0.8) * np.exp(-0.4) + 0.8
        assert expected == pytest.approx(1.604384, abs=5e-7)
        assert evaluate_potential(2.0, BENCHMARK) == pytest.approx(expected)


class TestCap:
    def test_zero_inside(self):
        assert evaluate_cap(5.0, BENCHMARK) == 0.0

    def test_boundary_continuity(self):
        assert evaluate_cap(8.0, BENCHMARK) == 0.0

    def test_quadratic_outside(self):
        assert evaluate_cap(9.0, BENCHMARK) == pytest.approx(-0.5)
        assert evaluate_cap(-9.0, BENCHMARK) == pytest.approx(-0.5)

    def test_never_positive(self, grid):
        assert np.all(evaluate_cap(grid.points, BENCHMARK) <= 0.0)


class TestGrid:
    def test_points_symmetric_and_increasing(self, grid):
        x = grid.points
        assert np.all(np.diff(x) > 0)
        assert np.allclose(x + x[::-1], 0.0, atol=1e-12)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            Grid(n_points=2)


class TestBasis:
    def test_even_parity_uses_odd_mode_numbers(self, grid):
        basis = build_basis("even", 1, grid)
        assert list(basis.mode_numbers) == [1, 3]
        # numeric parity check about x = 0
        for f in basis.functions:
            assert np.max(np.abs(f - f[::-1])) < 1e-9

    def test_odd_parity_uses_even_mode_numbers(self, grid):
        basis = build_basis("odd", 1, grid)
        assert list(basis.mode_numbers) == [2, 4]
        for f in basis.functions:
            assert np.max(np.abs(f + f[::-1])) < 1e-9

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_gram_matrix_is_identity(self, parity, grid):
        basis = build_basis(parity, 3, grid)
        gram = basis.functions @ basis.functions.T * grid.dx
        assert np.max(np.abs(gram - np.eye(basis.size))) < 1e-8

    def test_vanishes_at_box_edges(self, grid):
        basis = build_basis("even", 2, grid)
        assert np.max(np.abs(basis.functions[:, 0])) < 1e-9
        assert np.max(np.abs(basis.functions[:, -1])) < 1e-9

    def test_aliasing_guard(self):
        small = Grid(n_points=16)
        with pytest.raises(ValueError, match="alias"):
            build_basis("even", 3, small)


class TestProjection:
    def test_free_particle_kinetic_energies(self, grid):
        free = PotentialModel(lam=0.1, j=0.0, x0=8.0)
        basis = build_basis("even", 2, grid)
        # V0 with j=0 is not zero; build a true free model instead
        x = grid.points
        funcs = basis.functions
        from qdrive.model import _laplacian

        t = -0.5 * _laplacian(funcs, grid.dx)
        h_kin = (funcs * grid.dx) @ t.T
        energies = np.sort(np.linalg.eigvalsh(0.5 * (h_kin + h_kin.T)))
        L = 2 * grid.x_max
        expected = np.sort((basis.mode_numbers * np.pi / L) ** 2 / 2.0)
        assert np.max(np.abs(energies - expected) / expected) < 0.01

    def test_symmetrization(self, grid):
        basis = build_basis("even", 3, grid)
        pair = project_hamiltonians(BENCHMARK, basis, grid)
        assert np.max(np.abs(pair.h_h - pair.h_h.T)) < 1e-10
        assert np.max(np.abs(pair.v_cap - pair.v_cap.T)) < 1e-10

    def test_cap_matrix_negative_semidefinite(self, grid):
        basis = build_basis("even", 3, grid)
        pair = project_hamiltonians(BENCHMARK, basis, grid)
        assert np.max(np.linalg.eigvalsh(pair.v_cap)) <= 1e-10

    def test_h_n_is_the_stated_sum(self, grid):
        basis = build_basis("odd", 2, grid)
        pair = project_hamiltonians(BENCHMARK, basis, grid)
        assert np.array_equal(pair.h_n, pair.h_h + 1j * pair.v_cap)

    def test_expectation_splits_exactly(self, grid):
        basis = build_basis("even", 2, grid)
        pair = project_hamiltonians(BENCHMARK, basis, grid)
        rng = np.random.default_rng(1)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        lhs = np.vdot(psi, pair.h_n @ psi)
        rhs = np.vdot(psi, pair.h_h @ psi) + 1j * np.vdot(psi, pair.v_cap @ psi)
        assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_q3_even_lowest_state(self, grid):
        basis = build_basis("even", 3, grid)
        pair = project_hamiltonians(BENCHMARK, basis, grid)
        spectrum = exact_diagonalize(pair)
        e0 = spectrum.eigenvalues[0]
        assert abs(e0 - (0.505 - 2.02e-5j)) / abs(0.505 - 2.02e-5j) < 0.01


class TestExactDiagonalization:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_benchmark_energies(self, q, grid):
        e_b, e_r1, e_r2 = ORACLE_TABLE[q]
        even = exact_diagonalize(project_hamiltonians(BENCHMARK, build_basis("even", q, grid), grid))
        odd = exact_diagonalize(project_hamiltonians(BENCHMARK, build_basis("odd", q, grid), grid))
        for reference, spectrum in [(e_b, even), (e_r1, odd), (e_r2, even)]:
            errors = np.abs(spectrum.eigenvalues - reference) / abs(reference)
            assert errors.min() < 0.01

    def test_hermitian_limit_real_spectrum(self, grid):
        capless = PotentialModel(lam=0.1, j=0.8, x0=100.0)
        # x0 beyond the box: the CAP vanishes identically on the grid
        basis = build_basis("even", 3, grid)
        pair = project_hamiltonians(capless, basis, grid)
        spectrum = exact_diagonalize(pair)
        assert np.max(np.abs(spectrum.eigenvalues.imag)) < 1e-10

    def test_cap_only_absorbs(self, grid):
        for parity in ("even", "odd"):
            basis = build_basis(parity, 3, grid)
            pair = project_hamiltonians(BENCHMARK, basis, grid)
            spectrum = exact_diagonalize(pair)
            assert np.max(spectrum.eigenvalues.imag) <= 1e-8

    def test_oracle_scale_guard(self, grid):
        basis = build_basis("even", 7, grid)
        pair = project_hamiltonians(BENCHMARK, basis, grid)
        with pytest.raises(ValueError, match="oracle"):
            exact_diagonalize(pair)

    def test_parity_union_matches_unresolved_spectrum(self, grid):
        q = 2
        even = build_basis("even", q, grid)
        odd = build_basis("odd", q, grid)
        union = np.concatenate(
            [
                exact_diagonalize(project_hamiltonians(BENCHMARK, even, grid)).eigenvalues,
                exact_diagonalize(project_hamiltonians(BENCHMARK, odd, grid)).eigenvalues,
            ]
        )
        # parity-unresolved projection: all modes w = 1..2^(q+1) together
        L = 2 * grid.x_max
        ws = np.arange(1, 2 ** (q + 1) + 1)
        x = grid.points
        funcs = np.sqrt(2 / L) * np.sin(np.outer(ws, np.pi / L * (x - L / 2)))
        funcs /= np.sqrt(np.sum(funcs**2, axis=1) * grid.dx)[:, None]
        from qdrive.model import _laplacian

        v0 = evaluate_potential(x, BENCHMARK)
        vc = evaluate_cap(x, BENCHMARK)
        t = -0.5 * _laplacian(funcs, grid.dx)
        h = (funcs * grid.dx) @ (t + v0 * funcs).T
        v = (funcs * grid.dx) @ (vc * funcs).T
        full = np.linalg.eigvals(0.5 * (h + h.T) + 0.5j * (v + v.T))
        for e in union:
            assert np.min(np.abs(full - e)) < 1e-6

    def test_spectrum_json_export(self, grid):
        basis = build_basis("even", 2, grid)
        spectrum = exact_diagonalize(project_hamiltonians(BENCHMARK, basis, grid))
        rows = json.loads(spectrum.to_json())
        assert len(rows) == 4
        assert {"re", "im", "classification"} <= set(rows[0])

    def test_oracle_imports_no_scipy(self):
        # a job that only needs the oracle skips scipy's import time
        code = (
            "import sys, qdrive.model; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def q3_even():
    grid = Grid()
    basis = build_basis("even", 3, grid)
    pair = project_hamiltonians(BENCHMARK, basis, grid)
    return grid, basis, exact_diagonalize(pair)


class TestClassifier:

    def test_oracle_bound_state(self, q3_even):
        _, basis, spectrum = q3_even
        assert spectrum.classifications[0] == "bound"

    def test_oracle_second_resonance(self, q3_even):
        _, basis, spectrum = q3_even
        # the only even-channel resonance label sits at the quasi-bound state
        labels = spectrum.classifications
        res = [i for i, c in enumerate(labels) if c == "resonance"]
        assert len(res) == 1
        assert abs(spectrum.eigenvalues[res[0]] - (2.15 - 2.04e-2j)) < 0.05

    def test_broad_states_are_spurious(self, q3_even):
        _, _, spectrum = q3_even
        assert spectrum.classifications[1].startswith("spurious")
        assert spectrum.classifications[2].startswith("spurious")

    def test_cap_localized_state_is_diverging(self, q3_even):
        grid, basis, _ = q3_even
        # synthetic state living entirely beyond the absorber onset
        x = grid.points
        target = np.exp(-0.5 * (np.abs(x) - 9.0) ** 2 / 0.1) * (np.abs(x) > 8.0)
        coeffs = basis.functions @ target * grid.dx
        label = classify_state(
            complex(1.0, -0.1), coeffs, basis, BENCHMARK, sigma2=0.0
        )
        assert label == "spurious:diverging"

    def test_gain_state_flagged(self, q3_even):
        _, basis, spectrum = q3_even
        label = classify_state(
            complex(0.5, +0.1), spectrum.eigenvectors[:, 0], basis, BENCHMARK
        )
        assert label == "spurious:gain"

    def test_unconverged_state_flagged(self, q3_even):
        _, basis, spectrum = q3_even
        label = classify_state(
            complex(0.5, -1e-5), spectrum.eigenvectors[:, 0], basis, BENCHMARK,
            sigma2=2.0,
        )
        assert label == "spurious:indifferent"

    def test_targets_for_reporting(self, q3_even):
        _, _, spectrum = q3_even
        targets = oracle_targets(spectrum)
        assert abs(targets["bound"].real - 0.504) < 0.01
        assert abs(targets["resonance"].real - 2.145) < 0.01
