"""Benchmark grid Hamiltonians and the exact-diagonalization oracle.

A 1-D predissociation-style potential on a symmetric position grid is
projected onto a parity-resolved sine basis.  Outgoing boundary conditions
are imposed by adding a quadratic complex absorbing potential (CAP), giving
a non-Hermitian operator H_N = H_H + i*V_cap whose eigenvalues carry the
resonance positions (real part) and widths (imaginary part).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

EIGEN_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid on [-x_max, x_max], endpoints included."""

    x_max: float = 10.0
    n_points: int = 2**12

    def __post_init__(self):
        if self.n_points < 4:
            raise ValueError("need at least 4 grid points")
        if self.n_points & (self.n_points - 1):
            raise ValueError("n_points must be a power of two")
        if self.x_max <= 0:
            raise ValueError("x_max must be positive")

    @property
    def dx(self) -> float:
        return 2.0 * self.x_max / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return -self.x_max + self.dx * np.arange(self.n_points)


@dataclass(frozen=True)
class PotentialModel:
    """Gaussian-enveloped well with asymptote j, plus a quadratic CAP at x0."""

    lam: float = 0.1
    j: float = 0.8
    x0: float = 8.0

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")


def evaluate_potential(x, model: PotentialModel):
    """V0(x) = (x^2/2 - j) exp(-lam x^2) + j."""
    x = np.asarray(x, dtype=float)
    v = (0.5 * x**2 - model.j) * np.exp(-model.lam * x**2) + model.j
    return v if v.ndim else float(v)


def evaluate_cap(x, model: PotentialModel):
    """Quadratic absorber: 0 inside |x| <= x0, -(|x|-x0)^2/2 outside."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    v = np.where(ax > model.x0, -0.5 * (ax - model.x0) ** 2, 0.0)
    return v if v.ndim else float(v)


@dataclass(frozen=True)
class SineBasis:
    """2**q grid-sampled sine modes of a definite spatial parity.

    Modes are sqrt(2/L) sin(w pi / L (x - L/2)) on a box of length
    L = 2*x_max.  Odd mode numbers w are even functions of x and even mode
    numbers are odd functions, so the even-parity basis uses w = 1,3,5,...
    and the odd-parity basis w = 2,4,6,...
    """

    parity: str
    q: int
    grid: Grid
    mode_numbers: np.ndarray = field(repr=False)
    functions: np.ndarray = field(repr=False)  # shape (2**q, n_points)

    @property
    def size(self) -> int:
        return 2**self.q


def build_basis(parity: str, q: int, grid: Grid) -> SineBasis:
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    if q < 1:
        raise ValueError("q must be at least 1")
    size = 2**q
    if size > grid.n_points // 4:
        raise ValueError(
            f"2**q = {size} basis functions alias on {grid.n_points} grid points"
        )
    if parity == "even":
        ws = np.arange(1, 2 * size, 2)
    else:
        ws = np.arange(2, 2 * size + 2, 2)
    x = grid.points
    L = 2.0 * grid.x_max
    funcs = np.sqrt(2.0 / L) * np.sin(np.outer(ws, np.pi / L * (x - L / 2.0)))
    # renormalize on the grid so the discrete Gram matrix is the identity
    norms = np.sqrt(np.sum(funcs**2, axis=1) * grid.dx)
    funcs = funcs / norms[:, None]
    return SineBasis(parity=parity, q=q, grid=grid, mode_numbers=ws, functions=funcs)


@dataclass(frozen=True)
class HamiltonianPair:
    """Projected Hermitian Hamiltonian, CAP matrix, and their sum H_N."""

    h_h: np.ndarray
    v_cap: np.ndarray
    basis: SineBasis
    model: PotentialModel

    @property
    def h_n(self) -> np.ndarray:
        return self.h_h + 1j * self.v_cap

    @property
    def dim(self) -> int:
        return self.h_h.shape[0]


def _laplacian(funcs: np.ndarray, dx: float) -> np.ndarray:
    """Second-order central differences with Dirichlet (zero) boundaries."""
    out = np.zeros_like(funcs)
    out[:, 1:-1] = (funcs[:, 2:] - 2.0 * funcs[:, 1:-1] + funcs[:, :-2]) / dx**2
    out[:, 0] = (funcs[:, 1] - 2.0 * funcs[:, 0]) / dx**2
    out[:, -1] = (funcs[:, -2] - 2.0 * funcs[:, -1]) / dx**2
    return out


def project_hamiltonians(
    model: PotentialModel, basis: SineBasis, grid: Grid
) -> HamiltonianPair:
    """Matrix elements by rectangle-rule quadrature with weight dx."""
    x = grid.points
    funcs = basis.functions
    v0 = evaluate_potential(x, model)
    vcap = evaluate_cap(x, model)
    t_funcs = -0.5 * _laplacian(funcs, grid.dx)
    h_h = (funcs * grid.dx) @ (t_funcs + v0 * funcs).T
    v_c = (funcs * grid.dx) @ (vcap * funcs).T
    # rectangle-rule round-off breaks symmetry at the 1e-13 level; kill it
    h_h = 0.5 * (h_h + h_h.T)
    v_c = 0.5 * (v_c + v_c.T)
    return HamiltonianPair(h_h=h_h, v_cap=v_c, basis=basis, model=model)


@dataclass(frozen=True)
class ClassifierThresholds:
    """Config-exposed cutoffs for sorting states into bound/resonance/spurious.

    A state is spurious when it gains probability (im_gain), parks in the
    absorber (cap_weight), never converged (sigma_max), or sits in the
    continuum window with a width too large for a resonance (gamma_max).
    Survivors below the potential asymptote are bound, the rest resonances.
    """

    cap_weight: float = 0.5
    im_gain: float = 1e-3
    sigma_max: float = 0.5
    gamma_max: float = 5e-2


def classify_state(
    energy: complex,
    coeffs: np.ndarray,
    basis: SineBasis,
    model: PotentialModel,
    sigma2: float = 0.0,
    thresholds: ClassifierThresholds | None = None,
) -> str:
    """Label one candidate state.

    Returns "bound", "resonance", or one of the spurious labels
    "spurious:diverging", "spurious:gain", "spurious:indifferent",
    "spurious:nonresonant".
    """
    th = thresholds or ClassifierThresholds()
    grid = basis.grid
    psi = np.asarray(coeffs) @ basis.functions
    density = np.abs(psi) ** 2
    total = float(np.sum(density))
    cap_region = np.abs(grid.points) > model.x0
    weight = float(np.sum(density[cap_region])) / total if total > 0 else 1.0
    if weight > th.cap_weight:
        return "spurious:diverging"
    if energy.imag > th.im_gain:
        return "spurious:gain"
    if sigma2 > th.sigma_max:
        return "spurious:indifferent"
    if energy.real < model.j:
        return "bound"
    barrier_top = float(np.max(evaluate_potential(grid.points, model)))
    if energy.real <= barrier_top and abs(energy.imag) < th.gamma_max:
        return "resonance"
    return "spurious:nonresonant"


@dataclass
class SpectrumRecord:
    """Full complex eigendecomposition of one projected H_N."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, normalized under the standard product
    classifications: list[str]
    parity: str
    q: int

    def to_json(self) -> str:
        rows = [
            {"re": float(e.real), "im": float(e.imag), "classification": c}
            for e, c in zip(self.eigenvalues, self.classifications)
        ]
        return json.dumps(rows, indent=2)


def exact_diagonalize(
    pair: HamiltonianPair, thresholds: ClassifierThresholds | None = None
) -> SpectrumRecord:
    """Dense complex eigendecomposition, sorted by real part.

    The oracle scale is capped at 2**6 states; the residual of every
    eigenpair is checked against EIGEN_RESIDUAL_TOL.
    """
    if pair.dim > 2**6:
        raise ValueError(f"oracle limited to dimension 64, got {pair.dim}")
    h_n = pair.h_n
    try:
        eigenvalues, eigenvectors = np.linalg.eig(h_n)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc
    order = np.argsort(eigenvalues.real)
    eigenvalues = eigenvalues[order]
    eigenvectors = eigenvectors[:, order]
    eigenvectors = eigenvectors / np.linalg.norm(eigenvectors, axis=0)
    scale = np.linalg.norm(h_n)
    for k in range(pair.dim):
        residual = np.linalg.norm(h_n @ eigenvectors[:, k] - eigenvalues[k] * eigenvectors[:, k])
        if residual > EIGEN_RESIDUAL_TOL * scale:
            raise RuntimeError(
                f"eigenpair {k} residual {residual:.3e} exceeds tolerance"
            )
    labels = [
        classify_state(
            complex(eigenvalues[k]), eigenvectors[:, k], pair.basis, pair.model,
            sigma2=0.0, thresholds=thresholds,
        )
        for k in range(pair.dim)
    ]
    return SpectrumRecord(
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        classifications=labels,
        parity=pair.basis.parity,
        q=pair.basis.q,
    )


def oracle_targets(spectrum: SpectrumRecord) -> dict[str, complex]:
    """Pick the reporting targets out of one parity channel's spectrum.

    The bound state is the lowest bound-classified eigenvalue; the channel's
    resonance target is the lowest resonance-classified eigenvalue.
    """
    targets: dict[str, complex] = {}
    for e, label in zip(spectrum.eigenvalues, spectrum.classifications):
        if label == "bound" and "bound" not in targets:
            targets["bound"] = complex(e)
        elif label == "resonance" and "resonance" not in targets:
            targets["resonance"] = complex(e)
    return targets
