"""Discrete observability constant of the backward problem.

The constant is the supremum over terminal data of

    || phi(., 0) ||^2 over L2(0, R(0))
    -----------------------------------
    integral of phi^2 over the observation cylinder r < b

with phi the backward solution.  On the grid both quadratic forms are small
dense matrices on interior nodes, and one blocked adjoint sweep from the
identity (`Propagator.assemble_forms`) builds both: the denominator form is
the control Gramian, accumulated from the masked observation levels of the
sweep, and the numerator form is (R(0)/R(T)) P^T P with P the sweep's t = 0
slice (the radius ratio factors of the backward steps absorb the change of
slice inner products exactly, so backward sweep followed by free forward
sweep is Euclidean-symmetric on interior nodes).  The supremum is the
dominant eigenvalue of the generalized symmetric problem A x = mu B x,
solved by scipy.linalg.eigh.  A brute-force oracle at small grid sizes
assembles both forms from the sweeps of every interior unit column at once,
without the accumulated sums of the blocked assembly: one blocked adjoint
sweep then one blocked free forward sweep give the numerator, and one
blocked Gramian apply the denominator, each column bitwise equal to the
single-column sweeps it stands for.

A numerical hazard shapes both paths, verified against exact-arithmetic
replicas of the discrete pair: terminal data built from the highest grid
modes keeps initial energy while staying nearly invisible to the
observation region, so the exact discrete pair has enormous top
eigenvalues that grow under refinement and say nothing about the
continuous constant; their optimizers have observation energy tens of
orders of magnitude below the form's scale, far outside double precision.
The reported constant is therefore the dominant eigenvalue of
(A, B + floor * I) with a fixed relative floor: the supremum restricted to
terminal data whose observation energy is at least `relative_floor` of a
reference datum's.  The floor scalar is the denominator form evaluated at a
deterministic seed vector, so both paths solve the same regularized
problem up to rounding.

The discrete constant approximates the continuous one with no claimed rate;
refinement and geometry trends are reported, not limits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .domain import BoundaryPath, PhysicalSetup
from .errors import ConvergenceError, GridError
from .pde import Propagator, SchemeConfig

_DENSE_NODE_CAP = 32
_DENSE_STEP_CAP = 64


@dataclass(frozen=True)
class ObservabilityConfig:
    """Relative floor of the denominator form (see the module docstring)."""

    relative_floor: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.relative_floor < 1.0:
            raise GridError(
                f"relative_floor must lie in (0, 1), got {self.relative_floor}")


@dataclass(frozen=True)
class ObservabilityEstimate:
    """Dominant generalized eigenvalue with the run that produced it.

    iterations counts one blocked sweep for estimate_constant and, for
    dense_constant, the columns assembled: one per interior node.
    """

    constant: float
    iterations: int
    nodes: int
    steps: int


def _seed(n_int: int) -> np.ndarray:
    v = np.sin(np.pi * np.arange(1, n_int + 1) / (n_int + 1))
    return v / np.linalg.norm(v)


def _propagator(path: BoundaryPath, potential, setup: PhysicalSetup,
                cfg: SchemeConfig, b: float | None) -> Propagator:
    radius = setup.b if b is None else float(b)
    if radius <= 0.0:
        raise GridError(f"observation radius must be positive, got {radius}")
    return Propagator(path, potential, cfg, control_radius=radius)


def _refinement_hint(cfg: SchemeConfig) -> str:
    return (f"denominator form is numerically singular at ({cfg.n}, {cfg.m}); "
            f"refine to ({2 * cfg.n}, {2 * cfg.m}) or enlarge the observation radius")


def _dominant(amat: np.ndarray, bmat: np.ndarray, seed_value: float,
              relative_floor: float, cfg: SchemeConfig) -> float:
    """Top eigenvalue of (A, B + floor I), floor = relative_floor * seed_value.

    seed_value is the denominator form at the seed vector.
    """
    if not seed_value > 0.0:
        raise ConvergenceError(_refinement_hint(cfg))
    bmat = bmat + relative_floor * seed_value * np.eye(bmat.shape[0])
    try:
        vals = eigh(amat, bmat, eigvals_only=True)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(_refinement_hint(cfg)) from exc
    return float(vals[-1])


def estimate_constant(path: BoundaryPath, potential, setup: PhysicalSetup,
                      cfg: SchemeConfig, obs: ObservabilityConfig | None = None,
                      b: float | None = None) -> ObservabilityEstimate:
    """Dominant mu of the generalized pair, both forms from one blocked sweep.

    b overrides the observation radius of the setup; pass np.inf for the
    degenerate full-window variant (observation everywhere).
    """
    obs = obs or ObservabilityConfig()
    prop = _propagator(path, potential, setup, cfg, b)
    gram, slice0 = prop.assemble_forms()
    amat = (path.radii[0] / path.radii[-1]) * (slice0.T @ slice0)
    s = _seed(cfg.n - 1)
    mu = _dominant(amat, gram, float(s @ gram @ s), obs.relative_floor, cfg)
    return ObservabilityEstimate(constant=mu, iterations=1, nodes=cfg.n, steps=cfg.m)


def dense_constant(path: BoundaryPath, potential, setup: PhysicalSetup,
                   cfg: SchemeConfig, obs: ObservabilityConfig | None = None,
                   b: float | None = None) -> ObservabilityEstimate:
    """Assemble both forms from unit-column sweeps and solve the eigenproblem.

    Brute-force oracle for estimate_constant.  Every interior unit column
    goes through an adjoint sweep then a free forward sweep (numerator) and
    a Gramian apply (denominator), all columns in one blocked pass per
    sweep, with the seed vector as one more column of the Gramian apply.
    Each column still costs four sweeps' worth of arithmetic, so the oracle
    stays capped at small grids.
    """
    if cfg.n > _DENSE_NODE_CAP or cfg.m > _DENSE_STEP_CAP:
        raise GridError(
            f"dense assembly capped at ({_DENSE_NODE_CAP}, {_DENSE_STEP_CAP}), "
            f"got ({cfg.n}, {cfg.m})")
    obs = obs or ObservabilityConfig()
    prop = _propagator(path, potential, setup, cfg, b)
    n_int = cfg.n - 1
    s = _seed(n_int)
    # interior unit columns, then the padded seed as one more column
    block = np.zeros((cfg.n + 1, n_int + 1))
    block[1:-1, :n_int] = np.eye(n_int)
    block[1:-1, n_int] = s
    amat = prop.run_forward(prop.run_adjoint(block[:, :n_int])[:, 0])[1:-1, -1]
    images = prop.apply_gramian(block)[1:-1]
    bmat = images[:, :n_int]
    for name, mat in (("numerator", amat), ("denominator", bmat)):
        gap = float(np.max(np.abs(mat - mat.T)))
        scale = max(float(np.max(np.abs(mat))), 1.0)
        if gap > 1e-12 * scale:
            raise GridError(f"{name} form lost symmetry: gap {gap:.3e}")
    amat = 0.5 * (amat + amat.T)
    bmat = 0.5 * (bmat + bmat.T)
    # s against a strided column: BLAS sums a strided vector in another order
    # than a contiguous one, and the strided order keeps the constant bitwise
    # equal to the column loop the tests keep as the reference
    seed_value = float(s @ images[:, n_int])
    mu = _dominant(amat, bmat, seed_value, obs.relative_floor, cfg)
    return ObservabilityEstimate(constant=mu, iterations=n_int, nodes=cfg.n, steps=cfg.m)
