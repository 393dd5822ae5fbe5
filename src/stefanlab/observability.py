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
without the accumulated sums of the blocked assembly: the Gramian images of
the unit columns give the denominator, and the free forward sweeps of the
columns of P the numerator, each column bitwise equal to the single-column
sweeps it stands for.  The backward sweep of the unit columns is the
Propagator's unit sweep, shared with `estimate_constant` and
`control.dense_gramian`: whichever of them passes over the unit levels
first sets both forms.  The oracle sweeps nothing backward of its own; one
blocked forward sweep carries the Gramian columns under the control
indicator and the free columns of P together.  What the estimate computes
its own way is still checked: the forward half of the Gramian images
checks G's accumulated sums, and the forward sweep of P checks the duality
behind (R(0)/R(T)) P^T P.

The observation radius b is not part of the operators.  A ladder of radii
on one path (`pde.propagator`) shares one operator build, one P and one
forward sweep of P's free columns.  Where the operators keep the chi of
their unit sweep (m(n-1)^2 within `pde._KEEP_LEVELS`), every later pass
over the unit levels, at any radius and in either function, forms them
from those chi, so the ladder makes one backward unit sweep in all; above
that bound each pass sweeps the unit columns again.

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
deterministic seed vector s, each path on its own form (s^T G s for the
estimate, s^T B s on the oracle's symmetrized Gramian columns), so both
paths solve the same regularized problem up to rounding.

The discrete constant approximates the continuous one with no claimed rate;
refinement and geometry trends are reported, not limits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .domain import BoundaryPath, PhysicalSetup
from .errors import ConvergenceError, GridError
from .pde import SchemeConfig, propagator

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


def _seed(n_int: int) -> np.ndarray:
    v = np.sin(np.pi * np.arange(1, n_int + 1) / (n_int + 1))
    return v / np.linalg.norm(v)


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
    prop = propagator(path, potential, cfg, control_radius=setup.b if b is None else b)
    gram, slice0 = prop.assemble_forms()
    amat = (path.radii[0] / path.radii[-1]) * (slice0.T @ slice0)
    s = _seed(cfg.n - 1)
    mu = _dominant(amat, gram, float(s @ gram @ s), obs.relative_floor, cfg)
    return ObservabilityEstimate(constant=mu, iterations=1)


def dense_constant(path: BoundaryPath, potential, setup: PhysicalSetup,
                   cfg: SchemeConfig, obs: ObservabilityConfig | None = None,
                   b: float | None = None) -> ObservabilityEstimate:
    """Assemble both forms from unit-column sweeps and solve the eigenproblem.

    Brute-force oracle for estimate_constant.  Every interior unit column
    goes through an adjoint sweep then a free forward sweep (numerator) and
    a Gramian apply (denominator); the floor scalar is s^T B s on its own
    symmetrized denominator, independent of the accumulated G.  The
    adjoint sweeps are the Propagator's unit sweep (see the module
    docstring): after estimate_constant on the same inputs, with the
    operators' chi kept, the oracle makes no backward solve.  The Gramian
    columns and the free columns of P share one blocked forward sweep,
    solved with gtsv; at a later radius on the same path the free columns'
    images are read back and only the Gramian columns sweep forward.  Each
    column still costs several sweeps' worth of arithmetic, so the oracle
    stays capped at small grids.
    """
    if cfg.n > _DENSE_NODE_CAP or cfg.m > _DENSE_STEP_CAP:
        raise GridError(
            f"dense assembly capped at ({_DENSE_NODE_CAP}, {_DENSE_STEP_CAP}), "
            f"got ({cfg.n}, {cfg.m})")
    obs = obs or ObservabilityConfig()
    prop = propagator(path, potential, cfg, control_radius=setup.b if b is None else b)
    n_int = cfg.n - 1
    # the Gramian images of the interior unit columns, then the free final
    # states of the columns of P, from one forward sweep
    images = prop._unit_gramian(with_free=True)
    bmat = images[:, :n_int]
    amat = images[:, n_int:]
    for name, mat in (("numerator", amat), ("denominator", bmat)):
        gap = float(np.max(np.abs(mat - mat.T)))
        scale = max(float(np.max(np.abs(mat))), 1.0)
        if gap > 1e-12 * scale:
            raise GridError(f"{name} form lost symmetry: gap {gap:.3e}")
    amat = 0.5 * (amat + amat.T)
    bmat = 0.5 * (bmat + bmat.T)
    s = _seed(n_int)
    mu = _dominant(amat, bmat, float(s @ bmat @ s), obs.relative_floor, cfg)
    return ObservabilityEstimate(constant=mu, iterations=n_int)
