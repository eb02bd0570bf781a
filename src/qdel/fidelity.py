"""State-dependent deletion fidelities of the two-qubit conditional deleter.

Everything here is driven through the machine itself, which is applied to
|psi>|psi>|A> by linearity. F_b and F_a are the squared norms of two entries
of the weight table `machines._weights` forms from the two-copy kernel's
output, and only those two are formed. The kernel keeps a batch's points on
its last axis, so each contraction and norm runs along the batch; batches
are streamed in slices of `_POINT_BLOCK` points, and a point is a batch of
one.
`conditional_output` and the reduced density matrices `rho_ab`, `rho_a`
and `rho_b` take the object route instead (tensor, apply, density matrix,
partial trace); they are the reference the tests hold the batched values
to. Closed forms
(F_b = 1 - |a|^2|b|^2, F_a = 1 - 2|a|^2|b|^2, averages 5/6 and 2/3) are
used only as cross-checks, never as the computation path.

Bloch-sphere averages use Gauss-Legendre nodes in cos(theta) and the
midpoint rule in phi; both are exact for the low-degree trigonometric
integrands that appear here. The Gauss-Legendre rule is built once per grid
size per process (numpy builds it from an n x n eigenproblem); the grid, the
kernel pass and the averages are computed afresh on every call. The grid is
never held whole: it is built and sent through the kernel in bands of theta
rows, about `_POINT_BLOCK` points each, and only the per-row phi means are
kept, so a grid's memory does not grow with its size. A grid above
`_MAX_GRID_POINTS` points, or above `_MAX_THETA_ROWS` theta rows, is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidStateError
from .hilbert import (
    DensityMatrix,
    Ket,
    _alpha_sq,
    _int_at_least,
    basis_ket,
    density_of,
    partial_trace,
    qubit_ket,
    tensor,
)
from .machines import _copies_output, _norms_sq, _weights, apply, conditional_deleter

__all__ = [
    "FidelityReport",
    "conditional_output",
    "rho_ab",
    "rho_b",
    "rho_a",
    "point_fidelities",
    "average_fidelity",
    "fidelity_report",
    "AVG_DELETION_FIDELITY",
    "AVG_RETENTION_FIDELITY",
]

# closed-form Bloch-sphere averages of F_b and F_a (the quadrature must
# reproduce them; they are never substituted for it)
AVG_DELETION_FIDELITY = 5.0 / 6.0
AVG_RETENTION_FIDELITY = 2.0 / 3.0

_MIN_GRID = 8

_MACHINE = conditional_deleter()

# Points per slice of `_batched_fidelities`, and so per theta-row band of
# `_grid_averages`. Measured on a 2-core host with one BLAS thread at
# 1024/2048/4096/8192/16384 points: `_grid_averages(512, 512)` peaked at
# 0.64/1.19/2.22/4.15/8.28 MB under tracemalloc and took
# 1.26-1.37/1.08-1.13/1/0.97-1.06/2.47-2.64 times as long as at 4096 (median
# of 60 interleaved rounds, in each of two processes; 4096 itself 25-36 ms
# median, the host's load varying); one 5 s perfbench `quadrature` run at
# each size peaked at 40.8/40.8/40.7/42.1/46.3 MB RSS with a `pass_s` of
# 38.5/35.0/33.4/38.1/72.2 ms. 4096 is kept.
_POINT_BLOCK = 4096

# Largest grid `_grid_averages` accepts, 268,435,456 points: about a minute
# of kernel time on a 2-core host. The grid is streamed, so a larger one would
# not fail to allocate; it would run for hours instead.
_MAX_GRID_POINTS = 2**28

# Most theta rows `_grid_averages` accepts. numpy's n-point Gauss-Legendre rule
# solves a dense n x n eigenproblem, so its cost grows as n^3 in n_theta
# alone: 0.03/0.15/1.0/7.9 s at 512/1024/2048/4096 rows (one BLAS thread,
# 2-core host), and 8 n^2 bytes, 3.2 GB at 20,000 rows.
_MAX_THETA_ROWS = 4096


@lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's n-point Gauss-Legendre nodes and weights on [-1, 1], read-only.

    Only the rule is kept: it is a constant of n, and building it solves an
    n x n eigenproblem (26-35 ms at n = 512 on a 2-core host). A rule holds
    16 n bytes.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def conditional_output(alpha: complex, beta: complex) -> Ket:
    """Machine output on two copies of alpha|0> + beta|1>, shape [2, 2, 3].

    Produced by the linearity engine, not assembled by hand:
    alpha^2 |0 blank A_0> + beta^2 |1 blank A_1> + alpha beta (|01> + |10>)|A>.
    """
    psi = qubit_ket(alpha, beta)
    return apply(_MACHINE, tensor(psi, psi, basis_ket([3], 0)))


def rho_ab(alpha: complex, beta: complex) -> DensityMatrix:
    """Two-qubit reduced state after deletion (ancilla traced out)."""
    return partial_trace(density_of(conditional_output(alpha, beta)), keep={0, 1})


def rho_b(alpha: complex, beta: complex) -> DensityMatrix:
    """Reduced state of the deletion mode (the qubit sent to blank)."""
    return partial_trace(rho_ab(alpha, beta), keep={1})


def rho_a(alpha: complex, beta: complex) -> DensityMatrix:
    """Reduced state of the retained mode."""
    return partial_trace(rho_ab(alpha, beta), keep={0})


def point_fidelities(alpha: complex, beta: complex) -> tuple[float, float]:
    """(F_b, F_a) at one input state, as a batch of one through the kernel.

    F_b = <blank| rho_b |blank> measures how well mode b was blanked;
    F_a = <psi| rho_a |psi> measures how well mode a survived.
    """
    qubit_ket(alpha, beta)
    f_b, f_a = _batched_fidelities(np.array([alpha]), np.array([beta]))
    return float(f_b[0]), float(f_a[0])


def _batched_fidelities(alphas: np.ndarray, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(F_b, F_a) for a batch of inputs alpha|0> + beta|1>: the squared norms of the `_weights`
    entries with mode b on the blank and with mode a on |psi>, the partial traces of
    `rho_b`/`rho_a` in one step. The batch is walked in slices of _POINT_BLOCK points, each
    stacked as a (2, points) array, so no intermediate grows with it.
    """
    alphas, betas = np.broadcast_arrays(np.ravel(alphas), np.ravel(betas))
    f_b, f_a = np.empty(len(alphas)), np.empty(len(alphas))
    for start in range(0, len(alphas), _POINT_BLOCK):
        block = slice(start, start + _POINT_BLOCK)
        psi = np.stack([alphas[block], betas[block]]).astype(complex, copy=False)  # (2, b)
        (_, blank), (kept, _) = _weights(_copies_output(_MACHINE, psi), psi)
        f_b[block], f_a[block] = _norms_sq(blank), _norms_sq(kept)
    return f_b, f_a


def _grid_averages(n_theta: int, n_phi: int) -> tuple[float, float]:
    """Bloch-sphere averages (of F_b, of F_a) over an n_theta x n_phi grid.

    Normalized measure sin(theta) dtheta dphi / 4 pi; Gauss-Legendre in
    cos(theta), midpoint in phi. The grid goes through the kernel in bands of
    whole theta rows, about _POINT_BLOCK points each, so only one band and the
    (n_theta,) row means are held; each row's phi mean is still one np.mean
    over that row's values. A grid above _MAX_GRID_POINTS points or
    _MAX_THETA_ROWS theta rows is refused before the rule is built.
    """
    n_theta = _int_at_least(n_theta, _MIN_GRID, "n_theta")
    n_phi = _int_at_least(n_phi, _MIN_GRID, "n_phi")
    if n_theta * n_phi > _MAX_GRID_POINTS:
        raise ValueError(
            f"grid {n_theta}x{n_phi} has {n_theta * n_phi:,} points,"
            f" above the limit of {_MAX_GRID_POINTS:,}"
        )
    if n_theta > _MAX_THETA_ROWS:
        raise ValueError(
            f"grid {n_theta}x{n_phi} has {n_theta:,} theta rows, above the limit of"
            f" {_MAX_THETA_ROWS:,}"
        )
    u, w = _gauss_legendre(n_theta)
    phi = (np.arange(n_phi) + 0.5) * (2.0 * np.pi / n_phi)
    phase = np.exp(1j * phi)
    row_means = np.empty((2, n_theta))
    rows = max(1, _POINT_BLOCK // n_phi)
    for start in range(0, n_theta, rows):
        band = slice(start, start + rows)
        psis = np.empty((2, len(u[band]), n_phi), dtype=complex)  # the band's alpha and beta
        psis[0] = np.sqrt((1.0 + u[band]) / 2.0)[:, None]
        np.multiply(np.sqrt((1.0 - u[band]) / 2.0)[:, None], phase, out=psis[1])
        for means, f in zip(row_means, _batched_fidelities(*psis.reshape(2, -1))):
            means[band] = np.mean(f.reshape(psis.shape[1:]), axis=1)
    # weights sum to 2 over u in [-1, 1]; phi average is a plain mean
    avg_b, avg_a = (float(np.sum(w * means) / 2.0) for means in row_means)
    return avg_b, avg_a


def average_fidelity(mode: str, n_theta: int, n_phi: int) -> float:
    """Bloch-sphere average of F_a or F_b over the full 2-D grid (see `_grid_averages`)."""
    if mode not in ("a", "b"):
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
    avg_b, avg_a = _grid_averages(n_theta, n_phi)
    return avg_b if mode == "b" else avg_a


@dataclass(frozen=True)
class FidelityReport:
    """Pointwise and averaged deletion/retention fidelities.

    quadrature_error is the larger deviation of the two quadrature averages
    from their closed forms 5/6 and 2/3; n_theta x n_phi is the grid the
    averages came from.
    """

    alpha_sq: float
    f_b: float
    f_a: float
    avg_f_b: float
    avg_f_a: float
    quadrature_error: float
    n_theta: int
    n_phi: int

    def __post_init__(self) -> None:
        x = self.alpha_sq
        y = x * (1.0 - x)
        if abs(self.f_b - (1.0 - y)) > 1e-12:
            raise InvalidStateError("f_b deviates from the density-matrix value 1 - |a|^2|b|^2")
        if abs(self.f_a - (1.0 - 2.0 * y)) > 1e-12:
            raise InvalidStateError("f_a deviates from the density-matrix value 1 - 2|a|^2|b|^2")
        if self.f_a > self.f_b + 1e-12:
            raise InvalidStateError("retention fidelity cannot exceed deletion fidelity")


def fidelity_report(alpha_sq: float, n_theta: int = 256, n_phi: int = 256) -> FidelityReport:
    """Pipeline fidelities at |alpha|^2 plus quadrature averages on the given grid."""
    x = _alpha_sq(alpha_sq)
    f_b, f_a = point_fidelities(math.sqrt(x), math.sqrt(1.0 - x))
    avg_b, avg_a = _grid_averages(n_theta, n_phi)
    err = max(abs(avg_b - AVG_DELETION_FIDELITY), abs(avg_a - AVG_RETENTION_FIDELITY))
    return FidelityReport(
        alpha_sq=x, f_b=f_b, f_a=f_a, avg_f_b=avg_b, avg_f_a=avg_a, quadrature_error=err,
        n_theta=int(n_theta), n_phi=int(n_phi),
    )
