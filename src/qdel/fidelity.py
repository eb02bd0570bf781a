"""State-dependent deletion fidelities of the two-qubit conditional deleter.

Everything here is driven through the machine itself, which is applied to
|psi>|psi>|A> by linearity. F_b = ||<blank|_b out||^2 and
F_a = ||<psi|_a out||^2 come from two operators `machines._fidelity_operators`
contracts once from the machine's ancilla-0 columns: F_b is the squared norm
of blank_op @ q and F_a of kept_op @ v, with q = (psi_i psi_j) over i <= j
and v = conj(psi) (x) q, so the output itself is never formed. Points and
sweeps go through `_operator_fidelities`, which forms q and v and keeps a
batch's points on its last axis, so each matmul and norm runs along the
batch; batches are streamed in slices of `_POINT_BLOCK` points, and a point
is a batch of one. On the Bloch grid psi = (a, b e^{i phi}) with a and b
real, so every entry of q and v is a real function of theta times a power of
e^{i phi}. `_grid_rows` contracts the operators' phase-power form
(`_PHASE_FORMS`, built once) with a band of theta rows' real coefficients and
multiplies the result by one table of e^{-i phi}, 1, e^{i phi} and
e^{2i phi}: one matmul per band, with q and v never formed per point.
`conditional_output` and the reduced density matrices `rho_ab`, `rho_a`
and `rho_b` take the object route instead (tensor, apply, density matrix,
partial trace); they are the reference the tests hold the batched values
to. Closed forms
(F_b = 1 - |a|^2|b|^2, F_a = 1 - 2|a|^2|b|^2, averages 5/6 and 2/3) are
used only as cross-checks, never as the computation path.

Bloch-sphere averages use Gauss-Legendre nodes in cos(theta) and the
midpoint rule in phi; both are exact for the low-degree trigonometric
integrands that appear here. The Gauss-Legendre rule is built once per grid
size per process, by Newton's method on the Legendre recurrence
(`_gauss_legendre`: O(n^2) time, O(n) memory); the phase table, the kernel
pass and the averages are computed afresh on every call.
The grid is never held whole: it goes through `_grid_rows` in bands of theta
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
from .machines import _fidelity_operators, _squared_norms, _upper_pairs, apply, conditional_deleter

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


def _phase_forms(operators: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, int]:
    """(form, rows_b): a qubit machine's `machines._fidelity_operators` in phase-power form.

    On the grid, psi = (a, b e^{i phi}) with a and b real. So entry p = (i, j) of q is a real
    coefficient times e^{i k phi}, k = i + j, and entry (s, p) of v = conj(psi) (x) q is one
    times e^{i (k - s) phi}. form[c] is the operators' column c (of q's P columns, then v's
    2P, with P = 3), blank_op's rows_b rows above kept_op's, placed in the slot of its power
    in [-1, 0, 1, 2] and zero in the others; form is read-only.
    """
    blank_op, kept_op = operators
    i, j = _upper_pairs(2)
    powers = np.concatenate([i + j, (i + j - np.arange(2)[:, None]).ravel()])
    rows_b, pairs = blank_op.shape
    columns = np.zeros((len(powers), rows_b + len(kept_op)), dtype=complex)
    columns[:pairs, :rows_b] = blank_op.T
    columns[pairs:, rows_b:] = kept_op.T
    form = np.zeros((*columns.shape, 4), dtype=complex)
    form[np.arange(len(powers)), :, powers + 1] = columns
    form.flags.writeable = False
    return form, rows_b


_MACHINE = conditional_deleter()
# the machine's (blank_op, kept_op) and their phase-power form, built once
_OPERATORS = _fidelity_operators(_MACHINE)
_PHASE_FORMS = _phase_forms(_OPERATORS)

# Points per slice of `_batched_fidelities`, and so per theta-row band of
# `_grid_averages`. Measured with the row kernel on a 2-core host with one BLAS
# thread at 2048/4096/8192 points: `_grid_averages(512, 512)` took 12.3/9.4/8.4 ms
# (median of 20 interleaved rounds) and peaked at 0.34/0.64/1.24 MB under
# tracemalloc. 4096 is kept: 8192 is about 11% faster in-process, but at twice
# the peak, and with an earlier kernel a perfbench `quadrature` run at 8192
# peaked 1.4 MB higher in RSS with a slower `pass_s`.
_POINT_BLOCK = 4096

# Largest grid `_grid_averages` accepts, 268,435,456 points: a 2048 x 131,072
# grid took 14 s on a 2-core host. The grid is streamed, so a larger one would
# not fail to allocate; it would run for minutes to hours instead.
_MAX_GRID_POINTS = 2**28

# Most theta rows `_grid_averages` accepts. `_gauss_legendre` is O(n^2) in time
# and O(n) in memory: 4.5/11/27/82 ms at 512/1024/2048/4096 rows (best of 5, one
# BLAS thread, 2-core host), peaking at 0.02/0.04/0.08/0.17 MB under tracemalloc.
# The theta integrands are quadratics in cos(theta), which the smallest rule
# accepted, 8 rows, already integrates exactly, so more rows buy only time.
_MAX_THETA_ROWS = 4096


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_n'(x)) elementwise, from the three-term recurrence in one loop over degree.

    The recurrence's coefficients are (2j - 1) / j and (j - 1) / j, each rounded once: with
    ((2j - 1) x P_{j-1} - (j - 1) P_{j-2}) / j instead, the weights of the middle nodes at
    n = 512 were 6.1e-15 from a 40-digit reference, against numpy's 3.9e-15.
    """
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, (2 * j - 1) / j * x * p1 - (j - 1) / j * p0
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only.

    Newton's method on `_legendre` over the n // 2 positive nodes, from Tricomi's
    estimates, until the largest step is at most 1e-15; the weights are
    2 / ((1 - x^2) P_n'(x)^2) from one more pass at the converged nodes. The
    positive half is mirrored, with an exact 0 node for odd n, so the nodes are
    exactly antisymmetric and the weights exactly symmetric. Only the rule is
    kept: it is a constant of n, and holds 16 n bytes.
    """
    half = n // 2
    k = np.arange(1, half + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    step = np.inf
    while np.max(np.abs(step)) > 1e-15:
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
    x = np.append(x, [0.0][: n % 2])  # odd n: the exact 0 node
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    nodes = np.concatenate([-x[:half], x[::-1]])
    weights = np.concatenate([w[:half], w[::-1]])
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
    """(F_b, F_a) for a batch of inputs alpha|0> + beta|1>: F_b = ||<blank|_b out||^2 and
    F_a = ||<psi|_a out||^2, the partial traces of `rho_b`/`rho_a` in one step, each one
    matmul of the machine's precontracted `_OPERATORS` and a norm (`_operator_fidelities`).
    The batch is walked in slices of _POINT_BLOCK points, each stacked as a (2, points)
    array, so no intermediate grows with it.
    """
    alphas, betas = np.broadcast_arrays(np.ravel(alphas), np.ravel(betas))
    f_b, f_a = np.empty(len(alphas)), np.empty(len(alphas))
    for start in range(0, len(alphas), _POINT_BLOCK):
        block = slice(start, start + _POINT_BLOCK)
        psi = np.stack([alphas[block], betas[block]]).astype(complex, copy=False)  # (2, b)
        f_b[block], f_a[block] = _operator_fidelities(_OPERATORS, psi)
    return f_b, f_a


def _operator_fidelities(
    operators: tuple[np.ndarray, np.ndarray], psis: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(F_b, F_a) of a (d, B) batch of one-copy amplitudes from a machine's
    `machines._fidelity_operators`: ||blank_op @ q||^2 and ||kept_op @ v||^2, with
    q = (psi_i psi_j) over i <= j and v = conj(psi) (x) q, the points on the last axis."""
    blank_op, kept_op = operators
    i, j = _upper_pairs(len(psis))
    q = psis[i] * psis[j]  # (P, B)
    v = (psis.conj()[:, None] * q).reshape(-1, psis.shape[1])  # (d P, B)
    return _squared_norms(blank_op @ q), _squared_norms(kept_op @ v)


def _phase_table(n_phi: int) -> np.ndarray:
    """(4, n_phi): e^{i k phi} for k = -1, 0, 1, 2 at the n_phi midpoints phi of [0, 2 pi)."""
    phi = (np.arange(n_phi) + 0.5) * (2.0 * np.pi / n_phi)
    phase = np.exp(1j * phi)
    return np.stack([phase.conj(), np.ones(n_phi), phase, phase * phase])


def _grid_rows(
    forms: tuple[np.ndarray, int], u: np.ndarray, table: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(F_b, F_a), each (R, n_phi), on R theta rows of the grid, psi = (a, b e^{i phi}) with
    a = sqrt((1 + u)/2) and b = sqrt((1 - u)/2), from a machine's `_phase_forms` and the
    `_phase_table` of the rows' phi. The rows' real coefficients of q and v contract the form
    into an (R, rows, 4) stack C, and C @ table is blank_op @ q above kept_op @ v at every
    point of the rows, so neither q nor v is formed per point."""
    form, rows_b = forms
    r = np.sqrt(np.stack([1.0 + u, 1.0 - u], axis=1) / 2.0)  # (R, 2): each row's a and b
    i, j = _upper_pairs(2)
    q = r[:, i] * r[:, j]  # (R, P)
    coefficients = np.concatenate([q, (r[:, :, None] * q[:, None]).reshape(len(u), -1)], axis=1)
    # summed over the columns in order, a row at a time, so a row's C does not depend on its band
    stack = np.sum(coefficients[:, :, None, None] * form, axis=1)
    out = stack @ table  # (R, rows, n_phi)
    return _squared_norms(out[:, :rows_b]), _squared_norms(out[:, rows_b:])


def _grid_averages(n_theta: int, n_phi: int) -> tuple[float, float]:
    """Bloch-sphere averages (of F_b, of F_a) over an n_theta x n_phi grid.

    Normalized measure sin(theta) dtheta dphi / 4 pi; Gauss-Legendre in
    cos(theta), midpoint in phi. The grid goes through `_grid_rows` in bands of
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
    table = _phase_table(n_phi)
    row_means = np.empty((2, n_theta))
    rows = max(1, _POINT_BLOCK // n_phi)
    for start in range(0, n_theta, rows):
        band = slice(start, start + rows)
        for means, f in zip(row_means, _grid_rows(_PHASE_FORMS, u[band], table)):
            means[band] = np.mean(f, axis=1)
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
