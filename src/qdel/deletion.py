"""N-to-M deletion of identical qubits: symmetric expansion, quality bound.

N identical copies of a qubit live in the (N+1)-dimensional symmetric
subspace; a deleting machine is supposed to keep M copies and blank the
rest. This module builds the ideal and best-case actual outputs of such a
machine, evaluates the closed-form upper bound on the overlap ("quality")
between them, and cross-checks the published optimum against an independent
numerical minimization of the bound.

The constructed outputs live on a compact [N+1, 3] register: coordinate j of
the first factor encodes "Dicke state j of the M kept copies, blanks
attached", and the second factor is the 3-level machine ancilla.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import Ket, _int_at_least, qubit_ket

__all__ = [
    "QualityReport",
    "symmetric_expand",
    "ideal_delete_output",
    "actual_delete_output",
    "quality_bound",
    "optimal_quality",
    "GRID_STEP",
]

# dense-grid resolution for the numerical minimization of the bound
GRID_STEP = 1e-4
_GRID = np.linspace(0.0, 1.0, round(1.0 / GRID_STEP) + 1)
_GRID.setflags(write=False)

# Refinement of the grid minimum: each pass evaluates _REFINE_POINTS points
# across the bracket around the previous argmin and keeps its two
# neighbours, shrinking the bracket 50-fold, until it is _REFINE_TOL wide.
_REFINE_POINTS = 101
_REFINE_TOL = 1e-10


def symmetric_expand(alpha: complex, beta: complex, n: int) -> np.ndarray:
    """Expand (alpha|0> + beta|1>)^(x)N over the normalized Dicke basis.

    Returns the read-only (N+1,) coefficients: coefficient[k] multiplies the
    normalized Dicke state with k ones and is sqrt(C(N,k)) alpha^(N-k) beta^k,
    the unique choice that reproduces the plain tensor power when embedded
    back into 2^N dimensions. coefficient[0] and coefficient[N] are alpha^N
    and beta^N exactly.
    """
    n = _int_at_least(n, 1, "n")
    qubit_ket(alpha, beta)
    coeffs = np.array(
        [math.sqrt(math.comb(n, k)) * alpha ** (n - k) * beta**k for k in range(n + 1)],
        dtype=complex,
    )
    coeffs.setflags(write=False)
    return coeffs


def _copy_counts(n: object, m: object) -> tuple[int, int]:
    """n and m as ints with 1 <= m <= n; bools and non-integers are a ValueError."""
    n, m = _int_at_least(n, 1, "n"), _int_at_least(m, 1, "m")
    if m > n:
        raise ValueError(f"need 1 <= m <= n, got n={n}, m={m}")
    return n, m


def ideal_delete_output(alpha: complex, beta: complex, n: int, m: int) -> Ket:
    """What a machine that knows the state would produce: M intact copies.

    |psi>^(x)M |blank>^(x)(N-M) |A>, encoded on the [N+1, 3] register with the
    kept copies in their M-copy symmetric expansion and the ancilla left in
    its initial basis state.
    """
    n, m = _copy_counts(n, m)
    amps = np.zeros((n + 1, 3), dtype=complex)
    amps[: m + 1, 0] = symmetric_expand(alpha, beta, m)
    return Ket((n + 1, 3), amps.reshape(-1))


def actual_delete_output(alpha: complex, beta: complex, n: int, m: int) -> Ket:
    """Best-case output of a linear N-to-M deleter on N unknown copies.

    Only the two basis terms delete cleanly:

        alpha^N |0..0>|blanks>|A_0>  +  beta^N |1..1>|blanks>|A_1>
        + sum_k f_k |k'>,

    with the |k'> orthonormal and orthogonal to both leading terms. The
    bound is reached when both final ancilla states are the ideal one,
    A_0 = A_1 = |0>, so every term is a basis state of the [N+1, 3]
    register with the ancilla in |0>: the leading terms take cells (0, 0)
    and (M, 0), and the k-th garbage term, k = 1..N-1, the k-th of the
    cells (j, 0) with j = 1..N, j != M. The garbage terms thereby line up
    with the ideal output's middle Dicke components where they can.
    """
    n, m = _copy_counts(n, m)
    amps = np.zeros((n + 1, 3), dtype=complex)
    rows = [0] + [j for j in range(1, n + 1) if j != m] + [m]
    amps[rows, 0] = symmetric_expand(alpha, beta, n)
    return Ket((n + 1, 3), amps.reshape(-1))


def quality_bound(alpha_sq: float, n: int, m: int) -> float:
    """Upper bound on |<actual|ideal>| for an N-to-M deleter at this input.

    |a|^(N+M) + |b|^(N+M) + sqrt(1 - |a|^2N - |b|^2N) sqrt(1 - |a|^2M - |b|^2M)
    with |b|^2 = 1 - |a|^2.
    """
    n, m = _copy_counts(n, m)
    x = float(alpha_sq)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"alpha_sq must lie in [0, 1], got {x}")
    return float(_bound_values(np.array([x]), n, m)[0])


def _bound_values(xs: np.ndarray, n: int, m: int) -> np.ndarray:
    y = 1.0 - xs
    first = xs ** ((n + m) / 2) + y ** ((n + m) / 2)
    f1 = np.maximum(1.0 - (xs**n + y**n), 0.0)
    f2 = np.maximum(1.0 - (xs**m + y**m), 0.0)
    return first + np.sqrt(f1 * f2)


@dataclass(frozen=True)
class QualityReport:
    """Closed-form optimal quality next to its independent numerical check.

    min_bound is the grid minimum after local refinement; formula_value is the
    closed form; agreement is their absolute difference. The two genuinely
    disagree for some (N, M) because the closed form equals the bound at the
    balanced state |alpha|^2 = 1/2, which is not always where it is smallest.
    """

    n: int
    m: int
    min_bound: float
    formula_value: float
    agreement: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_bound <= 1.0 + 1e-12:
            raise ValueError(f"min_bound {self.min_bound} outside [0, 1]")
        if self.n == self.m and self.formula_value != 1.0:
            raise ValueError("the closed form must be exactly 1 when nothing is deleted")

    @property
    def bound_curve(self) -> np.ndarray:
        """(|alpha|^2, bound) samples on the GRID_STEP grid, as a (points, 2) array."""
        return np.column_stack([_GRID, _bound_values(_GRID, self.n, self.m)])


def _bracket(xs: np.ndarray, values: np.ndarray) -> tuple[float, float, float]:
    """The two neighbours in xs of the argmin of values, and that minimum."""
    i = int(np.argmin(values))
    return xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)], float(values[i])


def optimal_quality(n: int, m: int) -> QualityReport:
    """Closed-form optimum plus the dense-grid minimum of the bound.

    The grid (step 1e-4 over |alpha|^2, its minimum refined by further
    grid passes to a bracket 1e-10 wide) serves as the independent oracle
    for the closed form

        2 / 2^((N+M)/2) + sqrt((1 - 2/2^N)(1 - 2/2^M)).
    """
    n, m = _copy_counts(n, m)
    formula = 2.0 ** (1.0 - (n + m) / 2) + math.sqrt(
        (1.0 - 2.0 ** (1 - n)) * (1.0 - 2.0 ** (1 - m))
    )

    lo, hi, min_bound = _bracket(_GRID, _bound_values(_GRID, n, m))
    while hi - lo > _REFINE_TOL:
        fine = np.linspace(lo, hi, _REFINE_POINTS)
        lo, hi, refined = _bracket(fine, _bound_values(fine, n, m))
        min_bound = min(min_bound, refined)

    return QualityReport(
        n=n,
        m=m,
        min_bound=min_bound,
        formula_value=formula,
        agreement=abs(min_bound - formula),
    )
