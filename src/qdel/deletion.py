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
from typing import Callable

import numpy as np

from .hilbert import Ket, orthonormal_completion, qubit_ket

__all__ = [
    "SymmetricState",
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


@dataclass(frozen=True, eq=False)
class SymmetricState:
    """N identical qubit copies in the (N+1)-amplitude symmetric representation.

    coefficients[k] multiplies the normalized Dicke state with k ones;
    coefficients[0] and coefficients[N] are alpha^N and beta^N exactly.
    """

    n_copies: int
    alpha: complex
    beta: complex
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=complex).reshape(-1)
        if coeffs.size != self.n_copies + 1:
            raise ValueError(
                f"{self.n_copies} copies need {self.n_copies + 1} coefficients, got {coeffs.size}"
            )
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)


def symmetric_expand(alpha: complex, beta: complex, n: int) -> SymmetricState:
    """Expand (alpha|0> + beta|1>)^(x)N over the normalized Dicke basis.

    coefficient[k] = sqrt(C(N,k)) alpha^(N-k) beta^k, the unique choice that
    reproduces the plain tensor power when embedded back into 2^N dimensions.
    """
    if n < 1:
        raise ValueError("need at least one copy")
    qubit_ket(alpha, beta)
    coeffs = np.array(
        [math.sqrt(math.comb(n, k)) * alpha ** (n - k) * beta**k for k in range(n + 1)],
        dtype=complex,
    )
    return SymmetricState(n_copies=n, alpha=complex(alpha), beta=complex(beta), coefficients=coeffs)


def _validate_n_m(n: int, m: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got n={n}, m={m}")


def ideal_delete_output(alpha: complex, beta: complex, n: int, m: int) -> Ket:
    """What a machine that knows the state would produce: M intact copies.

    |psi>^(x)M |blank>^(x)(N-M) |A>, encoded on the [N+1, 3] register with the
    kept copies in their M-copy symmetric expansion and the ancilla left in
    its initial basis state.
    """
    _validate_n_m(n, m)
    kept = symmetric_expand(alpha, beta, m).coefficients
    amps = np.zeros((n + 1, 3), dtype=complex)
    amps[: m + 1, 0] = kept
    return Ket((n + 1, 3), amps.reshape(-1))


def actual_delete_output(
    alpha: complex,
    beta: complex,
    n: int,
    m: int,
    ancilla_overlap: float = 1.0,
) -> Ket:
    """Best-case output of a linear N-to-M deleter on N unknown copies.

    Only the two basis terms delete cleanly:

        alpha^N |0..0>|blanks>|A_0>  +  beta^N |1..1>|blanks>|A_1>
        + sum_k f_k |k'>,

    with the |k'> orthonormal and orthogonal to both leading terms. The
    designer's only freedom on the leading terms is how well the final
    ancilla states overlap the ideal one; `ancilla_overlap` sets
    <A_0|A_ideal> = <A_1|A_ideal> (1.0 is the bound-saturating choice).
    """
    _validate_n_m(n, m)
    qubit_ket(alpha, beta)
    t = float(ancilla_overlap)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"ancilla_overlap must lie in [0, 1], got {t}")
    s = math.sqrt(max(1.0 - t * t, 0.0))
    full = symmetric_expand(alpha, beta, n).coefficients

    a0 = np.zeros(3, dtype=complex)
    a1 = np.zeros(3, dtype=complex)
    a0[0], a0[1] = t, s
    a1[0], a1[2] = t, s

    def reg(j: int, anc: np.ndarray) -> np.ndarray:
        v = np.zeros((n + 1, 3), dtype=complex)
        v[j, :] = anc
        return v.reshape(-1)

    lead_0 = reg(0, a0)  # all copies were |0>: M zeros kept, ancilla A_0
    lead_1 = reg(m, a1)  # all copies were |1>: Dicke index M, ancilla A_1
    amps = full[0] * lead_0 + full[n] * lead_1

    if n > 1:
        # Candidates are scanned with the ancilla-0 column first (register
        # cells (j, 0) for j = 1..n, then (0, 0), then the remaining cells in
        # index order), which lets the garbage terms line up with the ideal
        # output's middle Dicke components whenever the ancilla geometry
        # allows it.
        order = [j * 3 for j in range(1, n + 1)] + [0]
        order += [j * 3 + c for c in (1, 2) for j in range(n + 1)]
        primes = orthonormal_completion([lead_0, lead_1], order, n - 1)
        for k in range(1, n):
            amps = amps + full[k] * primes[k - 1]
    return Ket((n + 1, 3), amps)


def quality_bound(alpha_sq: float, n: int, m: int) -> float:
    """Upper bound on |<actual|ideal>| for an N-to-M deleter at this input.

    |a|^(N+M) + |b|^(N+M) + sqrt(1 - |a|^2N - |b|^2N) sqrt(1 - |a|^2M - |b|^2M)
    with |b|^2 = 1 - |a|^2.
    """
    _validate_n_m(n, m)
    x = float(alpha_sq)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"alpha_sq must lie in [0, 1], got {x}")
    return float(_bound_values(np.array([x]), n, m)[0])


def _bound_values(xs: np.ndarray, n: int, m: int) -> np.ndarray:
    y = 1.0 - xs
    first = xs ** ((n + m) / 2) + y ** ((n + m) / 2)
    f1 = np.clip(1.0 - (xs**n + y**n), 0.0, None)
    f2 = np.clip(1.0 - (xs**m + y**m), 0.0, None)
    return first + np.sqrt(f1 * f2)


@dataclass(frozen=True, eq=False)
class QualityReport:
    """Closed-form optimal quality next to its independent numerical check.

    bound_curve holds (|alpha|^2, bound) grid samples; min_bound is the grid
    minimum after local refinement; formula_value is the closed form;
    agreement is their absolute difference. The two genuinely disagree for
    some (N, M) because the closed form equals the bound at the balanced
    state |alpha|^2 = 1/2, which is not always where the bound is smallest.
    """

    n: int
    m: int
    bound_curve: np.ndarray
    min_bound: float
    formula_value: float
    agreement: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_bound <= 1.0 + 1e-12:
            raise ValueError(f"min_bound {self.min_bound} outside [0, 1]")
        if self.n == self.m and self.formula_value != 1.0:
            raise ValueError("the closed form must be exactly 1 when nothing is deleted")


def _golden_minimize(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10) -> float:
    """Golden-section minimum of a smooth scalar function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def optimal_quality(n: int, m: int) -> QualityReport:
    """Closed-form optimum plus the dense-grid minimum of the bound.

    The grid (step 1e-4 over |alpha|^2, golden-section refined to 1e-10)
    serves as the independent oracle for the closed form

        2 / 2^((N+M)/2) + sqrt((1 - 2/2^N)(1 - 2/2^M)).
    """
    _validate_n_m(n, m)
    formula = 2.0 ** (1.0 - (n + m) / 2) + math.sqrt(
        (1.0 - 2.0 ** (1 - n)) * (1.0 - 2.0 ** (1 - m))
    )

    npoints = round(1.0 / GRID_STEP) + 1
    xs = np.linspace(0.0, 1.0, npoints)
    vals = _bound_values(xs, n, m)
    i = int(np.argmin(vals))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, npoints - 1)]
    x_star = _golden_minimize(lambda x: float(_bound_values(np.array([x]), n, m)[0]), lo, hi)
    refined = float(_bound_values(np.array([x_star]), n, m)[0])
    min_bound = min(float(vals[i]), refined)

    return QualityReport(
        n=n,
        m=m,
        bound_curve=np.column_stack([xs, vals]),
        min_bound=min_bound,
        formula_value=formula,
        agreement=abs(min_bound - formula),
    )
