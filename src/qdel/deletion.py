"""N-to-M deletion of identical qubits: symmetric expansion, quality bound.

N identical copies of a qubit live in the (N+1)-dimensional symmetric
subspace; a deleting machine is supposed to keep M copies and blank the
rest. This module builds the ideal and best-case actual outputs of such a
machine, evaluates the closed-form upper bound on the overlap ("quality")
between them, and sets the published optimum next to the bound's exact
minimum over inputs. The bound depends on |alpha|^2 only through
t = |alpha|^2 |beta|^2, so that minimum is the least of its values at
balance and at the roots of dB/dt on 0 < |alpha|^2 < 1/2: a 257-point scan
of the closed-form slope brackets each root, and Illinois regula falsi
refines it.

The constructed outputs live on a compact [N+1, 3] register: coordinate j of
the first factor encodes "Dicke state j of the M kept copies, blanks
attached", and the second factor is the 3-level machine ancilla.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import Ket, _alpha_sq, _int_at_least, qubit_ket

__all__ = [
    "QualityReport",
    "symmetric_expand",
    "ideal_delete_output",
    "actual_delete_output",
    "quality_bound",
    "optimal_quality",
    "GRID_STEP",
]

# resolution of the bound curve (QualityReport.bound_curve, the CSV rendering)
GRID_STEP = 1e-4
_GRID = np.linspace(0.0, 1.0, round(1.0 / GRID_STEP) + 1)
_GRID.setflags(write=False)

# The slope scan: _SCAN_POINTS geometric points from min(1/(8N), 1/4) (no
# lower than _EDGE, below which 1 - |alpha|^2 keeps too few bits for the
# slope) up to 1/4, then as many even ones up to _LAST, where dB/dt equals
# its balanced value to rounding. A root's bracket is refined until it is
# _ROOT_TOL of its upper end wide.
_SCAN_POINTS = 129
_EDGE = 2.0**-40
_LAST = 0.5 - 2.0**-30
_ROOT_TOL = 1e-13
_UNIT = np.linspace(0.0, 1.0, _SCAN_POINTS)
_EVEN = np.linspace(0.25, _LAST, _SCAN_POINTS)[1:]

# How balance, |alpha|^2 = 1/2, sits on the bound (QualityReport.kind)
_KINDS = ("global_minimum", "local_minimum", "local_maximum")


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
    return float(_bound_values(np.array([_alpha_sq(alpha_sq)]), n, m)[0])


def _bound_values(xs: np.ndarray, n: int, m: int) -> np.ndarray:
    y = 1.0 - xs
    first = xs ** ((n + m) / 2) + y ** ((n + m) / 2)
    f1 = np.maximum(1.0 - (xs**n + y**n), 0.0)
    f2 = np.maximum(1.0 - (xs**m + y**m), 0.0)
    return first + np.sqrt(f1 * f2)


def _slope(x, n: float, m: float, ops=np):
    """dB/dt at |alpha|^2 = x in (0, 1/2), t = x(1 - x): x an array with ops=np, a float with math.

    Each term of the bound has the slope k (x^(k-1) - y^(k-1)) in x, y = 1 - x,
    and dt/dx = y - x, so dB/dt holds the quotients (y^k - x^k) / (y - x),
    written y^(k-1) expm1(k ln r) / expm1(ln r) with r = x/y, which keeps
    their relative accuracy up to balance.
    """
    y = 1.0 - x
    log_r = ops.log1p((x - y) / y)
    unit = ops.expm1(log_r)

    def quotient(k):
        return y ** (k - 1) * (ops.expm1(k * log_r) / unit)

    f1 = 1.0 - x**n - y**n
    f2 = 1.0 - x**m - y**m
    root = (n * quotient(n - 1) * f2 + m * quotient(m - 1) * f1) / (2.0 * ops.sqrt(f1 * f2))
    p = (n + m) / 2
    return root - p * quotient(p - 1)


def _root(n: float, m: float, a: float, b: float, ha: float, hb: float) -> tuple[float, float]:
    """The sign change ha < 0 <= hb of _slope on [a, b], narrowed by Illinois regula falsi."""
    side = 0
    while b - a > _ROOT_TOL * b:
        c = b - hb * (b - a) / (hb - ha)
        if not a < c < b:
            break
        hc = _slope(c, n, m, math)
        if hc == 0.0:
            return c, c
        if hc < 0.0:
            if side < 0:  # the same end moved twice: halve the other end's weight
                hb /= 2
            a, ha, side = c, hc, -1
        else:
            if side > 0:
                ha /= 2
            b, hb, side = c, hc, 1
    return a, b


def _minimum(n: int, m: int) -> tuple[float, float, str]:
    """The bound's least value on [0, 1/2], where it is reached, and balance's kind.

    The candidates are balance, both ends of every refined root bracket and,
    when the slope is not negative there, the scan's first point, standing in
    for the unresolved edge, as where the slope rounds to 0.0 at the scan's
    start at (2^26, 2^26 - 1) and (2^27, 2^27 - 1). Once 1/(8N) < _EDGE that
    point is the floor, not 1/(8N), and the minimum may lie below it: an
    ArithmeticError. The edge |alpha|^2 = 0 itself is no candidate: the bound
    is 1 there, and by Cauchy-Schwarz never below its balanced value.
    """
    if not 1 < m < n:  # the bound is 1 at M = N, |alpha|^(N+1) + |beta|^(N+1) at M = 1
        return float(_bound_values(np.array([0.5]), n, m)[0]), 0.5, "global_minimum"
    nf, mf = float(n), float(m)
    wanted = 1.0 / (8.0 * nf)
    start = min(max(wanted, _EDGE), 0.25)
    xs = np.concatenate([start * (0.25 / start) ** _UNIT, _EVEN])
    slopes = _slope(xs, nf, mf)
    falling = slopes < 0.0
    candidates = [0.5]
    for i in np.flatnonzero(falling[:-1] & ~falling[1:]).tolist():
        (a, b), (ha, hb) = xs[i : i + 2].tolist(), slopes[i : i + 2].tolist()
        candidates += _root(nf, mf, a, b, ha, hb)
    if not falling[0]:
        if wanted < _EDGE:
            raise ArithmeticError(
                f"quality bound at n={n}, m={m}: its minimum may lie below "
                f"|alpha|^2 = {_EDGE!r}, the least at which doubles resolve its slope"
            )
        candidates.append(float(xs[0]))
    values = _bound_values(np.array(candidates), n, m)
    i = int(np.argmin(values))  # the first minimum, so balance wins a tie
    if i == 0:
        kind = "global_minimum"
    else:
        kind = "local_minimum" if slopes[-1] < 0.0 else "local_maximum"
    return float(values[i]), candidates[i], kind


@dataclass(frozen=True)
class QualityReport:
    """Closed-form optimal quality next to the bound's exact minimum over inputs.

    min_bound is the least value of the bound, found among its stationary
    points; argmin_alpha_sq is the |alpha|^2 in [0, 1/2] where it is reached.
    formula_value is the closed form; agreement is their absolute difference.
    The two genuinely disagree for some (N, M) because the closed form equals
    the bound at the balanced state |alpha|^2 = 1/2, which is not always where
    it is smallest: kind says whether balance is the bound's global minimum,
    a local minimum only, or a local maximum.
    """

    n: int
    m: int
    min_bound: float
    formula_value: float
    agreement: float
    argmin_alpha_sq: float
    kind: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_bound <= 1.0 + 1e-12:
            raise ValueError(f"min_bound {self.min_bound} outside [0, 1]")
        if self.n == self.m and self.formula_value != 1.0:
            raise ValueError("the closed form must be exactly 1 when nothing is deleted")
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.argmin_alpha_sq <= 0.5:
            raise ValueError(f"argmin_alpha_sq {self.argmin_alpha_sq} outside [0, 1/2]")
        if (self.kind == "global_minimum") != (self.argmin_alpha_sq == 0.5):
            raise ValueError("balance is the global minimum exactly when the argmin is 1/2")

    @property
    def bound_curve(self) -> np.ndarray:
        """(|alpha|^2, bound) samples on the GRID_STEP grid, as a (points, 2) array."""
        return np.column_stack([_GRID, _bound_values(_GRID, self.n, self.m)])


def optimal_quality(n: int, m: int) -> QualityReport:
    """Closed-form optimum next to the bound's exact minimum over inputs.

    The closed form is

        2 / 2^((N+M)/2) + sqrt((1 - 2/2^N)(1 - 2/2^M)),

    the bound at balance; the minimum is the least value of the bound at
    balance and at the stationary points on 0 < |alpha|^2 < 1/2, each the
    root of dB/dt bracketed by a scan of that slope and refined by regula
    falsi. An ArithmeticError refuses an N whose scan starts at the _EDGE
    floor with the slope not falling there, where doubles cannot resolve
    the minimum.
    """
    n, m = _copy_counts(n, m)
    formula = 2.0 ** (1.0 - (n + m) / 2) + math.sqrt(
        (1.0 - 2.0 ** (1 - n)) * (1.0 - 2.0 ** (1 - m))
    )
    min_bound, argmin, kind = _minimum(n, m)
    return QualityReport(
        n=n,
        m=m,
        min_bound=min_bound,
        formula_value=formula,
        agreement=abs(min_bound - formula),
        argmin_alpha_sq=argmin,
        kind=kind,
    )
