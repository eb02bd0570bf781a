"""Finite-dimensional Hilbert-space primitives.

State vectors over declared tensor-product structures, density matrices,
partial traces, and the standard distance/fidelity measures used by the
deletion analyses. All values are immutable after construction and every
operation is a pure function, so they can be shared freely across threads.

Validation happens once, at the boundary. The public constructors `Ket`,
`DensityMatrix` and `machines.BasisActionMachine` copy what a caller passes
and check it in full, and so does the machine wire format. A value the
package has just built and checked, or that is valid by construction, is
wrapped by `_trusted` without a copy or a second check: `density_of`'s
projector of a normalized ket, `tensor`'s, `apply`'s and `alice_measure`'s
kets, the deleter builders' basis maps, and the one-angle signalling
mixtures, whose stacks pass one `_require_densities` call. `partial_trace`
keeps its full check: the EIGEN_TOL slack allowed on each eigenvalue adds up
over the traced dimension, so a valid input can reduce to an invalid state.

Conventions:
    * the leftmost tensor factor is subsystem 0,
    * basis product states are flattened row-major
      (flat index = sum_k i_k * prod_{j>k} d_j),
    * kets are compared amplitude-exact; global phase is ignored only where
      a test says so explicitly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import InputError, InvalidStateError, ShapeError

# 1e-12 for algebraic identities, 1e-10 for eigenvalue-based checks; dense
# double precision on total dimensions <= 4096 supports nothing tighter.
ALGEBRAIC_TOL = 1e-12
EIGEN_TOL = 1e-10

__all__ = [
    "ALGEBRAIC_TOL",
    "EIGEN_TOL",
    "Ket",
    "DensityMatrix",
    "ket",
    "basis_ket",
    "bloch_ket",
    "qubit_ket",
    "tensor",
    "inner",
    "density_of",
    "partial_trace",
    "trace_distance",
    "state_fidelity",
    "haar_qubit",
    "haar_ket",
    "complex_pair",
    "density_to_json",
]


def _dims(dims: Sequence[int]) -> tuple[int, ...]:
    """Subsystem dimensions as a tuple: non-empty, integers, each >= 2; else ShapeError."""
    try:
        out = tuple(operator.index(d) for d in dims)
    except TypeError:
        raise ShapeError(f"dims must be a sequence of integers, got {dims!r}") from None
    if not out or min(out) < 2:
        raise ShapeError(f"dims must be non-empty with every dimension >= 2, got {out}")
    return out


def _int_at_least(value: object, least: int, name: str) -> int:
    """`value` as an int if it is an integer, not a bool, and >= `least`; else InputError."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or number < least:
        raise InputError(f"{name} must be an integer >= {least}, got {value!r}")
    return number


def _alpha_sq(value: object, name: str = "alpha_sq") -> float:
    """`value` as a float in [0, 1] (|alpha|^2, or an overlap); else InputError naming `name`."""
    x = float(value)
    if not 0.0 <= x <= 1.0:
        raise InputError(f"{name} must lie in [0, 1], got {x}")
    return x


def _finite_angles(angles: np.typing.ArrayLike) -> np.ndarray:
    """`angles` as a float array; InputError, naming the first, if one is not finite."""
    angles = np.asarray(angles, dtype=float)
    if not np.isfinite(angles).all():
        raise InputError(f"angle must be finite, got {float(angles[~np.isfinite(angles)][0])!r}")
    return angles


def _is_unit(norms_sq):
    """Whether each squared norm of a state, a float or an array, is 1 within ALGEBRAIC_TOL;
    NaN is not."""
    return abs(norms_sq - 1.0) <= ALGEBRAIC_TOL


def _require_unit(norms_sq) -> None:
    """Raise InvalidStateError, naming the first offender, unless `_is_unit` holds for all."""
    off = np.ravel(norms_sq)[~np.ravel(_is_unit(norms_sq))]
    if off.size:
        raise InvalidStateError(f"state is not normalized: |psi|^2 = {float(off[0])!r}")


def _trusted(cls: type, *values: object):
    """An instance of the frozen value class `cls` holding `values`, one per field in order.

    For a value the package has built and checked itself: `__post_init__` is
    skipped, dims must already be a tuple of ints, and an array is kept, not
    copied, and set read-only.
    """
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values, strict=True):
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, eq=False)
class Ket:
    """Complex amplitude vector over a declared product of subsystems.

    Amplitudes are stored read-only and must be finite; the vector need not
    be normalized (machine outputs, in particular, are not in general).
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        dims = _dims(self.dims)
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != math.prod(dims):
            raise ShapeError(
                f"amplitude vector of length {amps.size} does not match "
                f"total dimension {math.prod(dims)} of {dims}"
            )
        if not np.isfinite(amps).all():
            raise InvalidStateError("ket has a non-finite amplitude")
        amps.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self) -> bool:
        return bool(_is_unit(self.norm() ** 2))

    def require_normalized(self) -> "Ket":
        if not self.is_normalized():
            _require_unit(self.norm() ** 2)  # raises, with the message
        return self


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix over a product space."""

    dims: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self) -> None:
        dims = _dims(self.dims)
        mat = np.array(self.entries, dtype=complex)
        d = math.prod(dims)
        if mat.shape != (d, d):
            raise ShapeError(f"expected a {d}x{d} matrix for {dims}, got {mat.shape}")
        _require_densities(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", mat)


def _require_densities(stack: np.ndarray) -> None:
    """Raise InvalidStateError unless every matrix of a (..., d, d) stack is a density matrix.

    Each must be Hermitian and of unit trace to ALGEBRAIC_TOL and have no
    eigenvalue below -EIGEN_TOL; the comparisons are written so that NaN fails.
    """
    herm_dev = float(np.max(np.abs(stack - np.swapaxes(stack, -1, -2).conj())))
    if not herm_dev <= ALGEBRAIC_TOL:
        raise InvalidStateError(f"matrix is not Hermitian (deviation {herm_dev:.3e})")
    tr_dev = float(np.max(np.abs(np.trace(stack, axis1=-2, axis2=-1) - 1.0)))
    if not tr_dev <= ALGEBRAIC_TOL:
        raise InvalidStateError(f"trace differs from 1 by {tr_dev:.3e}")
    min_eig = float(np.min(np.linalg.eigvalsh(stack)))
    if not -min_eig <= EIGEN_TOL:
        raise InvalidStateError(f"matrix has negative eigenvalue {min_eig:.3e}")


def ket(amplitudes: Iterable[complex], dims: Sequence[int]) -> Ket:
    """Build a Ket from raw amplitudes over the given subsystem dimensions."""
    return Ket(dims, np.asarray(list(amplitudes), dtype=complex))


def basis_ket(dims: Sequence[int], index: Union[int, Sequence[int]]) -> Ket:
    """Computational basis state, addressed by flat index or per-subsystem indices."""
    dims = _dims(dims)
    size = math.prod(dims)
    if not isinstance(index, (int, np.integer)):
        index = np.ravel_multi_index(tuple(index), dims)  # ValueError when out of range
    if not 0 <= index < size:
        raise ValueError(f"basis index {index} out of range for dimension {size}")
    amps = np.zeros(size, dtype=complex)
    amps[index] = 1.0
    return Ket(dims, amps)


def bloch_ket(theta: float, phi: float = 0.0) -> Ket:
    """Qubit cos(theta/2)|0> + e^{i phi} sin(theta/2)|1> from scalar libm calls; finite angles."""
    return ket(_bloch_amplitudes(*_finite_angles((theta, phi)).tolist()), [2])


def _bloch_amplitudes(theta: float, phi: float) -> tuple[float, complex]:
    """The two amplitudes of `bloch_ket(theta, phi)`, from scalar libm calls: numpy's
    vectorised sin and cos may differ from them in the last bit."""
    return math.cos(theta / 2.0), complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0)


def qubit_ket(alpha: complex, beta: complex) -> Ket:
    """Qubit alpha|0> + beta|1>; raises InvalidStateError unless it is normalized."""
    return ket([alpha, beta], [2]).require_normalized()


def tensor(*factors: Ket) -> Ket:
    """Kronecker product of kets, in the declared subsystem order.

    The result's dims are the concatenation of the factors' dims. Bilinear in
    every slot; norms multiply, so unnormalized factors are accepted.
    """
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    amps = factors[0].amplitudes
    dims: tuple[int, ...] = factors[0].dims
    for f in factors[1:]:
        amps = np.kron(amps, f.amplitudes)
        dims = dims + f.dims
    return _trusted(Ket, dims, amps)


def inner(a: Ket, b: Ket) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.dims != b.dims:
        raise ShapeError(f"shape mismatch: {a.dims} vs {b.dims}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def density_of(psi: Ket) -> DensityMatrix:
    """Rank-one projector |psi><psi| of a normalized state."""
    # Hermitian and positive by construction; its trace is the norm just checked
    psi.require_normalized()
    return _trusted(DensityMatrix, psi.dims, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Trace out every subsystem not listed in `keep`.

    The kept subsystems stay in their original order; the trace is preserved.
    """
    try:
        keep_set = sorted(set(operator.index(k) for k in keep))
    except TypeError:
        raise ValueError(f"keep must hold subsystem indices, got {keep!r}") from None
    n = len(rho.dims)
    if not keep_set:
        raise ValueError("must keep at least one subsystem")
    if keep_set[0] < 0 or keep_set[-1] >= n:
        raise ValueError(f"keep indices {keep_set} out of range for {n} subsystems")

    dims = list(rho.dims)
    work = rho.entries.reshape(dims + dims)
    for idx in sorted(set(range(n)) - set(keep_set), reverse=True):
        work = np.trace(work, axis1=idx, axis2=idx + len(dims))
        dims.pop(idx)
    side = math.prod(dims)
    return DensityMatrix(dims, work.reshape(side, side))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2) sum of |eigenvalues| of rho - sigma.

    The difference of Hermitian matrices is Hermitian, so a Hermitian
    eigendecomposition is exact here.
    """
    if rho.dims != sigma.dims:
        raise ShapeError(f"shape mismatch: {rho.dims} vs {sigma.dims}")
    return float(_half_trace_norms(rho.entries - sigma.entries))


def _half_trace_norms(differences: np.ndarray) -> np.ndarray:
    """(1/2) sum of |eigenvalues| of each Hermitian matrix in a (..., d, d) stack."""
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(differences)), axis=-1)


def state_fidelity(rho: DensityMatrix, psi: Ket) -> float:
    """Overlap <psi|rho|psi> of a mixed state with a normalized pure target, in [0, 1]."""
    if rho.dims != psi.dims:
        raise ShapeError(f"shape mismatch: {rho.dims} vs {psi.dims}")
    v = psi.require_normalized().amplitudes
    val = float(np.real(np.vdot(v, rho.entries @ v)))
    # eigenvalue slack of the PSD check can push the quadratic form epsilon out of range
    return min(max(val, 0.0), 1.0)


def haar_qubit(rng: np.random.Generator) -> Ket:
    """Haar-random qubit: `haar_ket(2, rng)`."""
    return haar_ket(2, rng)


def haar_ket(dim: int, rng: np.random.Generator) -> Ket:
    """Haar-random state of one `dim`-level system; see `_haar_amplitudes`."""
    return Ket((dim,), _haar_amplitudes(dim, 1, rng)[0])


def _haar_amplitudes(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, dim) amplitudes of Haar-random states, from one call on `rng`.

    Each row normalizes a complex Gaussian whose `dim` real parts precede its
    `dim` imaginary parts, which is Haar in every dimension, qubits included.
    Row k is what the k-th of `count` one-state draws on the same stream
    gives, bit for bit.
    """
    # the arithmetic of a one-state draw: np.linalg.norm's sum of the real and
    # imaginary parts' dots, which vecdot repeats per row; einsum and
    # norm(axis=1) differ in the last ulp
    parts = rng.standard_normal((count, 2, dim))
    z = parts[:, 0] + 1j * parts[:, 1]
    return z / np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))[:, None]


# --- JSON wire format: complex numbers as [re, im], matrices row-major ------


def complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _complex_pairs(matrix: np.ndarray) -> np.ndarray:
    """A complex array as a float view with a last [re, im] axis."""
    return np.ascontiguousarray(matrix).view(float).reshape(*matrix.shape, 2)


def _density_layout(rho: DensityMatrix) -> dict:
    """The JSON object of `rho`, with its entries left the (r, c, 2) float view."""
    return {"dims": list(rho.dims), "entries": _complex_pairs(rho.entries)}


def density_to_json(rho: DensityMatrix) -> dict:
    payload = _density_layout(rho)
    payload["entries"] = payload["entries"].tolist()
    return payload

