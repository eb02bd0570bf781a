"""Deletion machines as linear maps declared on basis product states.

A machine is its matrix: column i is the image of input basis state i, and
superpositions follow by linearity. That single extension rule is the engine
behind every "actual output" computed in this package, and it is what makes
perfect deletion of unknown states impossible: declaring |i,i> -> |i,blank>
forces a quadratic, not linear, dependence on the input amplitudes.

A batch's deletion residuals are `_output_residuals` of the outputs `_copies_output`
forms on |psi>|psi>(|0>); `delete_demo_report` scatters its outputs and shares the rest.

`classify_deleter` draws its samples deterministically from a seed. Its ancilla
errors are half trace norms of rho - |u><u|, which has one negative eigenvalue at
most: `_ancilla_errors` solves for it in closed form on a qubit or qutrit ancilla
and calls the eigensolver on a larger one.

Machines are immutable and all checks are pure functions; concurrent use is
safe.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import InvalidStateError, ShapeError
from .hilbert import (
    ALGEBRAIC_TOL,
    Ket,
    _alpha_sq,
    _complex_pairs,
    _dims,
    _haar_amplitudes,
    _half_trace_norms,
    _int_at_least,
    _trusted,
)

__all__ = [
    "BLANK_INDEX",
    "BasisActionMachine",
    "DeleterKind",
    "DeleterVerdict",
    "apply",
    "check_isometry",
    "qudit_pair_deleter",
    "conditional_deleter",
    "swap_deleter",
    "deletion_residual",
    "DeleteDemoReport",
    "delete_demo_report",
    "classify_deleter",
    "machine_to_json",
    "machine_from_json",
]

# The blank state |Sigma> is basis state 0 of the relevant subsystem; any
# fixed basis state is equivalent up to relabeling.
BLANK_INDEX = 0

# Squared norm below which a machine's output counts as vanished: it has no
# direction left to normalize.
_ZERO_OUTPUT = 1e-30


@dataclass(frozen=True, eq=False)
class BasisActionMachine:
    """Linear map given by its output-dim x input-dim matrix.

    Column `i` is the image of input basis state `i` (row-major flat index).
    Every entry must be finite. With `strict=True` (the default) every column
    must be normalized within 1e-12; `strict=False` admits arbitrary
    user-supplied columns so they can be inspected and rejected by the
    verification tools instead of at construction time.
    """

    input_dims: tuple[int, ...]
    output_dims: tuple[int, ...]
    matrix: np.ndarray
    strict: bool = field(default=True, repr=False)

    def __post_init__(self) -> None:
        input_dims, output_dims = _dims(self.input_dims), _dims(self.output_dims)
        matrix = np.array(self.matrix, dtype=complex)
        want = (math.prod(output_dims), math.prod(input_dims))
        if matrix.shape != want:
            raise ShapeError(f"matrix is {matrix.shape}, need (output dim, input dim) {want}")
        if not np.all(np.isfinite(matrix)):
            raise InvalidStateError("machine matrix has a non-finite amplitude")
        matrix.setflags(write=False)
        object.__setattr__(self, "input_dims", input_dims)
        object.__setattr__(self, "output_dims", output_dims)
        object.__setattr__(self, "matrix", matrix)
        if self.strict and not self.rule_norms_ok():
            raise InvalidStateError("every column (rule image) must be normalized")

    def rule_norms_ok(self, tol: float = ALGEBRAIC_TOL) -> bool:
        re, im = self.matrix.real, self.matrix.imag  # views: no temporary the size of the matrix
        norms_sq = np.einsum("ij,ij->j", re, re) + np.einsum("ij,ij->j", im, im)
        return bool(np.all(np.abs(norms_sq - 1.0) <= tol))


class DeleterKind(enum.Enum):
    SWAP_LIKE = "SwapLike"
    APPROXIMATE_DELETER = "ApproximateDeleter"
    NOT_LINEAR_CONSISTENT = "NotLinearConsistent"


@dataclass(frozen=True)
class DeleterVerdict:
    """Outcome of certifying a candidate deleter and sampling it on Haar-random inputs.

    samples, seed: the sample count and the seed of the generator the inputs
        were drawn from. A verdict on rules that are not normalized draws
        none and holds no per-sample values.
    residual_stats: per-sample distance of the output from the ideal-deletion
        subspace |psi>|blank>(x)ancilla.
    swap_deviation: the swap certificate's deviation, the largest norm of
        M|i j 0> + M|j i 0> - |i, blank, a_j> - |j, blank, a_i> over i <= j,
        with a_i the ancilla image of |i i 0>; it is 0 exactly when no input
        leaves a residual.
    gram_deviation: max |A^dagger A - I| over the ancilla images a_i; 0 when
        they are orthonormal, so that the ancilla holds the input state.
    ancilla_errors: per-sample trace distance between the reduced ancilla and
        the state predicted by carrying the input amplitudes onto the ancilla
        images of the identical-basis rules, normalized; 1 where that
        prediction has norm below 1e-12 and no direction is left to predict.
    """

    kind: DeleterKind
    samples: int
    seed: int
    residual_stats: tuple[float, ...]
    swap_deviation: float
    gram_deviation: float
    ancilla_errors: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind is DeleterKind.APPROXIMATE_DELETER and not self.residual_stats:
            raise ValueError("an approximate-deleter verdict needs residual samples")
        if self.residual_stats and len(self.residual_stats) != self.samples:
            raise ValueError(
                f"{self.samples} samples need as many residuals, got {len(self.residual_stats)}"
            )
        if len(self.ancilla_errors) != len(self.residual_stats):
            raise ValueError(
                f"{len(self.residual_stats)} residual samples need as many ancilla errors, "
                f"got {len(self.ancilla_errors)}"
            )


def apply(machine: BasisActionMachine, state: Ket) -> Ket:
    """Extend the machine's basis action to `state` by linearity.

    The output is sum_i <basis_i|state> * matrix[:, i]; it is normalized only
    when the machine is an isometry.
    """
    if state.dims != machine.input_dims:
        raise ShapeError(f"input lives on {state.dims}, machine expects {machine.input_dims}")
    return _trusted(Ket, machine.output_dims, machine.matrix @ state.amplitudes)


def _copy_layout(machine: BasisActionMachine) -> tuple[int, int]:
    """(d, m) of a two-copy machine on [d, d, m], with m = 1 on [d, d]; else ShapeError."""
    dims = machine.input_dims
    if len(dims) not in (2, 3) or dims[0] != dims[1]:
        raise ShapeError(f"expected a [d, d] or [d, d, m] machine, got {dims}")
    return dims[0], dims[2] if len(dims) == 3 else 1


def _pair_output(machine: BasisActionMachine, pairs: np.ndarray) -> np.ndarray:
    """Outputs on a (d, d, B) batch of two-register amplitudes, as (*output_dims, B).

    Each point is a column, as in `apply`. The ancilla of a [d, d, m] machine
    starts in basis state 0, so only the inputs |i, j, 0> enter: every m-th
    column of the matrix.
    """
    d, m = _copy_layout(machine)
    out = machine.matrix[:, ::m] @ pairs.reshape(d * d, -1)
    return out.reshape(machine.output_dims + (-1,))


def _copies_output(machine: BasisActionMachine, psis: np.ndarray) -> np.ndarray:
    """Outputs on |psi>|psi>(|0>) for a (d, B) batch of one-copy amplitudes, from all d^2
    ancilla-0 columns: at d <= 3, building `_pair_sums` per call costs more than it saves."""
    psis = np.asarray(psis, dtype=complex)
    return _pair_output(machine, psis[:, None] * psis[None])


def _require_copy_and_blank(dims: tuple[int, ...], d: int) -> None:
    """ShapeError unless output dims `dims` start with a d-level copy and a blank slot."""
    if len(dims) < 2 or dims[0] != d:
        raise ShapeError(f"output dims {dims} do not start with a {d}-level copy and a blank slot")


@lru_cache(maxsize=8)
def _upper_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.triu_indices(d)`, read-only: the pairs i <= j in the order of the operators'
    columns and the swap certificate's rows. Kept per d: a build takes about 15 us, and the
    fidelity kernels read them once per slice or band."""
    i, j = np.triu_indices(d)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _pair_sums(machine: BasisActionMachine) -> np.ndarray:
    """S, read-only: the ancilla-0 columns of a [d, d] or [d, d, m] machine summed over i <= j,
    as (out, P) with P = d(d + 1)/2 columns in `_upper_pairs` order. Column (i, j) is M|i i 0>
    for i = j and M|i j 0> + M|j i 0> for i < j, so the output on |psi>|psi>(|0>) is S @ q,
    with q = (psi_i psi_j) over i <= j. The fidelity operators and the swap certificate read it.
    """
    d, m = _copy_layout(machine)
    columns = machine.matrix[:, ::m].reshape(-1, d, d)  # [:, i, j] is M|i j 0>
    i, j = _upper_pairs(d)
    pairs = columns[:, i, j] + np.where(i < j, columns[:, j, i], 0)  # S, (out, P)
    pairs.flags.writeable = False
    return pairs


def _fidelity_operators(machine: BasisActionMachine) -> tuple[np.ndarray, np.ndarray]:
    """(blank_op, kept_op): the `_pair_sums` S of a [d, d] or [d, d, m] machine, split so that
    <blank|_b out = blank_op @ q and <psi|_a out = kept_op @ v on |psi>|psi>(|0>), with
    q = (psi_i psi_j) over i <= j in `np.triu_indices(d)` order and v = conj(psi) (x) q. With
    output dims (d, b, *rest), blank_op = S[:, blank] has the d rest rows of <blank|_b out and
    P columns, and kept_op, S with the copy's axis moved among the columns, has the b rest rows
    of <psi|_a out and d P columns. Rows that are zero for every input are left out. An output
    that does not start with a d-level copy and a blank slot is a ShapeError.
    """
    d, _ = _copy_layout(machine)
    dims = machine.output_dims
    _require_copy_and_blank(dims, d)
    pairs = _pair_sums(machine)
    p = pairs.shape[1]
    pairs = pairs.reshape(d, dims[1], -1, p)  # (a, b, rest, P)
    blank_op = pairs[:, BLANK_INDEX].reshape(-1, p)
    kept_op = pairs.transpose(1, 2, 0, 3).reshape(-1, d * p)
    # a row that is zero for every input adds exactly 0 to each norm: only the others are kept
    blank_op, kept_op = (op[np.any(op != 0, axis=1)] for op in (blank_op, kept_op))
    blank_op.flags.writeable = kept_op.flags.writeable = False
    return blank_op, kept_op


def _squared_norms(columns: np.ndarray) -> np.ndarray:
    """(..., B) squared norms of the columns of a fresh complex (..., rows, B) array, which is
    squared in place; the rows are summed in order, so each column's norm is the same bits
    whatever its batch holds."""
    parts = columns.view(float)  # real and imaginary parts interleaved on the last axis
    np.multiply(parts, parts, out=parts)
    sums = np.sum(parts, axis=-2)
    return sums[..., 0::2] + sums[..., 1::2]


def _output_residuals(outs: np.ndarray, psis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(||out||^2, residuals) of the outputs `outs`, left as they are, of a two-copy machine on
    |psi>|psi>(|0>) for the (d, B) batch `psis`: 1 - sqrt(||<psi|<blank| out||^2 / ||out||^2)
    clamped at 0, 1 for a vanishing output; an output that does not start with a d-level copy
    and a blank slot is a ShapeError. <psi|_a <blank|_b out is contracted from the blank rows."""
    (d, n), dims = psis.shape, outs.shape[:-1]
    _require_copy_and_blank(dims, d)
    rows = outs.reshape(d, dims[1], -1, n)[:, BLANK_INDEX]  # <blank|_b out, (a, rest, B)
    bras = psis.conj()
    kept = bras[0] * rows[0]
    for a in range(1, d):
        kept += bras[a] * rows[a]
    whole = _squared_norms(outs.reshape(-1, n).copy())
    ratio = np.divide(_squared_norms(kept), whole, out=np.zeros(n), where=whole >= _ZERO_OUTPUT)
    return whole, np.maximum(1.0 - np.sqrt(ratio), 0.0)


def _require_nonzero(norms_sq: np.ndarray) -> None:
    """Raise InvalidStateError if a squared output norm is below _ZERO_OUTPUT or NaN."""
    if not np.all(norms_sq >= _ZERO_OUTPUT):
        raise InvalidStateError("cannot normalize a zero vector")


def check_isometry(machine: BasisActionMachine) -> float:
    """max |G - I| over the Gram matrix G of all rule images; isometries give 0."""
    m = machine.matrix
    gram = m.conj().T @ m
    return float(np.max(np.abs(gram - np.eye(len(gram)))))


def _basis_map(targets: np.ndarray) -> np.ndarray:
    """The matrix sending input basis state k to output basis state targets[k].

    Column-major, as a column-permuted identity is, so that each rule image
    is contiguous.
    """
    matrix = np.zeros((len(targets), len(targets)), dtype=complex, order="F")
    matrix[targets, np.arange(len(targets))] = 1.0
    return matrix


def _pair_targets(d: int) -> np.ndarray:
    """Where the default pair deleter sends each input basis state |i, j>, row-major:
    |i, i> -> |i, blank> and |i, j> -> |i, j> for i != j, as output basis indices."""
    targets = np.arange(d * d).reshape(d, d)
    targets[np.arange(d), np.arange(d)] = targets[:, BLANK_INDEX]  # |i,i> -> |i,blank>
    return targets.reshape(-1)


def qudit_pair_deleter(
    d: int,
    garbage: Optional[Mapping[tuple[int, int], Ket]] = None,
) -> BasisActionMachine:
    """Two-copy deleter on shape [d, d], no ancilla.

    Identical basis inputs are deleted, |i>|i> -> |i>|blank>; distinct inputs
    |i>|j> go to an arbitrary garbage state, by default the identity
    pass-through |i>|j>. A custom `garbage` map has exactly the keys (i, j)
    with i != j, both in range.
    """
    d = _int_at_least(d, 2, "qudit dimension")
    matrix = _basis_map(_pair_targets(d))
    if garbage is None:
        return _trusted(BasisActionMachine, (d, d), (d, d), matrix, True)
    pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
    missing = [pair for pair in pairs if pair not in garbage]
    unknown = [key for key in garbage if key not in pairs]
    if missing or unknown:
        raise ValueError(f"garbage map is missing pairs {missing}, has unknown keys {unknown}")
    for i, j in pairs:
        g = garbage[(i, j)]
        if g.dims != (d, d):
            raise ShapeError(f"garbage state for {(i, j)} has dims {g.dims}")
        matrix[:, i * d + j] = g.amplitudes
    return BasisActionMachine((d, d), (d, d), matrix)


def conditional_deleter() -> BasisActionMachine:
    """Two-qubit deleter with a 3-level ancilla, shape [2, 2, 3].

    Identical input qubits are deleted and the ancilla records which state
    was seen, A_0 = |1> and A_1 = |2>; distinct inputs pass through
    untouched. The ancilla starts in |A> = |0>:

        |0 0 A> -> |0 blank A_0>     |0 1 A> -> |0 1 A>
        |1 1 A> -> |1 blank A_1>     |1 0 A> -> |1 0 A>

    Every other input basis state goes to an output basis state no rule
    uses, both taken in index order, so the matrix is a permutation and the
    machine an isometry. Which ancilla basis states stand for A_0 and A_1 is
    a relabelling, as BLANK_INDEX is.
    """
    dims = (2, 2, 3)
    # declared rules, input cell -> output cell
    cells = {(i, i, 0): (i, BLANK_INDEX, 1 + i) for i in (0, 1)}
    cells.update({(i, j, 0): (i, j, 0) for i, j in ((0, 1), (1, 0))})
    declared = {
        int(np.ravel_multi_index(k, dims)): int(np.ravel_multi_index(v, dims))
        for k, v in cells.items()
    }
    free = iter(sorted(set(range(12)) - set(declared.values())))
    targets = [declared[k] if k in declared else next(free) for k in range(12)]
    return _trusted(BasisActionMachine, dims, dims, _basis_map(np.array(targets)), True)


def swap_deleter(d: int) -> BasisActionMachine:
    """Machine on [d, d, d] that swaps the second copy into the ancilla.

    |i>|j>|k> -> |i>|k>|j>: after application the ancilla holds the former
    second copy. This "deletes" perfectly on identical inputs but only hides
    the state; the information is recoverable by undoing the swap.
    """
    d = _int_at_least(d, 2, "qudit dimension")
    # column (i, j, k) is e_(i, k, j)
    swapped = np.arange(d**3).reshape(d, d, d).transpose(0, 2, 1).reshape(-1)
    return _trusted(BasisActionMachine, (d, d, d), (d, d, d), _basis_map(swapped), True)


def deletion_residual(machine: BasisActionMachine, psi: Ket) -> float:
    """Failure of the machine, fed |psi>|psi>(|A>), to land in the ideal-deletion subspace.

    Returns 1 - ||(<psi| (x) <blank| (x) I) out|| with the output normalized
    first, clamped at 0: 0 exactly for perfect deletion, growing toward 1 as
    the output leaves the subspace spanned by |psi>|blank>(x)ancilla. The
    output must start with a copy's d levels and a blank slot, else ShapeError.
    """
    d, _ = _copy_layout(machine)
    if psi.dims != (d,):
        raise ShapeError(f"input state has dims {psi.dims}, machine copies are {d}-level")
    psi.require_normalized()
    psis = psi.amplitudes[:, None]
    return float(_output_residuals(_copies_output(machine, psis), psis)[1][0])


@dataclass(frozen=True)
class DeleteDemoReport:
    """The linearity obstruction at one input.

    `qudit_pair_deleter(dim)` is fed two copies of sqrt(alpha_sq)|0> +
    sqrt(1 - alpha_sq)|1>. residual is `deletion_residual` there and
    output_norm the norm of the machine's output; `deletes_exactly` holds for
    a residual of at most 1e-12, as at the basis states alpha_sq = 0 and 1.
    """

    dim: int
    alpha_sq: float
    residual: float
    output_norm: float

    @property
    def deletes_exactly(self) -> bool:
        return self.residual <= 1e-12


def delete_demo_report(dim: int, alpha_sq: float) -> DeleteDemoReport:
    """Run the pair deleter on two copies of the input `DeleteDemoReport` describes.

    `dim` is at least 2 and `alpha_sq` lies in [0, 1]; anything else is a ValueError.
    No matrix is built: the deleter's output on |psi psi> is the d^2 products psi_i psi_j
    scattered onto `_pair_targets`, each target summing at most two of them, so it holds
    the bits the matrix product gives. The residual arithmetic is `_output_residuals`'.
    """
    x = _alpha_sq(alpha_sq)
    dim = _int_at_least(dim, 2, "qudit dimension")
    psis = np.zeros((dim, 1), dtype=complex)
    psis[:2, 0] = math.sqrt(x), math.sqrt(1.0 - x)
    outs = np.zeros((dim * dim, 1), dtype=complex)
    np.add.at(outs, _pair_targets(dim), (psis[:, None] * psis[None]).reshape(dim * dim, 1))
    outs = outs.reshape(dim, dim, 1)
    _, residuals = _output_residuals(outs, psis)
    return DeleteDemoReport(dim, x, float(residuals[0]), float(np.linalg.norm(outs)))


# Tolerance of the classifier's exact checks: the swap certificate's deviation
# and each basis-deletion ancilla image's distance from unit norm.
_DELETION_TOL = 1e-9


def _swap_certificate(machine: BasisActionMachine) -> tuple[np.ndarray, float, float]:
    """(ancilla images a_i, deviation, Gram deviation) of a [d, d, m] machine.

    a_i is the blank-slot ancilla part of M|i i 0>. On |psi psi 0> the output
    is sum_ij psi_i psi_j M|i j 0>, and it is |psi>|blank>|sum_i psi_i a_i>
    for every psi exactly when, for every i <= j,
        M|i j 0> + M|j i 0> = |i, blank, a_j> + |j, blank, a_i>.
    The left side is column (i, j) of `_pair_sums` for i < j and twice it for
    i = j. The deviation is the largest norm of the difference of the two
    sides over those pairs, and the Gram deviation max |A^dagger A - I| over
    the a_i.
    """
    d, m = _copy_layout(machine)
    i, j = _upper_pairs(d)
    pair = np.arange(len(i))
    sides = _pair_sums(machine).T.copy().reshape(len(i), d, d, m)  # [p, a, b]: S's column p
    diagonal = pair[i == j]
    images = sides[diagonal, i[diagonal], BLANK_INDEX]
    sides[diagonal] += sides[diagonal]  # M|i i 0> + M|i i 0>, exactly
    sides[pair, i, BLANK_INDEX] -= images[j]  # |i, blank, a_j>
    sides[pair, j, BLANK_INDEX] -= images[i]  # |j, blank, a_i>
    deviation = np.max(np.linalg.norm(sides.reshape(len(i), -1), axis=1))
    gram = images.conj() @ images.T
    return images, float(deviation), float(np.max(np.abs(gram - np.eye(d))))


def _ancilla_errors(differences: np.ndarray) -> np.ndarray:
    """Half the trace norm of each D = rho - |u><u| in an (m, m, S) stack, rho a density
    matrix and u a unit vector, so that tr D = 0.

    D is a rank-one downdate of a positive matrix, so by interlacing it has at most one
    negative eigenvalue, and its half trace norm is -lambda_min(D). For m = 2 that is
    r - t/2, with t = tr D and r = sqrt(((D00 - D11)/2)^2 + |D01|^2). For m = 3 it is the
    smallest root of the characteristic cubic in trigonometric form, with q = t/3,
    p = ||D - qI||_F / sqrt(6) and r = det(D - qI)/(2p^3): -(q + 2p cos(arccos(r)/3 + 2pi/3)),
    and 0 where p = 0. The spectrum (a, b, -a - b) with a >= b >= 0 keeps r in [-1, 0],
    where an arccos error enters the root only squared. Both forms are clamped at 0. For
    m >= 4 the stack goes to `_half_trace_norms`.
    """
    m = differences.shape[0]
    if m > 3:
        return _half_trace_norms(np.moveaxis(differences, -1, 0))
    diagonal = differences.reshape(m * m, -1)[:: m + 1].real  # (m, S)
    t = np.sum(diagonal, axis=0)
    if m == 2:
        errors = np.hypot(0.5 * (diagonal[0] - diagonal[1]), np.abs(differences[0, 1])) - 0.5 * t
    else:
        q = t / 3.0
        b = diagonal - q  # the diagonal of B = D - qI
        d01, d02, d12 = differences[0, 1], differences[0, 2], differences[1, 2]
        s01, s02, s12 = (z.real * z.real + z.imag * z.imag for z in (d01, d02, d12))
        p = np.sqrt((np.sum(b * b, axis=0) + 2.0 * (s01 + s02 + s12)) / 6.0)  # ||B||_F/sqrt(6)
        det = (b[0] * b[1] * b[2] + 2.0 * (d01 * d12 * d02.conj()).real
               - b[0] * s12 - b[1] * s02 - b[2] * s01)
        cube = 2.0 * p**3
        solvable = cube > 0
        r = np.divide(det, cube, out=np.zeros_like(cube), where=solvable)
        phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
        errors = np.where(solvable, -(q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)), 0.0)
    # a D that is rounding noise can leave -lambda_min a few eps below 0
    return np.maximum(errors, 0.0)


def classify_deleter(
    machine: BasisActionMachine, samples: int, seed: int
) -> DeleterVerdict:
    """Classify the machine by its swap certificate and sample it on Haar-random inputs.

    SwapLike: the certificate holds and the a_i are orthonormal, both
    deviations at most _DELETION_TOL, so the output on |psi psi 0> is
    |psi>|blank>|sum_i psi_i a_i> for every psi and the ancilla holds psi.
    ApproximateDeleter: otherwise. Either some input leaves a residual, or
    the a_i overlap and the ancilla loses part of psi, as a machine that
    deletes exactly but is no isometry may. The tolerance is on the amplitude
    scale, while residuals grow with its square: a swap(2) rule turned by
    1e-6 leaves residuals near 1e-13 and is an ApproximateDeleter.
    NotLinearConsistent: the declared rules themselves are not normalized.
    A machine whose identical basis inputs |i i 0> do not leave a unit-norm
    ancilla image is an InvalidStateError.

    `samples` is a positive and `seed` a non-negative integer (bool is
    neither); anything else is a ValueError. The `samples` inputs are drawn
    from `np.random.default_rng(seed)` in one call; their residuals and
    ancilla errors are reported, and the verdict records `samples` and `seed`.
    """
    samples = _int_at_least(samples, 1, "samples")
    seed = _int_at_least(seed, 0, "seed")
    d, m = _copy_layout(machine)
    if m < d or machine.output_dims != machine.input_dims:
        raise ShapeError(
            f"classification needs a machine from [d, d, m] to [d, d, m] with m >= d, "
            f"got {machine.input_dims} -> {machine.output_dims}"
        )
    ancilla_images, deviation, gram_deviation = _swap_certificate(machine)

    if not machine.rule_norms_ok():
        return DeleterVerdict(
            kind=DeleterKind.NOT_LINEAR_CONSISTENT,
            samples=samples,
            seed=seed,
            residual_stats=(),
            swap_deviation=deviation,
            gram_deviation=gram_deviation,
        )

    # The machine must delete the identical basis inputs, |i i A> -> |i blank a_i>
    # with ||a_i|| = 1.
    failing = np.abs(np.linalg.norm(ancilla_images, axis=1) - 1.0) > _DELETION_TOL
    if np.any(failing):
        i = int(np.argmax(failing))
        raise InvalidStateError(f"machine does not delete the identical basis input |{i}>|{i}>")

    psis = _haar_amplitudes(d, samples, np.random.default_rng(seed)).T
    outs = _copies_output(machine, psis)
    whole, residuals = _output_residuals(outs, psis)

    # Reduced ancilla of each normalized output, compared with the state the
    # input amplitudes predict when carried onto the ancilla images; a prediction
    # of norm below 1e-12 is lost, with error 1.
    # Both are (m, m, samples) stacks: the sum over the copies' d^2 basis states runs
    # one (m, samples) slice at a time, which holds less than an einsum's buffers.
    _require_nonzero(whole)
    rho = np.zeros((m, m, samples), dtype=complex)
    for ancilla in outs.reshape(d * d, m, samples) / np.sqrt(whole):
        rho += ancilla[:, None] * ancilla.conj()
    predicted = ancilla_images.T @ psis  # (m, samples)
    pnorms = np.linalg.norm(predicted, axis=0)
    lost = pnorms < 1e-12
    predicted = predicted / np.where(lost, 1.0, pnorms)
    rho -= predicted[:, None] * predicted.conj()  # now the difference from the prediction
    ancilla_errors = np.where(lost, 1.0, _ancilla_errors(rho))

    swap_like = deviation <= _DELETION_TOL and gram_deviation <= _DELETION_TOL
    return DeleterVerdict(
        kind=DeleterKind.SWAP_LIKE if swap_like else DeleterKind.APPROXIMATE_DELETER,
        samples=samples,
        seed=seed,
        residual_stats=tuple(residuals.tolist()),
        swap_deviation=deviation,
        gram_deviation=gram_deviation,
        ancilla_errors=tuple(ancilla_errors.tolist()),
    )


# --- machine wire format -----------------------------------------------------


def machine_to_json(machine: BasisActionMachine) -> dict:
    columns = _complex_pairs(machine.matrix.T).tolist()
    return {
        "input_dims": list(machine.input_dims),
        "output_dims": list(machine.output_dims),
        "rules": [{"in_index": i, "out_amplitudes": pairs} for i, pairs in enumerate(columns)],
    }


def _member(obj: object, key: str, n: Optional[int] = None):
    """obj[key]; a missing key, or an obj that is not a JSON object, is a ShapeError naming
    obj as rules[n], or as the machine when n is None. The name is built only to raise."""
    if isinstance(obj, Mapping) and key in obj:
        return obj[key]
    where = "a machine" if n is None else f"rules[{n}]"
    if not isinstance(obj, Mapping):
        raise ShapeError(f"{where} is a JSON object, got {type(obj).__name__}")
    raise ShapeError(f"{where} has no {key!r} key")


def _in_index(value: object, n: int) -> int:
    """rules[n]'s in_index as an int >= 0; anything else is a ShapeError naming it."""
    try:
        return _int_at_least(value, 0, "in_index")
    except ValueError as exc:
        raise ShapeError(f"rules[{n}].{exc}") from None


def machine_from_json(obj: Mapping, strict: bool = True) -> BasisActionMachine:
    """Parse the wire format; a wrong type or missing key is a ShapeError or InvalidStateError."""
    input_dims = _dims(_member(obj, "input_dims"))
    output_dims = _dims(_member(obj, "output_dims"))
    rules = _member(obj, "rules")
    if not isinstance(rules, list):
        raise ShapeError(f"rules is a list of objects, got {type(rules).__name__}")
    n_in, n_out = math.prod(input_dims), math.prod(output_dims)
    if len(rules) != n_in:  # before anything of size n_in is built
        raise ShapeError(f"rules must number {n_in}, one per in_index, got {len(rules)}")
    rows = [(_member(r, "in_index", n), _member(r, "out_amplitudes", n))
            for n, r in enumerate(rules)]
    indices = [_in_index(i, n) for n, (i, _) in enumerate(rows)]
    missing = min(set(range(n_in)).difference(indices), default=None)  # a repeat leaves a gap
    if missing is not None:
        raise ShapeError(f"no rule has in_index {missing}; rules cover 0..{n_in - 1} once each")
    # [re, im] pairs in a float array, read as complex without arithmetic on them
    parts = np.empty((n_in, n_out, 2))
    for i, (_, amplitudes) in zip(indices, rows):
        try:
            rule = np.array(amplitudes)
        except ValueError:  # ragged nesting
            raise ShapeError(f"rule {i}: out_amplitudes is not a list of [re, im] pairs") from None
        if rule.dtype.kind not in "iuf":
            raise InvalidStateError(f"rule {i}: out_amplitudes must hold numbers, got {rule.dtype}")
        if rule.shape != (n_out, 2):
            raise ShapeError(f"rule {i} has amplitudes of shape {rule.shape}, need ({n_out}, 2)")
        parts[i] = rule
    matrix = parts.view(complex)[..., 0].T
    return BasisActionMachine(input_dims, output_dims, matrix, strict=strict)
