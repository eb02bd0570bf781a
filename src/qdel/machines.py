"""Deletion machines as linear maps declared on basis product states.

A machine is its matrix: column i is the image of input basis state i, and
superpositions follow by linearity. That single extension rule is the engine
behind every "actual output" computed in this package, and it is what makes
perfect deletion of unknown states impossible: declaring |i,i> -> |i,blank>
forces a quadratic, not linear, dependence on the input amplitudes.

Machines are immutable and all checks are pure functions; concurrent use is
safe. `classify_deleter` draws its samples deterministically from a seed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .errors import InvalidStateError, ShapeError
from .hilbert import (
    ALGEBRAIC_TOL,
    Ket,
    _dims,
    _haar_amplitudes,
    _half_trace_norms,
    _int_at_least,
    complex_pair,
    orthonormal_completion,
)

__all__ = [
    "BLANK_INDEX",
    "BasisActionMachine",
    "AncillaConfig",
    "IsometryReport",
    "DeleterKind",
    "DeleterVerdict",
    "apply",
    "check_isometry",
    "qudit_pair_deleter",
    "conditional_deleter",
    "swap_deleter",
    "deletion_residual",
    "classify_deleter",
    "machine_to_json",
    "machine_from_json",
]

# The blank state |Sigma> is basis state 0 of the relevant subsystem; any
# fixed basis state is equivalent up to relabeling.
BLANK_INDEX = 0


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
        norms = np.linalg.norm(self.matrix, axis=0)
        return bool(np.all(np.abs(norms**2 - 1.0) <= tol))


@dataclass(frozen=True)
class AncillaConfig:
    """Ancilla bookkeeping for machines of shape [d, d, dim].

    The ancilla starts in basis state 0; `final_indices` maps each input-state
    label, "0" and "1", to the basis index of the ancilla state it is left in
    after a successful deletion.
    """

    dim: int
    final_indices: Mapping[str, int]

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError("ancilla dimension must be >= 2")
        object.__setattr__(self, "final_indices", dict(self.final_indices))
        if set(self.final_indices) != {"0", "1"}:
            labels = list(self.final_indices)
            raise ValueError(f"final_indices needs exactly the labels '0' and '1', got {labels}")
        for label, index in self.final_indices.items():
            if not isinstance(index, (int, np.integer)) or not 0 <= index < self.dim:
                raise ValueError(f"final ancilla index {index!r} for {label!r} is out of range")


@dataclass(frozen=True)
class IsometryReport:
    is_isometry: bool
    max_gram_deviation: float


class DeleterKind(enum.Enum):
    SWAP_LIKE = "SwapLike"
    APPROXIMATE_DELETER = "ApproximateDeleter"
    NOT_LINEAR_CONSISTENT = "NotLinearConsistent"


@dataclass(frozen=True)
class DeleterVerdict:
    """Outcome of sampling a candidate deleter on Haar-random inputs.

    residual_stats: per-sample distance of the output from the ideal-deletion
        subspace |psi>|blank>(x)ancilla.
    ancilla_errors: per-sample trace distance between the reduced ancilla and
        the state predicted by carrying the input amplitudes onto the ancilla
        images of the identical-basis rules.
    ancilla_dependence: max pairwise trace distance between reduced ancilla
        states; large values mean the ancilla retains the input state. It is
        the eigvalsh value of the maximising pair, exactly as a scan of every
        pair would give it; 0.0 for one sample.
    """

    kind: DeleterKind
    residual_stats: tuple[float, ...]
    ancilla_dependence: float
    ancilla_errors: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind is DeleterKind.APPROXIMATE_DELETER and not self.residual_stats:
            raise ValueError("an approximate-deleter verdict needs residual samples")


def apply(machine: BasisActionMachine, state: Ket) -> Ket:
    """Extend the machine's basis action to `state` by linearity.

    The output is sum_i <basis_i|state> * matrix[:, i]; it is normalized only
    when the machine is an isometry.
    """
    if state.dims != machine.input_dims:
        raise ShapeError(f"input lives on {state.dims}, machine expects {machine.input_dims}")
    return Ket(machine.output_dims, machine.matrix @ state.amplitudes)


def _pair_output(machine: BasisActionMachine, pairs: np.ndarray) -> np.ndarray:
    """Outputs on a (B, d, d) batch of two-register amplitudes, as (B, *output_dims).

    The ancilla of a [d, d, m] machine starts in basis state 0, so only the
    inputs |i, j, 0> enter: every m-th column of the matrix.
    """
    dims = machine.input_dims
    if len(dims) not in (2, 3) or dims[0] != dims[1]:
        raise ShapeError(f"expected a [d, d] or [d, d, m] machine, got {dims}")
    columns = machine.matrix[:, :: dims[2] if len(dims) == 3 else 1]
    out = pairs.reshape(len(pairs), -1) @ columns.T
    return out.reshape((-1,) + machine.output_dims)


def _copies_output(machine: BasisActionMachine, psis: np.ndarray) -> np.ndarray:
    """Outputs on |psi>|psi>(|0>) for a (B, d) batch of one-copy amplitudes."""
    psis = np.asarray(psis, dtype=complex)
    return _pair_output(machine, np.einsum("na,nb->nab", psis, psis))


def _residuals(outs: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """Batched `deletion_residual` of kernel outputs `outs` on inputs `psis`.

    1 for an output that vanishes.
    """
    n = len(outs)
    norms = np.linalg.norm(outs.reshape(n, -1), axis=1)
    kept = np.einsum("na,na...->n...", psis.conj(), outs)[:, BLANK_INDEX]
    weights = np.linalg.norm(kept.reshape(n, -1), axis=1)
    return 1.0 - np.divide(weights, norms, out=np.zeros(n), where=norms >= 1e-15)


def check_isometry(machine: BasisActionMachine, tol: float = ALGEBRAIC_TOL) -> IsometryReport:
    """Compare the Gram matrix of all rule images against the identity."""
    m = machine.matrix
    gram = m.conj().T @ m
    dev = float(np.max(np.abs(gram - np.eye(len(gram)))))
    return IsometryReport(is_isometry=dev <= tol, max_gram_deviation=dev)


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
    if d < 2:
        raise ValueError("qudit dimension must be >= 2")
    targets = np.arange(d * d).reshape(d, d)
    targets[np.arange(d), np.arange(d)] = targets[:, BLANK_INDEX]  # |i,i> -> |i,blank>
    matrix = np.eye(d * d, dtype=complex)[:, targets.reshape(-1)]
    if garbage is not None:
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


_DEFAULT_ANCILLA = AncillaConfig(dim=3, final_indices={"0": 1, "1": 2})


def conditional_deleter(ancilla: AncillaConfig = _DEFAULT_ANCILLA) -> BasisActionMachine:
    """Two-qubit deleter with ancilla, shape [2, 2, ancilla.dim].

    Identical input qubits are deleted and the ancilla records which state
    was seen; distinct inputs pass through untouched:

        |0 0 A> -> |0 blank A_0>     |0 1 A> -> |0 1 A>
        |1 1 A> -> |1 blank A_1>     |1 0 A> -> |1 0 A>

    Rules for input ancilla states other than |A> are a fixed orthonormal
    completion (Gram-Schmidt over the output basis in index order), which
    makes the whole machine a well-defined isometry.
    """
    m = ancilla.dim
    if m < 3:
        raise ValueError("the conditional deleter needs an ancilla of dimension >= 3")
    dims = (2, 2, m)
    # declared rules, input cell -> output cell; every image is a basis state
    images = {(i, i, 0): (i, BLANK_INDEX, ancilla.final_indices[str(i)]) for i in (0, 1)}
    images.update({(i, j, 0): (i, j, 0) for i, j in ((0, 1), (1, 0))})
    eye = np.eye(4 * m, dtype=complex)
    declared = {
        int(np.ravel_multi_index(k, dims)): eye[:, np.ravel_multi_index(v, dims)]
        for k, v in images.items()
    }
    filler = iter(orthonormal_completion(list(declared.values()), range(4 * m), 4 * m - 4))
    columns = [declared[k] if k in declared else next(filler) for k in range(4 * m)]
    return BasisActionMachine(dims, dims, np.column_stack(columns))


def swap_deleter(d: int) -> BasisActionMachine:
    """Machine on [d, d, d] that swaps the second copy into the ancilla.

    |i>|j>|k> -> |i>|k>|j>: after application the ancilla holds the former
    second copy. This "deletes" perfectly on identical inputs but only hides
    the state; the information is recoverable by undoing the swap.
    """
    if d < 2:
        raise ValueError("qudit dimension must be >= 2")
    # column (i, j, k) is e_(i, k, j)
    swapped = np.arange(d**3).reshape(d, d, d).transpose(0, 2, 1).reshape(-1)
    return BasisActionMachine((d, d, d), (d, d, d), np.eye(d**3, dtype=complex)[:, swapped])


def deletion_residual(machine: BasisActionMachine, psi: Ket) -> float:
    """Failure of the machine, fed |psi>|psi>(|A>), to land in the ideal-deletion subspace.

    Returns 1 - ||(<psi| (x) <blank| (x) I) out|| with the output normalized
    first, so the value is 0 exactly for perfect deletion and grows toward 1
    as the output leaves the subspace spanned by |psi>|blank>(x)ancilla.
    """
    d = machine.input_dims[0]
    if psi.dims != (d,):
        raise ShapeError(f"input state has dims {psi.dims}, machine copies are {d}-level")
    psi.require_normalized()
    psis = psi.amplitudes[None]
    return float(_residuals(_copies_output(machine, psis), psis)[0])


# Pairs per block of the pairwise scan; the block's (pairs, m, m) complex
# differences are its largest temporary. Chosen by measurement: 512 pairs
# ran the audit benchmark's pass 1.4x faster than 256 but raised its peak
# RSS by 2.5% against the all-pairs scan, 256 by 1%.
_PAIR_BLOCK = 256

# Absolute widening of the half-trace-norm bounds. A difference of density
# matrices has spectral norm <= 1, so the bounds and eigvalsh each round by
# at most about m^2 eps (< 1e-12 for m <= 64).
_BOUND_MARGIN = 1e-9


def _half_trace_norm_bounds(diffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on (1/2) sum |eigenvalues| of each matrix of a (..., m, m) stack.

    Each matrix is taken as Hermitian and traceless, a difference of two
    density matrices; the bounds are widened by _BOUND_MARGIN. With
    F^2 = ||D||_F^2 the half trace norm T satisfies
    F / sqrt(2) <= T <= F sqrt(floor(m/2) ceil(m/2) / m), equal for m = 2.
    For m = 3 it is the largest |root| of x^3 - (F^2/2) x - det D,
    2 sqrt(p/3) cos(arccos|c| / 3) with p = F^2/2, c = (3 sqrt(3)/2) det D / p^(3/2).
    """
    m = diffs.shape[-1]
    parts = diffs.reshape(diffs.shape[:-2] + (m * m,)).view(float)  # real and imaginary parts
    frob_sq = np.einsum("...k,...k->...", parts, parts)
    if m == 3:
        a, b, c = (diffs[..., k, k].real for k in range(3))
        u, v, w = diffs[..., 1, 0], diffs[..., 2, 1], diffs[..., 2, 0]
        det = a * b * c - a * np.abs(v) ** 2 - b * np.abs(w) ** 2 - c * np.abs(u) ** 2
        det += 2.0 * (u * v * w.conj()).real
        p = 0.5 * frob_sq
        scale = p * np.sqrt(p)
        cos3 = np.divide(np.abs(det), scale, out=np.zeros_like(det), where=scale > 0.0)
        cos3 = np.minimum(1.5 * math.sqrt(3.0) * cos3, 1.0)
        low = high = 2.0 * np.sqrt(p / 3.0) * np.cos(np.arccos(cos3) / 3.0)
    else:
        low = np.sqrt(0.5 * frob_sq)
        high = np.sqrt(frob_sq * ((m // 2) * ((m + 1) // 2) / m))
    return low - _BOUND_MARGIN, high + _BOUND_MARGIN


def _max_pairwise_distance(rho: np.ndarray) -> float:
    """max over i < j of the half trace norm of rho[j] - rho[i], as eigvalsh gives it.

    `rho` is an (S, m, m) stack of density matrices. Row blocks of about
    _PAIR_BLOCK pairs are bounded at once; `floor`, the largest lower bound
    or confirmed value so far, never exceeds the answer, so a pair whose
    upper bound is below it cannot hold the maximum. The rest go to
    eigvalsh. 0.0 for S = 1.
    """
    n = len(rho)
    best = floor = 0.0
    start = 0
    while start < n - 1:
        width = n - 1 - start
        stop = start + min(width, max(1, _PAIR_BLOCK // width))
        diffs = rho[start + 1 :] - rho[start:stop, None]  # [r, k] = rho[start+1+k] - rho[start+r]
        ahead = ~np.tri(stop - start, width, -1, dtype=bool)  # k >= r, that is j > i
        low, high = _half_trace_norm_bounds(diffs)
        floor = max(floor, float(np.max(low, where=ahead, initial=floor)))
        near = ahead & (high >= floor)
        if np.any(near):
            best = max(best, float(np.max(_half_trace_norms(diffs[near]))))
            floor = max(floor, best)
        start = stop
    return best


def classify_deleter(
    machine: BasisActionMachine, samples: int, seed: int
) -> DeleterVerdict:
    """Sample the machine on Haar-random inputs and classify its behavior.

    SwapLike: every sampled residual vanishes and the reduced ancilla
    reconstructs the input state. ApproximateDeleter: residuals are positive.
    NotLinearConsistent: the declared rules themselves are not normalized.

    `samples` is a positive and `seed` a non-negative integer (bool is
    neither); anything else is a ValueError. The `samples` inputs are drawn
    from `np.random.default_rng(seed)` in one call.

    `ancilla_dependence` is found without an eigensolve per pair: every pair
    difference of reduced ancilla states is Hermitian and traceless, so cheap
    invariants bound its half trace norm (exactly for m = 2 and m = 3, by
    the Frobenius sandwich for m >= 4). Widened by a margin of 1e-9, far
    above the rounding of either side, the bounds leave few pairs that can
    still hold the maximum; only those reach eigvalsh, and the largest of
    their values is returned.
    """
    samples = _int_at_least(samples, 1, "samples")
    seed = _int_at_least(seed, 0, "seed")
    dims = machine.input_dims
    if len(dims) != 3 or dims[0] != dims[1] or dims[2] < dims[0]:
        raise ShapeError(
            f"classification needs an ancilla machine of shape [d, d, m] with m >= d, got {dims}"
        )
    d, m = dims[0], dims[2]

    if not machine.rule_norms_ok():
        return DeleterVerdict(
            kind=DeleterKind.NOT_LINEAR_CONSISTENT,
            residual_stats=(),
            ancilla_dependence=0.0,
        )

    # Ancilla images of the identical basis inputs; the machine must delete
    # them, |i i A> -> |i blank a_i> with ||a_i|| = 1.
    basis_out = _copies_output(machine, np.eye(d))
    ancilla_images = basis_out[np.arange(d), np.arange(d), BLANK_INDEX]
    for i, image in enumerate(ancilla_images):
        if abs(np.linalg.norm(image) - 1.0) > 1e-9:
            raise InvalidStateError(
                f"machine does not delete the identical basis input |{i}>|{i}>"
            )

    psis = _haar_amplitudes(d, samples, np.random.default_rng(seed))
    outs = _copies_output(machine, psis)
    residuals = _residuals(outs, psis)

    # Reduced ancilla of each normalized output, compared with the state the
    # input amplitudes predict when carried onto the ancilla images.
    flat = outs.reshape(samples, d * d, m)
    norms = np.linalg.norm(flat, axis=(1, 2))
    if np.any(norms < 1e-15):
        raise InvalidStateError("cannot normalize a zero vector")
    flat = flat / norms[:, None, None]
    rho = np.einsum("nxa,nxb->nab", flat, flat.conj())
    predicted = psis @ ancilla_images
    pnorms = np.linalg.norm(predicted, axis=1)
    lost = pnorms < 1e-12
    predicted = predicted / np.where(lost, 1.0, pnorms)[:, None]
    target = np.einsum("na,nb->nab", predicted, predicted.conj())
    ancilla_errors = np.where(lost, 1.0, _half_trace_norms(rho - target))

    dependence = _max_pairwise_distance(rho)

    if np.max(residuals) <= 1e-10 and np.max(ancilla_errors) <= 1e-8:
        kind = DeleterKind.SWAP_LIKE
    else:
        kind = DeleterKind.APPROXIMATE_DELETER
    return DeleterVerdict(
        kind=kind,
        residual_stats=tuple(residuals.tolist()),
        ancilla_dependence=dependence,
        ancilla_errors=tuple(ancilla_errors.tolist()),
    )


# --- machine wire format -----------------------------------------------------


def machine_to_json(machine: BasisActionMachine) -> dict:
    return {
        "input_dims": list(machine.input_dims),
        "output_dims": list(machine.output_dims),
        "rules": [
            {
                "in_index": i,
                "out_amplitudes": [complex_pair(z) for z in column],
            }
            for i, column in enumerate(machine.matrix.T)
        ],
    }


def machine_from_json(obj: Mapping, strict: bool = True) -> BasisActionMachine:
    """Parse the wire format; a wrong JSON type is a ShapeError or an InvalidStateError."""
    if not isinstance(obj, Mapping):
        raise ShapeError(f"a machine is a JSON object, got {type(obj).__name__}")
    input_dims, output_dims = _dims(obj["input_dims"]), _dims(obj["output_dims"])
    n_in, n_out = math.prod(input_dims), math.prod(output_dims)
    try:
        entries = {int(r["in_index"]): r["out_amplitudes"] for r in obj["rules"]}
    except TypeError as exc:
        raise ShapeError(f"rules must be objects with an integer in_index: {exc}") from None
    if sorted(entries) != list(range(n_in)):
        raise ShapeError(
            f"rules must cover in_index 0..{n_in - 1} exactly once, got {sorted(entries)}"
        )
    # [re, im] pairs in a float array, read as complex without arithmetic on them
    parts = np.empty((n_in, n_out, 2))
    for i, amplitudes in entries.items():
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
