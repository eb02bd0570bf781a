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
    tensor,
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


class DeleterKind(enum.Enum):
    SWAP_LIKE = "SwapLike"
    APPROXIMATE_DELETER = "ApproximateDeleter"
    NOT_LINEAR_CONSISTENT = "NotLinearConsistent"


@dataclass(frozen=True)
class DeleterVerdict:
    """Outcome of sampling a candidate deleter on Haar-random inputs.

    samples, seed: the sample count and the seed of the generator the inputs
        were drawn from. A verdict on rules that are not normalized draws
        none and holds no per-sample values.
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
    samples: int
    seed: int
    residual_stats: tuple[float, ...]
    ancilla_dependence: float
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


def check_isometry(machine: BasisActionMachine) -> float:
    """max |G - I| over the Gram matrix G of all rule images; isometries give 0."""
    m = machine.matrix
    gram = m.conj().T @ m
    return float(np.max(np.abs(gram - np.eye(len(gram)))))


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
    return BasisActionMachine(dims, dims, np.eye(12, dtype=complex)[:, targets])


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
    """
    x = float(alpha_sq)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"alpha_sq must lie in [0, 1], got {x}")
    machine = qudit_pair_deleter(dim)
    amps = np.zeros(dim, dtype=complex)
    amps[0] = math.sqrt(x)
    amps[1] = math.sqrt(1.0 - x)
    psi = Ket((dim,), amps)
    residual = deletion_residual(machine, psi)
    return DeleteDemoReport(dim, x, residual, apply(machine, tensor(psi, psi)).norm())


# Candidate pairs per chunk of the pairwise scan. On the audit benchmark's jobs
# (seed 13, 30 passes, one thread, 2-core host) chunks of 128/256/512/1024
# candidates and one unchunked stack peaked at 38.0/38.15/38.3/38.6/39.9 MB RSS,
# with best passes of 7.2-7.4/6.4-6.6/6.0-6.6/6.3-6.5/6.3-6.6 ms. swap_deleter(3)
# keeps about 4,900 of its 11,175 pairs, so an unchunked stack costs 1.7 MB.
_PAIR_BLOCK = 256

# Absolute widening of the half-trace-norm bounds. A difference of density
# matrices has spectral norm <= 1, so the bounds and eigvalsh each round by
# at most about m^2 eps (< 1e-12 for m <= 64).
_BOUND_MARGIN = 1e-9


def _half_trace_norm_bounds(diffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on (1/2) sum |eigenvalues| of each matrix of a (k, m, m) stack.

    Each matrix is taken as Hermitian and traceless, a difference of two
    density matrices; the bounds are widened by _BOUND_MARGIN. With
    F^2 = ||D||_F^2 the half trace norm T satisfies
    F / sqrt(2) <= T <= F sqrt(floor(m/2) ceil(m/2) / m), equal for m = 2.
    For m = 3 it is the largest |root| of x^3 - (F^2/2) x - det D,
    2 sqrt(p/3) cos(arccos|c| / 3) with p = F^2/2, c = (3 sqrt(3)/2) det D / p^(3/2).
    """
    m = diffs.shape[-1]
    parts = diffs.reshape(len(diffs), m * m).view(float)  # real and imaginary parts
    frob_sq = np.einsum("ij,ij->i", parts, parts)
    if m == 3:
        a, b, c = (diffs[:, k, k].real for k in range(3))
        u, v, w = diffs[:, 1, 0], diffs[:, 2, 1], diffs[:, 2, 0]
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

    `rho` is an (S, m, m) stack of density matrices. One real Gram matrix of
    the stack gives every squared Frobenius distance, F^2_ij = n_i + n_j -
    2 <x_i, x_j>. Its dot products have 2 m^2 terms, so the expansion's
    rounding is below (8 m^2 + 10) u times the largest n_i (u = eps / 2, and
    n_i <= 1 for a density matrix); F^2 is widened by twice that. `floor`
    starts at the exact lower bound of the pair with the largest F^2, and
    only the pairs whose sandwich bound F sqrt(floor(m/2) ceil(m/2) / m) +
    _BOUND_MARGIN reaches it are candidates. They are bounded by invariants
    in chunks of _PAIR_BLOCK, in i < j order. `floor`, the largest lower bound
    or confirmed value so far, never exceeds the answer, so a pair whose
    upper bound is below it cannot hold the maximum. The rest go to eigvalsh.
    0.0 for S = 1.
    """
    count, m = len(rho), rho.shape[-1]
    x = rho.reshape(count, m * m).view(float)
    frob_sq = x @ x.T
    norms = frob_sq.diagonal().copy()
    frob_sq *= -2.0
    frob_sq += norms[:, None]
    frob_sq += norms
    frob_sq += 8.0 * (m * m + 2) * np.finfo(float).eps * norms.max()

    i, j = sorted(divmod(int(np.argmax(frob_sq)), count))
    low, _ = _half_trace_norm_bounds(rho[j : j + 1] - rho[i : i + 1])
    floor = max(0.0, float(low[0]))
    # the sandwich's upper bound reaches `floor` exactly when F reaches `reach`
    reach = max(floor - _BOUND_MARGIN, 0.0) / math.sqrt((m // 2) * ((m + 1) // 2) / m)
    first, second = np.nonzero(np.triu(frob_sq >= reach * reach, 1))
    best = 0.0
    for start in range(0, len(first), _PAIR_BLOCK):
        chunk = slice(start, start + _PAIR_BLOCK)
        diffs = rho[second[chunk]] - rho[first[chunk]]
        low, high = _half_trace_norm_bounds(diffs)
        floor = max(floor, float(np.max(low)))
        near = high >= floor
        if np.any(near):
            best = max(best, float(np.max(_half_trace_norms(diffs[near]))))
            floor = max(floor, best)
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
    invariants bound its half trace norm. First one Gram matrix of the
    samples gives every pair's Frobenius distance F, and the Frobenius
    sandwich on F drops the pairs that cannot reach the farthest pair's lower
    bound. The pairs left are bounded exactly for m = 2 and m = 3, by the
    sandwich for m >= 4. Widened by a margin of 1e-9, far above the rounding
    of either side, the bounds leave few pairs that can still hold the
    maximum; only those reach eigvalsh, and the largest of their values is
    returned. The verdict records `samples` and `seed`.
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
            samples=samples,
            seed=seed,
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
        samples=samples,
        seed=seed,
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


def _member(obj: object, key: str, where: str):
    """obj[key]; a missing key, or an obj that is not a JSON object, is a ShapeError."""
    if not isinstance(obj, Mapping):
        raise ShapeError(f"{where} is a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ShapeError(f"{where} has no {key!r} key")
    return obj[key]


def machine_from_json(obj: Mapping, strict: bool = True) -> BasisActionMachine:
    """Parse the wire format; a wrong type or missing key is a ShapeError or InvalidStateError."""
    input_dims = _dims(_member(obj, "input_dims", "a machine"))
    output_dims = _dims(_member(obj, "output_dims", "a machine"))
    rules = _member(obj, "rules", "a machine")
    if not isinstance(rules, list):
        raise ShapeError(f"rules is a list of objects, got {type(rules).__name__}")
    n_in, n_out = math.prod(input_dims), math.prod(output_dims)
    if len(rules) != n_in:  # before anything of size n_in is built
        raise ShapeError(f"rules must number {n_in}, one per in_index, got {len(rules)}")
    rows = [(_member(r, "in_index", f"rules[{n}]"), _member(r, "out_amplitudes", f"rules[{n}]"))
            for n, r in enumerate(rules)]
    try:
        indices = [_int_at_least(i, 0, f"rules[{n}].in_index") for n, (i, _) in enumerate(rows)]
    except ValueError as exc:
        raise ShapeError(str(exc)) from None
    if sorted(indices) != list(range(n_in)):
        raise ShapeError(
            f"rules must cover in_index 0..{n_in - 1} exactly once, got {sorted(indices)}"
        )
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
