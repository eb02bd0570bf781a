"""Unitarity obstruction to deleting copies of non-orthogonal states.

A unitary acting on two copies drawn from {psi1, psi2} and required to
delete the second copy would have to preserve every pairwise inner product
of the four declared transformations

    psi1 psi1 -> psi1 sigma      psi1 psi2 -> psi1 psi2
    psi2 psi2 -> psi2 sigma      psi2 psi1 -> psi2 psi1

(sigma is the blank). Spelling those out gives five scalar conditions in
s = <psi1|psi2>; they hold simultaneously only in the trivial case
psi1 = psi2 = sigma. This module evaluates the conditions numerically for
concrete states and over one overlap family, `_overlap_family`, checked once
per call; it also provides a Gram-matrix preservation check for arbitrary
machines and alphabets, which `verify_report` joins with the isometry check
of a user's machine.

The check of a `BasisActionMachine` is one kernel on a (K, d) amplitude
array, `_gram_residual`: it refuses states that are not the machine's
d-level copies, then compares the Gram matrices in one contraction.
`gram_preservation_check` and `verify_report` stack their Kets, which refuse
a non-finite amplitude, into that array once; `qdel verify` reads its
alphabet straight into it from finite angles, so no Ket is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import InputError, ShapeError
from .hilbert import Ket, _alpha_sq, _finite_angles, _int_at_least, _require_unit, inner, tensor
from .machines import BasisActionMachine, _copies_output, _copy_layout, check_isometry

__all__ = [
    "Constraint",
    "ConstraintReport",
    "nonorthogonal_constraints",
    "overlap_constraints",
    "sweep_overlap",
    "gram_preservation_check",
    "VerifyReport",
    "verify_report",
    "ideal_deletion_map",
]

_SAT_TOL = 1e-10


@dataclass(frozen=True)
class Constraint:
    """One inner-product preservation condition, with its generating rule pair."""

    label: str
    lhs: complex
    rhs: complex

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


@dataclass(frozen=True)
class ConstraintReport:
    """The five preservation conditions for a two-state alphabet."""

    overlap_s: complex
    constraints: tuple[Constraint, ...]

    @property
    def max_residual(self) -> float:
        return max(c.residual for c in self.constraints)

    @property
    def satisfiable(self) -> bool:
        return all(c.residual < _SAT_TOL for c in self.constraints)

    @property
    def trivial_only(self) -> bool:
        """Satisfiable, with psi1 = psi2 = sigma; the conditions already force |s1| = |s2| = 1."""
        return self.satisfiable and abs(self.overlap_s) > 1.0 - _SAT_TOL


def _conditions(s, s1, s2, s21):
    """The five (label, lhs, rhs) conditions in s = <psi1|psi2>, s1 = <sigma|psi1>,
    s2 = <sigma|psi2> and s21 = <psi2|psi1>, scalars or arrays alike."""
    return (
        ("s^2 = s  [11|22]", s * s, s),
        ("s = <sigma|psi2>  [11|12]", s, s2),
        ("<sigma|psi2> = 1  [22|12]", s2, 1 + 0j),
        ("<sigma|psi1> = 1  [11|21]", s1, 1 + 0j),
        ("<psi2|psi1> = <sigma|psi1>  [22|21]", s21, s1),
    )


def _overlap_grid(n_points: int) -> np.ndarray:
    """The n_points overlaps s spanning [0, 1] of `sweep_overlap`."""
    return np.linspace(0.0, 1.0, _int_at_least(n_points, 2, "n_points"))


def nonorthogonal_constraints(psi1: Ket, psi2: Ket, sigma: Ket) -> ConstraintReport:
    """Evaluate the five conditions for deleting copies of {psi1, psi2}.

    Labels record which pair of transformation rules generates each
    condition (11 = psi1 psi1 -> psi1 sigma, 12 = psi1 psi2 pass-through,
    and so on).
    """
    for name, state in (("psi1", psi1), ("psi2", psi2), ("sigma", sigma)):
        if state.dims != (2,):
            raise ShapeError(f"{name} must be a single qubit, got dims {state.dims}")
        state.require_normalized()
    s = inner(psi1, psi2)
    conditions = _conditions(s, inner(sigma, psi1), inner(sigma, psi2), inner(psi2, psi1))
    return ConstraintReport(overlap_s=s, constraints=tuple(Constraint(*c) for c in conditions))


def _overlap_family(s: np.ndarray, phase: float) -> np.ndarray:
    """z = s e^{i phase} over the array s, for psi1 = sigma = |0>, psi2 = z|0> + sqrt(1-s^2)|1>,
    so <psi1|psi2> = <sigma|psi2> = z, <sigma|psi1> = 1 and <psi2|psi1> = conj(z); the phase
    is judged finite once (else an InputError) and every psi2 of unit norm."""
    phase = _finite_angles(phase).item()
    z = complex(math.cos(phase), math.sin(phase)) * s
    rest = np.sqrt(np.maximum(1.0 - s * s, 0.0))
    _require_unit(z.real * z.real + z.imag * z.imag + rest * rest)
    return z


def _family_report(z: complex) -> ConstraintReport:
    """The report at a point z of `_overlap_family`, in Python complex scalars, which numpy's
    product can round apart from; each `+ 0j` gives the signed zero `inner`'s vdot gives."""
    z += 0j
    conditions = _conditions(z, 1 + 0j, z, z.conjugate() + 0j)
    return ConstraintReport(overlap_s=z, constraints=tuple(Constraint(*c) for c in conditions))


def overlap_constraints(s: float, phase: float = 0.0) -> ConstraintReport:
    """The five conditions of `_overlap_family` at one overlap s in [0, 1], else an InputError."""
    return _family_report(_overlap_family(np.array([_alpha_sq(s, "overlap s")]), phase).item())


def sweep_overlap(n_points: int, phase: float = 0.0) -> list[ConstraintReport]:
    """`overlap_constraints` on the grid of n_points overlaps s spanning [0, 1]. The max
    residual vanishes only at s = 1 (for phase 0); a nonzero phase breaks even that
    endpoint, since s^2 = s has no non-real solutions."""
    return [_family_report(z) for z in _overlap_family(_overlap_grid(n_points), phase).tolist()]


def _sweep_max_residuals(n_points: int, phase: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The overlap grid of `sweep_overlap` and the max residual at each point, as arrays."""
    s = _overlap_grid(n_points)
    z = _overlap_family(s, phase)
    # hypot, not np.abs: the vectorised complex abs rounds up to 2 ulp away
    # from the scalar abs that Constraint.residual takes
    diffs = [lhs - rhs for _, lhs, rhs in _conditions(z, np.ones_like(z), z, z.conj())]
    return s, np.max([np.hypot(d.real, d.imag) for d in diffs], axis=0)


MachineLike = Union[BasisActionMachine, Callable[[Ket], Ket]]


def _stacked(alphabet: Sequence[Ket]) -> np.ndarray:
    """The amplitudes of a non-empty alphabet of states on one space, as (K, *dims)."""
    if not alphabet:
        raise ValueError("alphabet must not be empty")
    dims = alphabet[0].dims
    if any(psi.dims != dims for psi in alphabet):
        raise ShapeError("alphabet states live on different spaces")
    return np.stack([psi.amplitudes for psi in alphabet]).reshape(len(alphabet), *dims)


def _worst_pair(amps: np.ndarray, outputs: np.ndarray) -> float:
    """max |<in_i|in_j> - <out_i|out_j>| over i < j, 0.0 for one state, from (K, d) one-copy
    amplitudes and the outputs on their two copies, one column each."""
    gram_in = (amps.conj() @ amps.T) ** 2  # <psi_i psi_i|psi_j psi_j> = <psi_i|psi_j>^2
    gram_out = outputs.conj().T @ outputs
    return float(np.max(np.triu(np.abs(gram_in - gram_out), 1)))


def _gram_residual(machine: BasisActionMachine, amps: np.ndarray) -> float:
    """`gram_preservation_check` of a machine on the (K, d) amplitudes of an alphabet of
    `d`-level states, d the machine's copy dimension, in one kernel call."""
    d, _ = _copy_layout(machine)
    if amps.shape[1:] != (d,):
        raise ShapeError(f"alphabet state dims {amps.shape[1:]} do not match machine copies ({d},)")
    return _worst_pair(amps, _copies_output(machine, amps.T).reshape(-1, len(amps)))


def gram_preservation_check(machine: MachineLike, alphabet: Sequence[Ket]) -> float:
    """Compare input and output Gram matrices over identical-copy inputs.

    For every alphabet pair (i, j): input_i = psi_i psi_i (with the ancilla
    attached when the machine has one), output_i = machine(input_i); returns
    the largest |<in_i|in_j> - <out_i|out_j>|. Isometries give 0.
    """
    amps = _stacked(alphabet)
    if isinstance(machine, BasisActionMachine):
        return _gram_residual(machine, amps)
    outputs = np.stack([machine(tensor(psi, psi)).amplitudes for psi in alphabet], axis=1)
    return _worst_pair(amps.reshape(len(amps), -1), outputs)


@dataclass(frozen=True)
class VerifyReport:
    """A machine checked against the unitarity argument.

    is_isometry: max_gram_deviation is within the tolerance `verify_report`
        was given. max_gram_deviation: `check_isometry`, max |G - I| over the
        Gram matrix of the rule images.
    rules_normalized: every rule image has squared norm 1 within 1e-9.
    max_gram_residual: `gram_preservation_check` over the alphabet; None
        when no alphabet was given.
    tol: the tolerance is_isometry was judged within.
    """

    is_isometry: bool
    max_gram_deviation: float
    rules_normalized: bool
    max_gram_residual: Optional[float]
    tol: float


def verify_report(
    machine: BasisActionMachine, tol: float, alphabet: Optional[Sequence[Ket]] = None
) -> VerifyReport:
    """The `VerifyReport` of a machine, its isometry judged within `tol`.

    `tol` is positive and finite, else an InputError; the report records it.
    Without an alphabet `max_gram_residual` is None.
    """
    _positive_tol(tol)
    return _verify_report(machine, tol, None if alphabet is None else _stacked(alphabet))


def _positive_tol(tol: float) -> None:
    """The one rule on a `verify` tolerance: positive and finite, else an InputError."""
    if not 0.0 < tol < math.inf:
        raise InputError(f"tol must be a positive finite number, got {tol}")


def _verify_report(
    machine: BasisActionMachine, tol: float, amps: Optional[np.ndarray]
) -> VerifyReport:
    """`verify_report` with the alphabet given as (K, d) amplitudes, as `_gram_residual`
    takes them, or None; `tol` has already passed `_positive_tol`."""
    deviation = check_isometry(machine)
    return VerifyReport(
        is_isometry=deviation <= tol,
        max_gram_deviation=deviation,
        rules_normalized=machine.rule_norms_ok(1e-9),
        max_gram_residual=None if amps is None else _gram_residual(machine, amps),
        tol=float(tol),
    )


def ideal_deletion_map(alphabet: Sequence[Ket], sigma: Ket) -> Callable[[Ket], Ket]:
    """The postulated (non-linear) exact deleter on an alphabet, as a plain map.

    Inputs recognized as psi_i psi_i go to psi_i sigma; anything else passes
    through unchanged. Useful for feeding `gram_preservation_check` the
    transformation a unitary deleter would have to implement.
    """
    frozen = [psi.require_normalized() for psi in alphabet]
    sigma.require_normalized()

    def mapping(state: Ket) -> Ket:
        for psi in frozen:
            pair = tensor(psi, psi)
            if pair.dims == state.dims and abs(inner(pair, state)) > 1.0 - 1e-9:
                return tensor(psi, sigma)
        return state

    return mapping
