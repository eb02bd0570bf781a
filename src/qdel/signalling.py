"""Why a delete-anything machine would signal, and why legal machines cannot.

Alice and Bob share two singlet pairs (Alice holds particles 1 and 3, Bob
holds 2 and 4). The singlet is invariant under identical local rotations, so
whatever basis Alice measures in, Bob's unconditioned reduced state is the
maximally mixed I/2 (x) I/2 and carries no signal. If Bob could delete an
arbitrary unknown state, though, his post-deletion reduced state would
depend on Alice's basis choice, which would let her signal. The hypothetical
deleter is deliberately NOT a linear machine: it is a per-branch classical
rule applied to each collapsed measurement branch, since no linear machine
implementing it exists.

Particle order in memory is (1, 2, 3, 4); Alice's particles are subsystem
indices 0 and 2, Bob's are 1 and 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidStateError, ShapeError
from .hilbert import DensityMatrix, Ket, basis_ket, ket, trace_distance
from .machines import BLANK_INDEX, BasisActionMachine, _pair_output

__all__ = [
    "MeasurementOutcome",
    "SignallingReport",
    "two_singlets",
    "rotated_basis",
    "basis_invariance_check",
    "alice_measure",
    "bob_delete_and_reduce",
    "deletion_mixture_closed_form",
    "bob_machine_and_reduce",
    "no_deletion_reduce",
    "signalling_distance",
]

_ZERO_PROB = 1e-14
PSI, PSI_BAR = 0, 1  # outcome labels: 0 projects onto psi(theta), 1 onto psibar(theta)


def two_singlets() -> Ket:
    """|singlet>_{12} (x) |singlet>_{34} over particles (1, 2, 3, 4)."""
    singlet = ket(np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0), [2, 2])
    state = np.kron(singlet.amplitudes, singlet.amplitudes)
    return Ket((2, 2, 2, 2), state)


def rotated_basis(theta: float) -> tuple[Ket, Ket]:
    """The qubit basis {psi, psibar} at angle theta.

    psi = cos(theta)|0> + sin(theta)|1>, psibar = sin(theta)|0> - cos(theta)|1>
    (sign convention as printed; at theta = 0 psibar is -|1>, which is
    harmless everywhere density matrices are formed).
    """
    c, s = math.cos(theta), math.sin(theta)
    return ket([c, s], [2]), ket([s, -c], [2])


def basis_invariance_check(theta: float) -> float:
    """Max deviation of the two-singlet coefficients from the rotated-basis pattern.

    Expanding in {psi, psibar}^(x)4 must give exactly four terms of amplitude
    +-1/2 -- the same pattern in every basis -- and twelve zeros.
    """
    psi, bar = rotated_basis(theta)
    basis = np.stack([psi.amplitudes, bar.amplitudes])  # (2, 2): rows psi, psibar
    state = two_singlets().amplitudes.reshape(2, 2, 2, 2)
    coeffs = np.einsum("ia,jb,kc,ld,abcd->ijkl", *(basis.conj(),) * 4, state)

    expected = np.zeros((2, 2, 2, 2), dtype=complex)
    expected[PSI, PSI_BAR, PSI, PSI_BAR] = 0.5    # psi_1 psibar_2 psi_3 psibar_4
    expected[PSI_BAR, PSI, PSI_BAR, PSI] = 0.5
    expected[PSI_BAR, PSI, PSI, PSI_BAR] = -0.5
    expected[PSI, PSI_BAR, PSI_BAR, PSI] = -0.5
    return float(np.max(np.abs(coeffs - expected)))


@dataclass(frozen=True)
class MeasurementOutcome:
    """Bob's conditional state (particles 2, 4) and the outcome probability."""

    post_state: Optional[Ket]
    probability: float


def alice_measure(state: Ket, theta: float, outcome: tuple[int, int]) -> MeasurementOutcome:
    """Project Alice's particles 1 and 3 onto a rotated-basis product outcome.

    `outcome` picks (psi or psibar) for particle 1 and particle 3. Returns
    Bob's renormalized conditional state; a zero-probability outcome yields
    probability 0 and no state.
    """
    if state.dims != (2, 2, 2, 2):
        raise ShapeError(f"expected four qubits (2, 2, 2, 2), got {state.dims}")
    k1, k3 = outcome
    if k1 not in (PSI, PSI_BAR) or k3 not in (PSI, PSI_BAR):
        raise ValueError(f"outcome labels must be 0 (psi) or 1 (psibar), got {outcome}")
    psi, bar = rotated_basis(theta)
    basis = (psi.amplitudes, bar.amplitudes)
    arr = state.amplitudes.reshape(2, 2, 2, 2)
    post = np.einsum("a,c,abcd->bd", basis[k1].conj(), basis[k3].conj(), arr)
    prob = float(np.sum(np.abs(post) ** 2))
    if prob < _ZERO_PROB:
        return MeasurementOutcome(post_state=None, probability=0.0)
    return MeasurementOutcome(
        post_state=Ket((2, 2), post.reshape(-1) / math.sqrt(prob)),
        probability=prob,
    )


# branch rule: (Bob's collapsed amplitudes on (2, 4), the labels x and y his
# particles collapsed to) -> the amplitudes he then holds, any axes after the
# first four belonging to an ancilla that is traced out
BranchRule = Callable[[np.ndarray, int, int], np.ndarray]


def _branch_mixture(theta: float, branch: BranchRule) -> DensityMatrix:
    """Measure, apply `branch` to each of Bob's four collapsed branches, reduce and mix.

    Each branch output is normalized, its ancilla traced out, and the
    resulting states on particles (2, 4) are weighted by the outcome
    probabilities.
    """
    state = two_singlets()
    acc = np.zeros((4, 4), dtype=complex)
    for k1 in (PSI, PSI_BAR):
        for k3 in (PSI, PSI_BAR):
            measured = alice_measure(state, theta, (k1, k3))
            if measured.post_state is None:
                continue
            # Bob's particles collapse to the opposite labels
            out = branch(measured.post_state.amplitudes, 1 - k1, 1 - k3).reshape(4, -1)
            norm = np.linalg.norm(out)
            if norm < 1e-15:
                raise InvalidStateError("cannot normalize a zero vector")
            out = out / norm
            acc = acc + measured.probability * (out @ out.conj().T)
    return DensityMatrix((2, 2), acc)


def deletion_mixture_closed_form(theta: float) -> DensityMatrix:
    """The four-term mixture Bob's deletion would leave on particles (2, 4).

    (1/4)(P_psi (x) P_blank + P_psibar (x) P_blank
          + P_psi (x) P_psibar + P_psibar (x) P_psi).
    """
    psi, bar = rotated_basis(theta)
    blank = basis_ket([2], 0)

    def proj(v: Ket) -> np.ndarray:
        return np.outer(v.amplitudes, v.amplitudes.conj())

    entries = 0.25 * (
        np.kron(proj(psi), proj(blank))
        + np.kron(proj(bar), proj(blank))
        + np.kron(proj(psi), proj(bar))
        + np.kron(proj(bar), proj(psi))
    )
    return DensityMatrix((2, 2), entries)


def bob_delete_and_reduce(theta: float) -> DensityMatrix:
    """Bob's reduced state after measurement collapse plus hypothetical deletion.

    Computed through the measurement/deletion/partial-trace pipeline, then
    checked against the closed-form mixture; the pipeline value is returned.
    The delete-anything rule acts on each collapsed branch: identical qubits
    (both psi or both psibar) become |state>|blank>|A_state>; different ones
    pass through. The ancilla is traced out at once and each |A_state> is a
    pure state, so it is left out.
    """
    bob_basis = tuple(v.amplitudes for v in rotated_basis(theta))
    blank = basis_ket([2], BLANK_INDEX).amplitudes

    def delete_identical(post: np.ndarray, x: int, y: int) -> np.ndarray:
        return np.kron(bob_basis[x], blank) if x == y else post

    pipeline = _branch_mixture(theta, delete_identical)
    closed = deletion_mixture_closed_form(theta)
    dev = float(np.max(np.abs(pipeline.entries - closed.entries)))
    if dev > 1e-12:
        raise ArithmeticError(
            f"pipeline mixture deviates from the closed form by {dev:.3e}"
        )
    return pipeline


def no_deletion_reduce(theta: float) -> DensityMatrix:
    """Bob's unconditioned reduced state when he does nothing (control arm)."""
    return _branch_mixture(theta, lambda post, x, y: post)


def bob_machine_and_reduce(theta: float, machine: BasisActionMachine) -> DensityMatrix:
    """Like the hypothetical-deleter arm, but with an actual linear machine.

    Each collapsed branch (plus a fresh ancilla) goes through the machine
    and the ancilla is traced out. Legal machines leave the mixture
    basis-independent.
    """
    dims = machine.input_dims
    if len(dims) != 3 or dims[:2] != (2, 2):
        raise ShapeError(f"need a machine on [2, 2, m], got {dims}")
    return _branch_mixture(theta, lambda post, x, y: _pair_output(machine, post[None])[0])


@dataclass(frozen=True, eq=False)
class SignallingReport:
    """Distinguishability of Bob's reduced states for two of Alice's bases.

    distance_without is the no-signalling control and must vanish;
    distance_with is the hypothetical deleter's signature and is generically
    positive.
    """

    theta_1: float
    theta_2: float
    rho_with_deletion: tuple[DensityMatrix, DensityMatrix]
    rho_without_deletion: tuple[DensityMatrix, DensityMatrix]
    distance_with: float
    distance_without: float

    def __post_init__(self) -> None:
        if self.distance_without > 1e-10:
            raise ArithmeticError(
                f"no-signalling control failed: distance {self.distance_without:.3e}"
            )


def signalling_distance(theta_1: float, theta_2: float) -> SignallingReport:
    """Trace distance between Bob's reduced states for Alice's two basis choices,
    with and without the hypothetical deletion."""
    with_pair = (bob_delete_and_reduce(theta_1), bob_delete_and_reduce(theta_2))
    without_pair = (no_deletion_reduce(theta_1), no_deletion_reduce(theta_2))
    return SignallingReport(
        theta_1=float(theta_1),
        theta_2=float(theta_2),
        rho_with_deletion=with_pair,
        rho_without_deletion=without_pair,
        distance_with=trace_distance(*with_pair),
        distance_without=trace_distance(*without_pair),
    )
