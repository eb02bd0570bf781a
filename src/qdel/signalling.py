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

from .errors import ShapeError
from .hilbert import DensityMatrix, Ket, _half_trace_norms, _require_densities, _trusted
from .machines import BLANK_INDEX, BasisActionMachine, _copy_layout, _pair_output, _require_nonzero

__all__ = [
    "MeasurementOutcome",
    "SignallingReport",
    "TWO_SINGLETS",
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

_SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
# |singlet>_{12} (x) |singlet>_{34} over particles (1, 2, 3, 4); kets are immutable
TWO_SINGLETS = Ket((2, 2, 2, 2), np.kron(_SINGLET, _SINGLET))
_BLANK = np.eye(2)[BLANK_INDEX]


def _rotated_bases(thetas: np.ndarray) -> np.ndarray:
    """The bases at B angles as a (B, 2, 2) stack: rows psi(theta) and psibar(theta)."""
    c, s = np.cos(thetas), np.sin(thetas)
    return np.stack([np.stack([c, s], axis=-1), np.stack([s, -c], axis=-1)], axis=-2)


def rotated_basis(theta: float) -> tuple[Ket, Ket]:
    """The qubit basis {psi, psibar} at angle theta.

    psi = cos(theta)|0> + sin(theta)|1>, psibar = sin(theta)|0> - cos(theta)|1>
    (sign convention as printed; at theta = 0 psibar is -|1>, which is
    harmless everywhere density matrices are formed).
    """
    psi, bar = _rotated_bases(np.array([theta]))[0]
    return Ket((2,), psi), Ket((2,), bar)


def basis_invariance_check(theta: float) -> float:
    """Max deviation of the two-singlet coefficients from the rotated-basis pattern.

    Expanding in {psi, psibar}^(x)4 must give exactly four terms of amplitude
    +-1/2 -- the same pattern in every basis -- and twelve zeros.
    """
    basis = _rotated_bases(np.array([theta]))[0]  # (2, 2): rows psi, psibar
    state = TWO_SINGLETS.amplitudes.reshape(2, 2, 2, 2)
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


def _project(state: np.ndarray, bases: np.ndarray, k1: int, k3: int) -> np.ndarray:
    """Bob's unnormalized (B, 2, 2) amplitudes on particles (2, 4) after Alice's outcome.

    `state` holds four-qubit amplitudes as (2, 2, 2, 2); Alice's particles 1
    and 3 are projected onto row k1 and row k3 of each basis in `bases`.
    """
    return np.einsum("xa,xc,abcd->xbd", bases[:, k1].conj(), bases[:, k3].conj(), state)


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
    amps = state.amplitudes.reshape(2, 2, 2, 2)
    post = _project(amps, _rotated_bases(np.array([theta])), k1, k3)[0]
    prob = float(np.sum(np.abs(post) ** 2))
    if prob < _ZERO_PROB:
        return MeasurementOutcome(post_state=None, probability=0.0)
    return MeasurementOutcome(
        post_state=_trusted(Ket, (2, 2), post.reshape(-1) / math.sqrt(prob)),
        probability=prob,
    )


# branch rule: (the (B, 2, 2) bases, Bob's collapsed amplitudes on (2, 4) as a
# (B, 2, 2) stack, the labels x and y his particles collapsed to) -> the (B, ...)
# amplitudes he then holds, any axes after the first two qubits belonging to an
# ancilla that is traced out
BranchRule = Callable[[np.ndarray, np.ndarray, int, int], np.ndarray]


def _branch_mixtures(thetas: np.ndarray, *rules: BranchRule) -> tuple[np.ndarray, ...]:
    """Bob's mixtures on particles (2, 4) at each of B angles, one checked (B, 4, 4) stack a rule.

    Alice measures the two singlets in the basis at each angle, once for
    every rule; each rule acts on Bob's four collapsed branches, each branch
    output is normalized and its ancilla traced out, and the branches are
    weighted by the outcome probabilities (1/4 each for the two singlets).
    One `_require_densities` call checks every stack.
    """
    bases = _rotated_bases(thetas)
    state = TWO_SINGLETS.amplitudes.reshape(2, 2, 2, 2)
    accs = [np.zeros((len(bases), 4, 4), dtype=complex) for _ in rules]
    for k1 in (PSI, PSI_BAR):
        for k3 in (PSI, PSI_BAR):
            post = _project(state, bases, k1, k3)
            prob = np.sum(np.abs(post) ** 2, axis=(1, 2))
            post = post / np.sqrt(prob)[:, None, None]
            for n, rule in enumerate(rules):
                # Bob's particles collapse to the opposite labels
                out = rule(bases, post, 1 - k1, 1 - k3).reshape(len(bases), 4, -1)
                norm = np.linalg.norm(out, axis=(1, 2))
                _require_nonzero(norm * norm)
                out = out / norm[:, None, None]
                accs[n] = accs[n] + prob[:, None, None] * (out @ np.swapaxes(out, 1, 2).conj())
    _require_densities(np.stack(accs))
    return tuple(accs)


def _closed_form_mixtures(thetas: np.ndarray) -> np.ndarray:
    """`deletion_mixture_closed_form` at each of B angles, as a (B, 4, 4) stack."""
    bases = _rotated_bases(thetas)
    proj = np.einsum("xka,xkb->xkab", bases, bases.conj())  # (B, 2, 2, 2): P_psi, P_psibar
    p_psi, p_bar, p_blank = proj[:, PSI], proj[:, PSI_BAR], np.outer(_BLANK, _BLANK)

    def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("...ab,...cd->...acbd", a, b).reshape(-1, 4, 4)

    return 0.25 * (kron(p_psi, p_blank) + kron(p_bar, p_blank)
                   + kron(p_psi, p_bar) + kron(p_bar, p_psi))


def _delete_identical(bases: np.ndarray, post: np.ndarray, x: int, y: int) -> np.ndarray:
    """The delete-anything rule: identical qubits (both psi or both psibar) become
    |state>|blank>|A_state>; different ones pass through. The ancilla is traced
    out at once and each |A_state> is a pure state, so it is left out."""
    return np.einsum("xa,b->xab", bases[:, x], _BLANK) if x == y else post


def _keep(bases: np.ndarray, post: np.ndarray, x: int, y: int) -> np.ndarray:
    return post


def _against_closed_form(thetas: np.ndarray, pipeline: np.ndarray) -> None:
    """Raise ArithmeticError, naming the worst angle, unless each of the deletion arm's
    (B, 4, 4) mixtures is within 1e-12 of the closed form at its angle."""
    dev = np.max(np.abs(pipeline - _closed_form_mixtures(thetas)), axis=(1, 2))
    worst = int(np.argmax(dev))
    if not dev[worst] <= 1e-12:
        raise ArithmeticError(
            f"pipeline mixture at theta={float(thetas[worst])!r} deviates from the "
            f"closed form by {dev[worst]:.3e}"
        )


def _deletion_mixtures(thetas: np.ndarray) -> np.ndarray:
    """Bob's mixtures after collapse plus hypothetical deletion at B angles, (B, 4, 4),
    each checked against the closed form at its angle."""
    (pipeline,) = _branch_mixtures(thetas, _delete_identical)
    _against_closed_form(thetas, pipeline)
    return pipeline


def _no_deletion_mixtures(thetas: np.ndarray) -> np.ndarray:
    """Bob's mixtures when he does nothing, the control arm, at B angles, (B, 4, 4)."""
    (mixtures,) = _branch_mixtures(thetas, _keep)
    return mixtures


def _one_point(mixtures: Callable[[np.ndarray], np.ndarray], theta: float) -> DensityMatrix:
    """The mixture at one angle of a kernel whose stacks are checked densities."""
    return _trusted(DensityMatrix, (2, 2), mixtures(np.array([theta], dtype=float))[0])


def deletion_mixture_closed_form(theta: float) -> DensityMatrix:
    """The four-term mixture Bob's deletion would leave on particles (2, 4).

    (1/4)(P_psi (x) P_blank + P_psibar (x) P_blank
          + P_psi (x) P_psibar + P_psibar (x) P_psi).
    """
    # the one stack no kernel checks: the full constructor checks it
    return DensityMatrix((2, 2), _closed_form_mixtures(np.array([theta], dtype=float))[0])


def bob_delete_and_reduce(theta: float) -> DensityMatrix:
    """Bob's reduced state after measurement collapse plus hypothetical deletion.

    Computed through the measurement/deletion/partial-trace pipeline, then
    checked against the closed-form mixture; the pipeline value is returned.
    """
    return _one_point(_deletion_mixtures, theta)


def no_deletion_reduce(theta: float) -> DensityMatrix:
    """Bob's unconditioned reduced state when he does nothing (control arm)."""
    return _one_point(_no_deletion_mixtures, theta)


def bob_machine_and_reduce(theta: float, machine: BasisActionMachine) -> DensityMatrix:
    """Like the hypothetical-deleter arm, but with an actual linear machine.

    Each collapsed branch (plus a fresh ancilla) goes through the machine
    and the ancilla is traced out. Legal machines leave the mixture
    basis-independent.
    """
    d, m = _copy_layout(machine)
    if d != 2 or m == 1:
        raise ShapeError(f"need a machine on [2, 2, m], got {machine.input_dims}")
    if machine.output_dims[:2] != (2, 2):
        raise ShapeError(
            f"need an output that starts with Bob's two qubits (2, 2), got {machine.output_dims}"
        )

    def through_machine(bases: np.ndarray, post: np.ndarray, x: int, y: int) -> np.ndarray:
        # the kernel takes the branch's points on its last axis and gives them back there
        return np.moveaxis(_pair_output(machine, np.moveaxis(post, 0, -1)), -1, 0)

    return _one_point(lambda thetas: _branch_mixtures(thetas, through_machine)[0], theta)


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
    thetas = np.array([theta_1, theta_2], dtype=float)
    with_pair, without_pair = _branch_mixtures(thetas, _delete_identical, _keep)
    _against_closed_form(thetas, with_pair)
    distance_with, distance_without = _half_trace_norms(
        np.stack([with_pair[0] - with_pair[1], without_pair[0] - without_pair[1]])
    )
    # the four matrices still pass the public constructor: they are the only DensityMatrix
    # a perfbench `pointwise` pass builds, and its traced-count test expects one
    return SignallingReport(
        theta_1=float(theta_1),
        theta_2=float(theta_2),
        rho_with_deletion=tuple(DensityMatrix((2, 2), rho) for rho in with_pair),
        rho_without_deletion=tuple(DensityMatrix((2, 2), rho) for rho in without_pair),
        distance_with=float(distance_with),
        distance_without=float(distance_without),
    )
