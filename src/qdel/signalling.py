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


def _project(state: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Bob's unnormalized amplitudes on particles (2, 4) after each of Alice's outcomes.

    `state` holds four-qubit amplitudes as (2, 2, 2, 2). The result is a
    (B, 2, 2, 2, 2) stack: entry [:, k1, k3] projects Alice's particles 1 and
    3 onto row k1 and row k3 of each basis in `bases`.
    """
    conj = bases.conj()
    return np.einsum("xia,xkc,abcd->xikbd", conj, conj, state)


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
    post = _project(amps, _rotated_bases(np.array([theta])))[0, k1, k3]
    prob = float(np.sum(np.abs(post) ** 2))
    if prob < _ZERO_PROB:
        return MeasurementOutcome(post_state=None, probability=0.0)
    return MeasurementOutcome(
        post_state=_trusted(Ket, (2, 2), post.reshape(-1) / math.sqrt(prob)),
        probability=prob,
    )


# branch rule: (the (B, 2, 2) bases, Bob's normalized collapsed amplitudes on (2, 4)
# as a (B, 2, 2, 2, 2) stack, indexed [:, k1, k3] by Alice's outcome) -> the
# (B, 2, 2, ...) amplitudes he then holds in each branch, any axes after his
# two qubits belonging to an ancilla that is traced out. After Alice's outcome
# (k1, k3) his particles are collapsed to the opposite labels (1 - k1, 1 - k3).
BranchRule = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _branch_mixtures(bases: np.ndarray, *rules: BranchRule) -> tuple[np.ndarray, ...]:
    """Bob's mixtures on particles (2, 4) for a (B, 2, 2) stack of Alice's bases (as
    `_rotated_bases` builds them), one (B, 4, 4) stack a rule.

    Alice measures the two singlets in each basis: one
    projection gives all four of her outcomes, one probability array
    normalizes them (1/4 each for the two singlets), and it is shared by
    every rule. Each rule maps the four collapsed branches at once; each
    branch output is normalized, and one contraction weighted by the outcome
    probabilities traces out the ancilla and sums the branches. The stacks are
    not checked here: each caller checks what it hands out, once.
    """
    posts = _project(TWO_SINGLETS.amplitudes.reshape(2, 2, 2, 2), bases)
    probs = np.sum(np.abs(posts) ** 2, axis=(3, 4))  # (B, 2, 2)
    posts = posts / np.sqrt(probs)[..., None, None]
    mixtures = []
    for rule in rules:
        out = rule(bases, posts).reshape(len(bases), 4, 4, -1)  # (B, outcome, Bob, ancilla)
        norm = np.linalg.norm(out, axis=(2, 3))
        _require_nonzero(norm * norm)
        out = out / norm[..., None, None]
        weighted = out * probs.reshape(-1, 4, 1, 1)
        mixtures.append(np.einsum("xoar,xobr->xab", weighted, out.conj()))
    return tuple(mixtures)


def _closed_form_mixtures(bases: np.ndarray) -> np.ndarray:
    """`deletion_mixture_closed_form` for a (B, 2, 2) stack of bases, as a (B, 4, 4) stack."""
    proj = np.einsum("xka,xkb->xkab", bases, bases.conj())  # (B, 2, 2, 2): P_psi, P_psibar
    p_psi, p_bar, p_blank = proj[:, PSI], proj[:, PSI_BAR], np.outer(_BLANK, _BLANK)

    def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("...ab,...cd->...acbd", a, b).reshape(-1, 4, 4)

    return 0.25 * (kron(p_psi, p_blank) + kron(p_bar, p_blank)
                   + kron(p_psi, p_bar) + kron(p_bar, p_psi))


def _delete_identical(bases: np.ndarray, posts: np.ndarray) -> np.ndarray:
    """The delete-anything rule: identical qubits (both psi or both psibar) become
    |state>|blank>|A_state>; different ones pass through. The ancilla is traced
    out at once and each |A_state> is a pure state, so it is left out."""
    out = posts.copy()
    # Alice's outcome (k, k) leaves Bob two copies of basis row 1 - k
    out[:, (PSI, PSI_BAR), (PSI, PSI_BAR)] = np.einsum("xka,b->xkab", bases[:, ::-1], _BLANK)
    return out


def _keep(bases: np.ndarray, posts: np.ndarray) -> np.ndarray:
    return posts


def _against_closed_form(thetas: np.ndarray, bases: np.ndarray, pipeline: np.ndarray) -> None:
    """Raise ArithmeticError, naming the worst angle, unless each of the deletion arm's
    (B, 4, 4) mixtures is within 1e-12 of the closed form at its angle; `bases` are
    `_rotated_bases(thetas)`, the stack the mixtures were built from."""
    dev = np.max(np.abs(pipeline - _closed_form_mixtures(bases)), axis=(1, 2))
    worst = int(np.argmax(dev))
    if not dev[worst] <= 1e-12:
        raise ArithmeticError(
            f"pipeline mixture at theta={float(thetas[worst])!r} deviates from the "
            f"closed form by {dev[worst]:.3e}"
        )


def _deletion_mixtures(thetas: np.ndarray) -> np.ndarray:
    """Bob's mixtures after collapse plus hypothetical deletion at B angles, (B, 4, 4),
    checked densities, each checked against the closed form at its angle."""
    bases = _rotated_bases(thetas)
    (pipeline,) = _branch_mixtures(bases, _delete_identical)
    _require_densities(pipeline)
    _against_closed_form(thetas, bases, pipeline)
    return pipeline


def _no_deletion_mixtures(thetas: np.ndarray) -> np.ndarray:
    """Bob's mixtures when he does nothing, the control arm, at B angles, (B, 4, 4),
    checked densities."""
    (mixtures,) = _branch_mixtures(_rotated_bases(thetas), _keep)
    _require_densities(mixtures)
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
    bases = _rotated_bases(np.array([theta], dtype=float))
    return DensityMatrix((2, 2), _closed_form_mixtures(bases)[0])


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

    def through_machine(bases: np.ndarray, posts: np.ndarray) -> np.ndarray:
        # the kernel takes the branches as points on its last axis and gives them back there
        out = _pair_output(machine, np.moveaxis(posts.reshape(-1, 2, 2), 0, -1))
        return np.moveaxis(out, -1, 0).reshape(posts.shape[:3] + out.shape[:-1])

    def mixtures(thetas: np.ndarray) -> np.ndarray:
        (stack,) = _branch_mixtures(_rotated_bases(thetas), through_machine)
        _require_densities(stack)
        return stack

    return _one_point(mixtures, theta)


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
    bases = _rotated_bases(thetas)
    with_pair, without_pair = _branch_mixtures(bases, _delete_identical, _keep)
    # The public constructor is the one check of the four matrices. They are the only
    # DensityMatrix a perfbench `pointwise` pass builds, and its traced-count test expects
    # one. They are built before the closed-form test, so a bad matrix is an
    # InvalidStateError first.
    rho_with = tuple(DensityMatrix((2, 2), rho) for rho in with_pair)
    rho_without = tuple(DensityMatrix((2, 2), rho) for rho in without_pair)
    _against_closed_form(thetas, bases, with_pair)
    distance_with, distance_without = _half_trace_norms(
        np.stack([with_pair[0] - with_pair[1], without_pair[0] - without_pair[1]])
    )
    return SignallingReport(
        theta_1=float(theta_1),
        theta_2=float(theta_2),
        rho_with_deletion=rho_with,
        rho_without_deletion=rho_without,
        distance_with=float(distance_with),
        distance_without=float(distance_without),
    )
