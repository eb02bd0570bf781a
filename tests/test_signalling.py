import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdel import signalling
from qdel.errors import InputError, InvalidStateError, ShapeError
from qdel.hilbert import (
    DensityMatrix,
    Ket,
    basis_ket,
    ket,
    partial_trace,
    density_of,
    tensor,
    trace_distance,
)
from qdel.machines import (
    BasisActionMachine,
    _pair_output,
    apply,
    conditional_deleter,
    qudit_pair_deleter,
    swap_deleter,
)
from qdel.signalling import (
    TWO_SINGLETS,
    SignallingReport,
    _branch_mixtures,
    _deletion_mixtures,
    _mixtures,
    alice_measure,
    basis_invariance_check,
    bob_delete_and_reduce,
    bob_machine_and_reduce,
    deletion_mixture_closed_form,
    no_deletion_reduce,
    rotated_basis,
    signalling_distance,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestTwoSinglets:
    def test_normalized(self):
        assert abs(TWO_SINGLETS.norm() - 1.0) < 1e-15

    def test_matches_direct_kronecker_construction(self):
        singlet = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2.0)
        np.testing.assert_allclose(
            TWO_SINGLETS.amplitudes, np.kron(singlet, singlet), atol=1e-15
        )
        # spot amplitude: |0101> carries (+1/sqrt2)(+1/sqrt2) = 1/2
        state = TWO_SINGLETS.amplitudes.reshape(2, 2, 2, 2)
        assert state[0, 1, 0, 1] == pytest.approx(0.5, abs=1e-15)
        assert state[0, 1, 1, 0] == pytest.approx(-0.5, abs=1e-15)

    def test_bobs_unconditioned_state_is_maximally_mixed(self):
        reduced = partial_trace(density_of(TWO_SINGLETS), keep={1, 3})
        np.testing.assert_allclose(reduced.entries, np.eye(4) / 4, atol=1e-15)


class TestBasisInvariance:
    @pytest.mark.parametrize("theta", [0.0, math.pi / 4, 1.0, 2.7])
    def test_specific_angles(self, theta):
        assert basis_invariance_check(theta) < 1e-12

    def test_random_angles(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            assert basis_invariance_check(rng.uniform(0.0, 2.0 * math.pi)) < 1e-12


class TestAliceMeasure:
    def test_probabilities_sum_to_one(self):
        state = TWO_SINGLETS
        rng = np.random.default_rng(5)
        for _ in range(10):
            theta = rng.uniform(0.0, math.pi)
            total = sum(
                alice_measure(state, theta, (k1, k3)).probability
                for k1 in (0, 1)
                for k3 in (0, 1)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_outcome_pins_bob_to_the_conjugate_pair(self):
        state = TWO_SINGLETS
        rng = np.random.default_rng(7)
        for _ in range(10):
            theta = rng.uniform(0.0, math.pi)
            psi, bar = rotated_basis(theta)
            result = alice_measure(state, theta, (0, 0))
            assert result.probability == pytest.approx(0.25, abs=1e-12)
            expected = np.kron(bar.amplitudes, bar.amplitudes)
            overlap = abs(np.vdot(expected, result.post_state.amplitudes))
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_computational_basis_outcome(self):
        # theta = 0: outcome (psibar, psi) leaves Bob in |0>|1> up to phase
        result = alice_measure(TWO_SINGLETS, 0.0, (1, 0))
        expected = basis_ket([2, 2], (0, 1))
        overlap = abs(np.vdot(expected.amplitudes, result.post_state.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_outcome(self):
        product = ket([1] + [0] * 15, [2, 2, 2, 2])
        result = alice_measure(product, 0.0, (1, 0))
        assert result.probability == 0.0
        assert result.post_state is None

    def test_outcome_of_probability_1e_10_is_an_outcome(self):
        # _ZERO_PROB (1e-14) at its edge: sqrt(1e-10)|0000> + sqrt(1 - 1e-10)|1111> measured
        # at theta = 0 leaves Bob in |00> with probability 1e-10
        amps = np.zeros(16)
        amps[0], amps[15] = math.sqrt(1e-10), math.sqrt(1.0 - 1e-10)
        result = alice_measure(Ket((2, 2, 2, 2), amps), 0.0, (0, 0))
        assert result.probability == pytest.approx(1e-10, rel=1e-12)
        np.testing.assert_allclose(result.post_state.amplitudes, basis_ket([2, 2], 0).amplitudes,
                                   rtol=0, atol=1e-15)

    def test_shape_checked(self):
        with pytest.raises(ShapeError):
            alice_measure(basis_ket([2, 2], 0), 0.0, (0, 0))

    def test_outcome_labels_checked(self):
        with pytest.raises(ValueError):
            alice_measure(TWO_SINGLETS, 0.0, (0, 2))


class TestBobDeleteAndReduce:
    def test_computational_basis_mixture(self):
        # branches: two identical pairs delete to |.,blank>, two different
        # pairs pass through, giving diag(1, 1, 2, 0)/4 over {00,01,10,11}
        rho = bob_delete_and_reduce(0.0)
        np.testing.assert_allclose(rho.entries, np.diag([0.25, 0.25, 0.5, 0.0]), atol=1e-14)

    def test_pipeline_matches_closed_form(self):
        rng = np.random.default_rng(11)
        for theta in [math.pi / 3] + list(rng.uniform(0.0, 2.0 * math.pi, size=50)):
            rho = bob_delete_and_reduce(float(theta))
            closed = deletion_mixture_closed_form(float(theta))
            np.testing.assert_allclose(rho.entries, closed.entries, atol=1e-12)

    def test_result_is_a_valid_density_matrix(self):
        rho = bob_delete_and_reduce(1.234)  # DensityMatrix invariants run on construction
        assert complex(np.trace(rho.entries)).real == pytest.approx(1.0, abs=1e-12)

    def test_a_mixture_off_the_closed_form_by_1e_9_is_refused(self):
        thetas = np.array([0.4, 2.2])
        mixtures = _deletion_mixtures(thetas)
        bases = signalling._rotated_bases(thetas)
        signalling._against_closed_form(thetas, bases, mixtures)
        mixtures[1, 2, 3] += 1e-9
        with pytest.raises(ArithmeticError, match="theta=2.2 deviates"):
            signalling._against_closed_form(thetas, bases, mixtures)

    def test_depends_on_the_basis_choice(self):
        assert trace_distance(bob_delete_and_reduce(0.0), bob_delete_and_reduce(math.pi / 4)) > 0.05

    def test_periodic_and_continuous_in_theta(self):
        thetas = np.arange(0.0, 2.0 * math.pi + 1e-9, math.pi / 100)
        rhos = [bob_delete_and_reduce(float(t)) for t in thetas]
        for prev, nxt in zip(rhos, rhos[1:]):
            assert trace_distance(prev, nxt) < 0.1
        assert trace_distance(rhos[0], bob_delete_and_reduce(2.0 * math.pi)) < 1e-12


class TestNoDeletionControl:
    def test_mixture_is_maximally_mixed_for_any_basis(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            rho = no_deletion_reduce(rng.uniform(0.0, 2.0 * math.pi))
            np.testing.assert_allclose(rho.entries, np.eye(4) / 4, atol=1e-12)


class TestSwapDeleterCannotSignal:
    def test_legal_machine_distance_vanishes(self):
        machine = swap_deleter(2)
        rng = np.random.default_rng(17)
        base = bob_machine_and_reduce(0.0, machine)
        for _ in range(10):
            rho = bob_machine_and_reduce(rng.uniform(0.0, 2.0 * math.pi), machine)
            assert trace_distance(base, rho) < 1e-12

    def test_machine_shape_checked(self):
        with pytest.raises(ShapeError):
            bob_machine_and_reduce(0.0, swap_deleter(3))

    def test_a_two_qubit_machine_without_an_ancilla_is_taken(self):
        # a [2, 2] machine is a [2, 2, m] one with m = 1: a unitary leaves Bob's mixture I/4,
        # and the pair deleter, no isometry, moves it
        cnot = BasisActionMachine((2, 2), (2, 2), np.eye(4)[:, [0, 1, 3, 2]])
        for theta in (0.0, 0.3, 1.1):
            rho = bob_machine_and_reduce(theta, cnot).entries
            assert np.max(np.abs(rho - np.eye(4) / 4)) <= 1e-15
        pair = [bob_machine_and_reduce(theta, qudit_pair_deleter(2)) for theta in (0.0, 0.3)]
        assert trace_distance(*pair) > 0.05

    def test_a_machine_that_loses_a_branch_is_refused(self):
        # zero on |1 1 0>: at theta = 0 one of Alice's outcomes leaves Bob |1 1>, whose output
        # vanishes; at theta = 0.3 no branch is a basis state, so none does
        matrix = np.eye(8)
        matrix[:, 6] = 0.0
        machine = BasisActionMachine((2, 2, 2), (2, 2, 2), matrix, strict=False)
        with pytest.raises(InvalidStateError, match="cannot normalize a zero vector"):
            bob_machine_and_reduce(0.0, machine)
        assert bob_machine_and_reduce(0.3, machine).dims == (2, 2)
        zero = BasisActionMachine((2, 2, 2), (2, 2, 2), np.zeros((8, 8)), strict=False)
        with pytest.raises(InvalidStateError, match="cannot normalize a zero vector"):
            bob_machine_and_reduce(0.3, zero)

    @pytest.mark.parametrize("output_dims", [(3, 4), (4, 3), (2, 6), (12,)])
    def test_an_output_without_bobs_two_qubits_first_is_refused(self, output_dims):
        # the conditional deleter's matrix under output dims that do not start with (2, 2):
        # its 12 amplitudes would otherwise be read as two qubits and a 3-level ancilla
        machine = BasisActionMachine((2, 2, 3), output_dims, conditional_deleter().matrix)
        with pytest.raises(ShapeError, match=re.escape(f"got {output_dims}")):
            bob_machine_and_reduce(0.0, machine)


class TestSignallingDistance:
    def test_identical_bases_cannot_be_distinguished(self):
        report = signalling_distance(0.7, 0.7)
        assert report.distance_with < 1e-12
        assert report.distance_without < 1e-12

    def test_no_signalling_control_for_random_bases(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            report = signalling_distance(
                rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
            )
            assert report.distance_without < 1e-12

    @pytest.mark.parametrize("control, refused", [(2e-10, True), (5e-11, False)])
    def test_the_control_distance_is_held_to_1e_10(self, control, refused):
        report = signalling_distance(0.0, math.pi / 4)
        values = {**vars(report), "distance_without": control}
        if refused:
            with pytest.raises(ArithmeticError, match="no-signalling control failed"):
                SignallingReport(**values)
        else:
            assert SignallingReport(**values).distance_without == control

    def test_hypothetical_deleter_signals(self):
        report = signalling_distance(0.0, math.pi / 4)
        assert report.distance_with == pytest.approx(0.25, abs=1e-12)
        assert report.distance_with > 0.05

    def test_work_is_pinned(self, monkeypatch):
        """Both arms come from one projection with no stacked density check: the four report
        matrices pass the public constructor, one eigensolve each, and one stacked eigensolve
        gives both distances."""
        checks, solves, constructions = [], [], []
        require, eigvalsh, post_init = (signalling._require_densities, np.linalg.eigvalsh,
                                        DensityMatrix.__post_init__)

        def counted_require(stack):
            checks.append(stack.shape)
            return require(stack)

        def counted_eigvalsh(matrices):
            solves.append(np.shape(matrices))
            return eigvalsh(matrices)

        def counted_post_init(rho):
            constructions.append(rho.dims)
            return post_init(rho)

        monkeypatch.setattr(signalling, "_require_densities", counted_require)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        monkeypatch.setattr(DensityMatrix, "__post_init__", counted_post_init)
        signalling_distance(0.3, 1.1)
        assert checks == []
        assert solves == [(4, 4)] * 4 + [(2, 4, 4)]
        assert constructions == [(2, 2)] * 4

    def test_a_bad_mixture_is_refused_as_a_state_before_the_closed_form(self, monkeypatch):
        """A deletion mixture of trace 2 is off the closed form too; it is an
        InvalidStateError on every path that hands mixtures out."""
        branch_mixtures = signalling._branch_mixtures

        def doubled(bases, rule):
            return 2.0 * branch_mixtures(bases, rule)

        monkeypatch.setattr(signalling, "_branch_mixtures", doubled)
        for call in (lambda: signalling_distance(0.3, 1.1),
                     lambda: _deletion_mixtures(np.array([0.0, 0.3])),
                     lambda: bob_delete_and_reduce(0.3),
                     lambda: no_deletion_reduce(0.3),
                     lambda: bob_machine_and_reduce(0.3, swap_deleter(2))):
            with pytest.raises(InvalidStateError, match="trace differs from 1"):
                call()

    def test_each_arm_checks_its_stack_once(self, monkeypatch):
        """The three one-angle arms and the `signal --sweep` kernel each pass one
        `_require_densities` call, and the one-angle states skip the public constructor."""
        checks, constructions = [], []
        require, post_init = signalling._require_densities, DensityMatrix.__post_init__

        def counted_require(stack):
            checks.append(stack.shape)
            return require(stack)

        def counted_post_init(rho):
            constructions.append(rho.dims)
            return post_init(rho)

        monkeypatch.setattr(signalling, "_require_densities", counted_require)
        monkeypatch.setattr(DensityMatrix, "__post_init__", counted_post_init)
        for call, shape in ((lambda: bob_delete_and_reduce(0.3), (1, 4, 4)),
                            (lambda: no_deletion_reduce(0.3), (1, 4, 4)),
                            (lambda: bob_machine_and_reduce(0.3, swap_deleter(2)), (1, 4, 4)),
                            (lambda: _deletion_mixtures(np.linspace(0.0, 1.0, 5)), (5, 4, 4))):
            checks.clear()
            call()
            assert checks == [shape]
        assert constructions == []


class TestNonFiniteAngles:
    """Every entry point refuses a NaN or infinite angle by name, before any arithmetic on it
    (the suite turns a RuntimeWarning into an error)."""

    ENTRY_POINTS = {
        "rotated_basis": rotated_basis,
        "basis_invariance_check": basis_invariance_check,
        "alice_measure": lambda theta: alice_measure(TWO_SINGLETS, theta, (0, 1)),
        "deletion_mixture_closed_form": deletion_mixture_closed_form,
        "bob_delete_and_reduce": bob_delete_and_reduce,
        "no_deletion_reduce": no_deletion_reduce,
        "bob_machine_and_reduce": lambda theta: bob_machine_and_reduce(theta, swap_deleter(2)),
        "signalling_distance_theta_1": lambda theta: signalling_distance(theta, 0.0),
        "signalling_distance_theta_2": lambda theta: signalling_distance(0.0, theta),
        "sweep_kernel": lambda theta: _deletion_mixtures(np.array([0.0, 0.3, theta])),
    }

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    def test_is_refused_by_name(self, name, bad):
        with pytest.raises(ValueError, match=f"^angle must be finite, got {bad!r}$") as info:
            self.ENTRY_POINTS[name](bad)
        assert type(info.value) is InputError


def reference_mixture(theta, branch):
    """Bob's mixture through the object pipeline, one branch at a time.

    alice_measure -> branch -> density_of -> partial_trace onto Bob's
    particles, weighted by the outcome probabilities. `branch` maps
    (Bob's collapsed Ket, theta, x, y) to the Ket he then holds.
    """
    acc = np.zeros((4, 4), dtype=complex)
    for k1 in (0, 1):
        for k3 in (0, 1):
            measured = alice_measure(TWO_SINGLETS, theta, (k1, k3))
            out = branch(measured.post_state, theta, 1 - k1, 1 - k3)
            out = Ket(out.dims, out.amplitudes / out.norm())
            acc += measured.probability * partial_trace(density_of(out), keep={0, 1}).entries
    return acc


def delete_identical(post, theta, x, y):
    return tensor(rotated_basis(theta)[x], basis_ket([2], 0)) if x == y else post


def through(machine):
    ancilla = basis_ket([machine.input_dims[2]], 0)
    return lambda post, theta, x, y: apply(machine, tensor(post, ancilla))


# the batched kernel sums in another order than the pipeline: a few ulps of entries <= 1/2
KERNEL_TOL = 4 * np.finfo(float).eps


class TestBatchedKernel:
    THETAS = np.random.default_rng(29).uniform(-math.pi, 2.0 * math.pi, size=40)

    @pytest.mark.parametrize(
        "batched, branch",
        [(_deletion_mixtures, delete_identical),
         (lambda thetas: _mixtures(signalling._rotated_bases(thetas), signalling._keep),
          lambda post, theta, x, y: post)],
        ids=["deletion", "no_deletion"],
    )
    def test_every_slice_matches_the_object_pipeline(self, batched, branch):
        mixtures = batched(self.THETAS)
        assert mixtures.shape == (len(self.THETAS), 4, 4)
        for theta, rho in zip(self.THETAS, mixtures):
            np.testing.assert_allclose(rho, reference_mixture(float(theta), branch),
                                       rtol=0, atol=KERNEL_TOL)

    @pytest.mark.parametrize("machine", [swap_deleter(2), conditional_deleter()],
                             ids=["swap", "conditional"])
    def test_machine_slices_match_the_object_pipeline(self, machine):
        def through_kernel(bases, posts):  # the branches go on the kernel's last axis as points
            out = _pair_output(machine, np.moveaxis(posts.reshape(-1, 2, 2), 0, -1))
            return np.moveaxis(out, -1, 0).reshape(posts.shape[:3] + out.shape[:-1])

        mixtures = _branch_mixtures(signalling._rotated_bases(self.THETAS), through_kernel)
        for theta, rho in zip(self.THETAS, mixtures):
            reference = reference_mixture(float(theta), through(machine))
            np.testing.assert_allclose(rho, reference, rtol=0, atol=KERNEL_TOL)
            one_point = bob_machine_and_reduce(float(theta), machine).entries
            np.testing.assert_allclose(one_point, reference, rtol=0, atol=KERNEL_TOL)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(2, 4),
    extra=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    thetas=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=4),
)
def test_random_isometries_cannot_signal(m, extra, seed, thetas):
    """QR of a complex Gaussian is an isometry on [2, 2, m]; Bob's mixture never moves."""
    rng = np.random.default_rng(seed)
    rows, cols = 4 * (m + extra), 4 * m
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    machine = BasisActionMachine((2, 2, m), (2, 2, m + extra), q)
    base = bob_machine_and_reduce(0.0, machine).entries
    for theta in thetas:
        assert np.max(np.abs(bob_machine_and_reduce(theta, machine).entries - base)) <= 1e-12
