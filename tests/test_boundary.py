"""Validation happens once, at the boundary.

The public constructors copy and fully check what a caller passes (their
refusals are tested beside them: `TestDensityMatrixInvariants`, the machine
properties and the CLI's wire-format tests). Values the package builds
itself are handed over without a copy or a second check, so these tests hold
each such value to the full check, and each fast path to the composition of
public calls it replaces, bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdel.hilbert import (
    DensityMatrix,
    Ket,
    _half_trace_norms,
    density_of,
    haar_ket,
    ket,
    tensor,
)
from qdel.machines import (
    BasisActionMachine,
    apply,
    conditional_deleter,
    delete_demo_report,
    deletion_residual,
    qudit_pair_deleter,
    swap_deleter,
)
from qdel.signalling import (
    _deletion_mixtures,
    _keep,
    _mixtures,
    _rotated_bases,
    bob_delete_and_reduce,
    bob_machine_and_reduce,
    no_deletion_reduce,
    signalling_distance,
)

BUILDERS = (
    [(f"pair{d}", lambda d=d: qudit_pair_deleter(d)) for d in range(2, 9)]
    + [(f"swap{d}", lambda d=d: swap_deleter(d)) for d in range(2, 5)]
    + [("conditional", conditional_deleter)]
)


@pytest.mark.parametrize("build", [b for _, b in BUILDERS], ids=[n for n, _ in BUILDERS])
def test_builders_hand_over_a_machine_the_public_constructor_accepts(build):
    machine = build()
    checked = BasisActionMachine(machine.input_dims, machine.output_dims, machine.matrix, strict=True)
    np.testing.assert_array_equal(checked.matrix, machine.matrix)
    assert checked.input_dims == machine.input_dims and checked.output_dims == machine.output_dims
    assert all(type(n) is int for n in machine.input_dims + machine.output_dims)
    assert machine.strict and machine.matrix.dtype == complex
    assert machine.matrix.flags.f_contiguous  # each rule image contiguous, as before the hand-over
    assert not machine.matrix.flags.writeable
    # every column is one basis state
    assert np.array_equal(np.count_nonzero(machine.matrix, axis=0), np.ones(len(machine.matrix.T)))
    assert set(np.unique(machine.matrix).tolist()) == {0, 1}


def test_builders_refuse_what_is_no_dimension():
    for build in (qudit_pair_deleter, swap_deleter):
        for d in (1, True, 2.0):
            with pytest.raises(ValueError, match="qudit dimension"):
                build(d)


class TestPublicConstructorsCopy:
    def test_ket(self):
        amps = np.array([1.0, 0.0], dtype=complex)
        psi = Ket((2,), amps)
        amps[0] = 5.0
        assert psi.amplitudes[0] == 1.0 and not psi.amplitudes.flags.writeable

    def test_density_matrix(self):
        entries = np.eye(2, dtype=complex) / 2
        rho = DensityMatrix((2,), entries)
        entries[0, 0] = 5.0
        assert rho.entries[0, 0] == 0.5 and not rho.entries.flags.writeable

    def test_machine(self):
        matrix = np.eye(4, dtype=complex)
        machine = BasisActionMachine((2, 2), (2, 2), matrix)
        matrix[0, 0] = 5.0
        assert machine.matrix[0, 0] == 1.0 and not machine.matrix.flags.writeable

    def test_a_builder_matrix_passed_back_in_is_copied(self):
        handed = swap_deleter(2)
        copy = BasisActionMachine(handed.input_dims, handed.output_dims, handed.matrix)
        assert copy.matrix is not handed.matrix and not np.shares_memory(copy.matrix, handed.matrix)


def test_wrapped_density_matrices_pass_the_full_check():
    rng = np.random.default_rng(67)
    wrapped = [density_of(haar_ket(d, rng)) for d in (2, 3, 8, 16)]
    wrapped += [density_of(tensor(haar_ket(2, rng), haar_ket(3, rng)))]
    for theta in rng.uniform(-math.pi, 2.0 * math.pi, size=5):
        wrapped += [bob_delete_and_reduce(float(theta)), no_deletion_reduce(float(theta)),
                    bob_machine_and_reduce(float(theta), conditional_deleter())]
    for rho in wrapped:
        checked = DensityMatrix(rho.dims, rho.entries)
        np.testing.assert_array_equal(checked.entries, rho.entries)
        assert type(rho.dims) is tuple and not rho.entries.flags.writeable


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(2, 8), alpha_sq=st.floats(0.0, 1.0))
def test_delete_demo_equals_the_object_pipeline(dim, alpha_sq):
    report = delete_demo_report(dim, alpha_sq)
    machine = qudit_pair_deleter(dim)
    psi = ket([math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq)] + [0.0] * (dim - 2), [dim])
    assert report.residual == deletion_residual(machine, psi)
    assert report.output_norm == apply(machine, tensor(psi, psi)).norm()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(theta_1=st.floats(-10.0, 10.0), theta_2=st.floats(-10.0, 10.0))
def test_signalling_distance_equals_the_per_arm_kernels(theta_1, theta_2):
    report = signalling_distance(theta_1, theta_2)
    thetas = np.array([theta_1, theta_2])
    with_pair = _deletion_mixtures(thetas)
    without_pair = _mixtures(_rotated_bases(thetas), _keep)
    for rhos, stack in ((report.rho_with_deletion, with_pair),
                        (report.rho_without_deletion, without_pair)):
        for rho, entries in zip(rhos, stack):
            assert rho.dims == (2, 2) and np.array_equal(rho.entries, entries)
    distances = _half_trace_norms(
        np.stack([with_pair[0] - with_pair[1], without_pair[0] - without_pair[1]]))
    assert (report.distance_with, report.distance_without) == tuple(distances.tolist())
