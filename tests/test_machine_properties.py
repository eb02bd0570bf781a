"""Property tests of the machine layer: construction, norm checks, the wire format and the
classifier's swap certificate."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qdel.errors import InvalidStateError, ShapeError
from qdel.hilbert import Ket
from qdel.machines import (
    BasisActionMachine,
    DeleterKind,
    classify_deleter,
    machine_from_json,
    machine_to_json,
    swap_deleter,
)

# derandomized, so that every run draws the same examples and writes no example database
PROPERTIES = settings(max_examples=40, deadline=None, derandomize=True, database=None)

dims = st.lists(st.integers(2, 3), min_size=1, max_size=6).filter(lambda ds: math.prod(ds) <= 64)
amplitudes = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def shapes_and_matrices(draw):
    """Drawn input and output dims and a complex (output dim, input dim) matrix.

    Half the draws scale every nonzero column to unit norm, so that both
    answers of `rule_norms_ok` come up.
    """
    input_dims, output_dims = tuple(draw(dims)), tuple(draw(dims))
    size = (math.prod(output_dims), math.prod(input_dims))
    matrix = draw(arrays(complex, size, elements=amplitudes))
    if draw(st.booleans()):
        norms = np.linalg.norm(matrix, axis=0)
        matrix = matrix / np.where(norms > 0.0, norms, 1.0)
    return input_dims, output_dims, matrix


def machines():
    """Machines on drawn matrices, loaded without the norm check."""
    return shapes_and_matrices().map(lambda t: BasisActionMachine(*t, strict=False))


@PROPERTIES
@given(machines())
def test_wire_format_round_trip_is_byte_identical(machine):
    text = json.dumps(machine_to_json(machine))
    back = machine_from_json(json.loads(text), strict=False)
    assert json.dumps(machine_to_json(back)) == text
    assert back.matrix.tobytes() == machine.matrix.tobytes()


@PROPERTIES
@given(shapes_and_matrices())
def test_non_strict_construction_keeps_the_matrix_bit_for_bit(drawn):
    input_dims, output_dims, matrix = drawn
    machine = BasisActionMachine(input_dims, output_dims, matrix, strict=False)
    assert machine.matrix.tobytes() == matrix.tobytes()
    assert not machine.matrix.flags.writeable


@PROPERTIES
@given(machines(), st.sampled_from([1e-12, 1e-9, 1e-3]))
def test_rule_norms_ok_agrees_with_a_per_column_check(machine, tol):
    columns = [Ket(machine.output_dims, column) for column in machine.matrix.T]
    assert machine.rule_norms_ok() == all(column.is_normalized() for column in columns)
    assert machine.rule_norms_ok(tol) == all(abs(c.norm() ** 2 - 1.0) <= tol for c in columns)


@PROPERTIES
@given(machines(), st.sampled_from([complex(math.nan, 0.0), complex(0.0, math.inf), -math.inf]),
       st.data())
def test_non_finite_entries_are_refused_under_either_strictness(machine, bad, data):
    matrix = machine.matrix.copy()
    row = data.draw(st.integers(0, matrix.shape[0] - 1))
    col = data.draw(st.integers(0, matrix.shape[1] - 1))
    matrix[row, col] = bad
    for strict in (True, False):
        with pytest.raises(InvalidStateError, match="non-finite"):
            BasisActionMachine(machine.input_dims, machine.output_dims, matrix, strict=strict)


@PROPERTIES
@given(machines(), st.data())
def test_a_rule_of_the_wrong_length_is_a_shape_error(machine, data):
    payload = machine_to_json(machine)
    rule = data.draw(st.sampled_from(payload["rules"]))
    n = len(rule["out_amplitudes"])
    length = data.draw(st.integers(0, 2 * n).filter(lambda k: k != n))
    rule["out_amplitudes"] = (rule["out_amplitudes"] * 2 + [[0.0, 0.0]])[:length]
    with pytest.raises(ShapeError):
        machine_from_json(payload, strict=False)


def ancilla_turned_swap(d, seed):
    """swap_deleter(d) followed by a Haar-random unitary U on the ancilla, and U's generator."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    matrix = np.kron(np.eye(d * d), u) @ swap_deleter(d).matrix
    return BasisActionMachine((d, d, d), (d, d, d), matrix), rng


@PROPERTIES
@given(st.integers(2, 3), st.integers(0, 2**32 - 1), st.integers(1, 200))
def test_a_swap_followed_by_an_ancilla_unitary_is_certified_swap_like(d, seed, samples):
    machine, _ = ancilla_turned_swap(d, seed)
    verdict = classify_deleter(machine, samples, seed)
    assert verdict.kind is DeleterKind.SWAP_LIKE
    assert verdict.swap_deviation <= 1e-12 and verdict.gram_deviation <= 1e-12
    # the samples agree with the certificate
    assert max(verdict.residual_stats) <= 1e-10
    assert max(verdict.ancilla_errors) <= 1e-8


@PROPERTIES
@given(st.integers(2, 3), st.integers(0, 2**32 - 1), st.data())
def test_turning_one_off_diagonal_rule_fails_the_certificate(d, seed, data):
    """M|i j 0> moved by 1e-3 in a random direction and renormalised: some input now leaves
    a residual, and the samples see it."""
    machine, rng = ancilla_turned_swap(d, seed)
    i = data.draw(st.integers(0, d - 1))
    j = data.draw(st.integers(0, d - 1).filter(lambda j: j != i))
    column = int(np.ravel_multi_index((i, j, 0), machine.input_dims))
    kick = rng.standard_normal(d**3) + 1j * rng.standard_normal(d**3)
    turned = machine.matrix[:, column] + 1e-3 * kick / np.linalg.norm(kick)
    matrix = machine.matrix.copy()
    matrix[:, column] = turned / np.linalg.norm(turned)
    verdict = classify_deleter(BasisActionMachine(machine.input_dims, machine.output_dims, matrix),
                               200, seed)
    assert verdict.kind is DeleterKind.APPROXIMATE_DELETER
    assert max(verdict.residual_stats) > 1e-10
