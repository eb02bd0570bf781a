"""Property tests of the machine layer: construction, norm checks, the wire format and the
classifier's pairwise scan."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qdel.errors import InvalidStateError, ShapeError
from qdel.hilbert import Ket, _half_trace_norms
from qdel.machines import (
    _BOUND_MARGIN,
    BasisActionMachine,
    _half_trace_norm_bounds,
    _max_pairwise_distance,
    machine_from_json,
    machine_to_json,
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


def row_scan(rho):
    """Reference: the all-pairs scan, one stacked eigensolve per row."""
    row_max = [np.max(_half_trace_norms(rho[i + 1 :] - rho[i])) for i in range(len(rho) - 1)]
    return float(np.max(row_max, initial=0.0))


def density_stack(seed, count, m, rank):
    """`count` random m x m density matrices of the given rank, normalized by their trace."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, m, rank)) + 1j * rng.standard_normal((count, m, rank))
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


# up to 200 states, so that the candidate pairs can fill several _PAIR_BLOCK chunks
stacks = st.integers(2, 5).flatmap(
    lambda m: st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 200), st.just(m),
                        st.integers(1, m)))


@PROPERTIES
@given(stacks)
def test_pairwise_scan_equals_the_all_pairs_eigensolve(drawn):
    rho = density_stack(*drawn)
    assert _max_pairwise_distance(rho) == row_scan(rho)


@PROPERTIES
@given(stacks, st.data())
def test_pairwise_scan_is_exact_on_duplicated_rows(drawn, data):
    rho = density_stack(*drawn)
    picks = data.draw(st.lists(st.integers(0, len(rho) - 1), min_size=1, max_size=40))
    rho = rho[picks]
    assert _max_pairwise_distance(rho) == row_scan(rho)


@PROPERTIES
@given(st.integers(2, 5), st.integers(0, 2**32 - 1), st.integers(2, 200),
       st.sampled_from([1e-8, 3e-8, 1e-7]))
def test_pairwise_scan_is_exact_on_near_equal_states(m, seed, count, spread):
    """Differences of about `spread`, where the Gram expansion n_i + n_j - 2 <x_i, x_j>
    cancels all but the last few digits."""
    base, spreads = density_stack(seed, 1, m, m), density_stack(seed + 1, count, m, m)
    rho = (1.0 - spread) * base + spread * spreads
    assert _max_pairwise_distance(rho) == row_scan(rho)


@PROPERTIES
@given(st.integers(0, 2**32 - 1), st.integers(100, 200))
def test_pairwise_scan_is_exact_on_pure_three_level_states(seed, count):
    """Rank-1 m = 3 stacks, as swap_deleter(3) gives: the Frobenius sandwich is loose there
    and keeps thousands of candidate pairs."""
    rho = density_stack(seed, count, 3, 1)
    assert _max_pairwise_distance(rho) == row_scan(rho)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("count", [1, 2, 40])
def test_pairwise_scan_of_equal_states_is_zero(m, count):
    rho = np.repeat(density_stack(9, 1, m, m), count, axis=0)
    assert _max_pairwise_distance(rho) == row_scan(rho) == 0.0


@PROPERTIES
@given(st.integers(2, 4), st.integers(0, 2**32 - 1), st.integers(2, 40), st.booleans())
def test_pairwise_scan_is_exact_when_orthogonal_states_tie(m, seed, count, rotate):
    """Projectors onto the basis, or onto the columns of a random unitary: every
    unequal pair is at distance 1."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    columns = (u if rotate else np.eye(m, dtype=complex)).T[np.arange(count) % m]
    rho = np.einsum("na,nb->nab", columns, columns.conj())
    assert _max_pairwise_distance(rho) == row_scan(rho)
    assert abs(row_scan(rho) - 1.0) <= 1e-12


def assert_bounds_are_exact(diffs):
    """Unwidened, both bounds are the eigvalsh half trace norm to rounding (m = 2 and 3)."""
    low, high = _half_trace_norm_bounds(diffs)
    exact = _half_trace_norms(diffs)
    assert np.max(np.abs(low + _BOUND_MARGIN - exact)) <= 1e-14
    assert np.max(np.abs(high - _BOUND_MARGIN - exact)) <= 1e-14


@PROPERTIES
@given(st.integers(2, 3), st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 3))
def test_bounds_are_exact_on_density_differences(m, seed, count, rank):
    rho = density_stack(seed, 2 * count, m, min(rank, m))
    assert_bounds_are_exact(rho[count:] - rho[:count])


@PROPERTIES
@given(st.integers(0, 2**32 - 1), st.floats(1e-6, 0.5), st.integers(1, 16), st.sampled_from([1, -1]))
def test_three_level_bound_is_exact_near_a_double_eigenvalue(seed, a, digits, sign):
    """Spectra near sign * (2a, -a, -a), where the cubic branch's arccos argument tends to 1."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    e1, e2 = a * 10.0**-digits * rng.standard_normal((2, 20))
    spectra = sign * np.stack([2 * a + e1, -a + e2, -a - e1 - e2], axis=1)
    assert_bounds_are_exact((u * spectra[:, None, :]) @ u.conj().T)
