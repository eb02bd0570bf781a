"""Property tests of the Hilbert layer: dims validation, basis order, linearity, partial trace."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qdel.errors import ShapeError
from qdel.hilbert import DensityMatrix, Ket, basis_ket, partial_trace
from qdel.machines import BasisActionMachine, apply

# derandomized, so that every run draws the same examples and writes no example database
PROPERTIES = settings(max_examples=40, deadline=None, derandomize=True, database=None)

dims = st.lists(st.integers(2, 4), min_size=1, max_size=6).filter(lambda ds: math.prod(ds) <= 64)
amplitudes = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
bad_dims = st.one_of(
    st.just(()),
    st.lists(st.integers(2, 4), max_size=3).flatmap(
        lambda ds: st.integers(-2, 1).flatmap(
            lambda bad: st.permutations(ds + [bad]))),  # a factor < 2 somewhere
    st.lists(st.integers(2, 4), max_size=3).flatmap(
        lambda ds: st.sampled_from([2.0, "2", [2], None]).flatmap(
            lambda bad: st.permutations(ds + [bad]))),  # a factor that is no integer
)


@PROPERTIES
@given(bad_dims)
def test_bad_dims_are_refused_by_every_constructor(bad):
    # sizes that would fit the valid factors, so only the dims can be at fault
    n = math.prod(d for d in bad if isinstance(d, int) and d >= 2)
    for build in (lambda: Ket(bad, np.zeros(n)),
                  lambda: DensityMatrix(bad, np.eye(n) / n),
                  lambda: BasisActionMachine(bad, (2,), np.eye(2, n), strict=False),
                  lambda: BasisActionMachine((2,), bad, np.eye(n, 2), strict=False)):
        with pytest.raises(ShapeError, match="dims"):
            build()


@PROPERTIES
@given(dims, st.data())
def test_basis_ket_is_row_major(ds, data):
    index = tuple(data.draw(st.integers(0, d - 1)) for d in ds)
    flat = int(np.ravel_multi_index(index, ds))
    assert flat == sum(i * math.prod(ds[k + 1:]) for k, i in enumerate(index))
    expected = np.zeros(math.prod(ds), dtype=complex)
    expected[flat] = 1.0
    for psi in (basis_ket(ds, index), basis_ket(ds, flat)):
        assert psi.dims == tuple(ds)
        np.testing.assert_array_equal(psi.amplitudes, expected)
    assert basis_ket(ds, index).amplitudes.reshape(ds)[index] == 1.0


@st.composite
def machines_and_inputs(draw):
    """A drawn (not necessarily isometric) machine with two inputs and two coefficients."""
    input_dims, output_dims = tuple(draw(dims)), tuple(draw(dims))
    n_in, n_out = math.prod(input_dims), math.prod(output_dims)
    matrix = draw(arrays(complex, (n_out, n_in), elements=amplitudes))
    x, y = (Ket(input_dims, draw(arrays(complex, n_in, elements=amplitudes))) for _ in range(2))
    return BasisActionMachine(input_dims, output_dims, matrix, strict=False), x, y


@PROPERTIES
@given(machines_and_inputs(), amplitudes, amplitudes)
def test_apply_is_linear(drawn, a, b):
    machine, x, y = drawn
    combo = Ket(x.dims, a * x.amplitudes + b * y.amplitudes)
    lhs = apply(machine, combo).amplitudes
    rhs = a * apply(machine, x).amplitudes + b * apply(machine, y).amplitudes
    scale = np.abs(machine.matrix).sum() * (abs(a) + abs(b)) * 1e3 + 1.0
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12 * scale)


@st.composite
def densities_and_keeps(draw):
    """A random mixed state on drawn dims (total <= 64) and a non-empty set of kept subsystems."""
    ds = tuple(draw(dims))
    n = math.prod(ds)
    a = draw(arrays(complex, (n, draw(st.integers(1, n))), elements=amplitudes).filter(
        lambda m: np.linalg.norm(m) > 1e-3))
    rho = a @ a.conj().T
    keep = draw(st.sets(st.integers(0, len(ds) - 1), min_size=1))
    return DensityMatrix(ds, rho / np.trace(rho).real), keep


@PROPERTIES
@given(densities_and_keeps())
def test_partial_trace_preserves_trace_and_positivity(drawn):
    rho, keep = drawn
    reduced = partial_trace(rho, keep)
    assert reduced.dims == tuple(rho.dims[k] for k in sorted(keep))
    assert abs(np.trace(reduced.entries) - 1.0) <= 1e-12
    assert np.min(np.linalg.eigvalsh(reduced.entries)) >= -1e-10
