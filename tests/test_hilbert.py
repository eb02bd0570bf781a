import json
import math

import numpy as np
import pytest

from qdel.errors import InvalidStateError, ShapeError
from qdel.hilbert import (
    DensityMatrix,
    Ket,
    basis_ket,
    bloch_ket,
    density_of,
    density_to_json,
    haar_ket,
    haar_qubit,
    inner,
    ket,
    partial_trace,
    state_fidelity,
    tensor,
    trace_distance,
)
from qdel.hilbert import _haar_amplitudes, _require_densities, complex_pair

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def plus() -> Ket:
    return ket([INV_SQRT2, INV_SQRT2], [2])


def random_density(rng, dims) -> DensityMatrix:
    d = math.prod(dims)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mat = a @ a.conj().T
    return DensityMatrix(dims, mat / np.trace(mat))


class TestSpaceShape:
    @pytest.mark.parametrize("dims", [(), (1,), (2, 1)])
    def test_rejects_bad_dims(self, dims):
        with pytest.raises(ShapeError):
            Ket(dims, np.zeros(math.prod(dims)))

    def test_flat_index_is_row_major(self):
        for multi, flat in [((0, 0, 0), 0), ((0, 1, 2), 5), ((1, 0, 2), 8), ((1, 1, 2), 11)]:
            assert basis_ket((2, 2, 3), multi).amplitudes[flat] == 1.0


class TestKet:
    def test_dims_become_a_tuple_of_ints(self):
        psi = Ket(np.array([2, 3, 4]), np.zeros(24))
        assert psi.dims == (2, 3, 4) and all(type(d) is int for d in psi.dims)
        assert psi.amplitudes.size == 24

    def test_length_must_match_shape(self):
        with pytest.raises(ShapeError):
            ket([1, 0, 0], [2])

    @pytest.mark.parametrize("index", [2, -1, np.int64(2)])
    def test_flat_basis_index_outside_the_space_rejected(self, index):
        with pytest.raises(ValueError, match=f"basis index {index} out of range for dimension 2"):
            basis_ket([2], index)

    def test_amplitudes_read_only(self):
        psi = basis_ket([2], 0)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 2.0

    def test_normalized_flag(self):
        assert basis_ket([2], 0).is_normalized()
        assert not ket([1, 1], [2]).is_normalized()
        with pytest.raises(InvalidStateError):
            ket([1, 1], [2]).require_normalized()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("imag", [False, True], ids=["real", "imag"])
    def test_a_non_finite_amplitude_is_refused_at_construction(self, imag, bad):
        amplitude = complex(0.6, bad) if imag else complex(bad, 0.0)
        with pytest.raises(InvalidStateError, match="^ket has a non-finite amplitude$"):
            Ket((2,), [amplitude, 0.8])


class TestTensor:
    def test_basis_product(self):
        out = tensor(basis_ket([2], 0), basis_ket([2], 0))
        assert out.dims == (2, 2)
        np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0])

    def test_plus_times_one(self):
        out = tensor(plus(), basis_ket([2], 1))
        np.testing.assert_allclose(out.amplitudes, [0, INV_SQRT2, 0, INV_SQRT2], atol=1e-15)

    def test_three_haar_qubits_normalized(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            out = tensor(haar_qubit(rng), haar_qubit(rng), haar_qubit(rng))
            assert abs(out.norm() - 1.0) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tensor()

    def test_bilinearity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            psi1, psi2, phi = haar_qubit(rng), haar_qubit(rng), haar_ket(3, rng)
            a = rng.standard_normal() + 1j * rng.standard_normal()
            b = rng.standard_normal() + 1j * rng.standard_normal()
            scale = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
            a, b = a / scale, b / scale
            combo = ket(a * psi1.amplitudes + b * psi2.amplitudes, [2])
            lhs = tensor(combo, phi).amplitudes
            rhs = a * tensor(psi1, phi).amplitudes + b * tensor(psi2, phi).amplitudes
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestHaarSampling:
    @staticmethod
    def one_at_a_time(dim, count, rng):
        """Reference: one state per draw, a normalized complex Gaussian in every dimension."""
        rows = []
        for _ in range(count):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            rows.append(v / np.linalg.norm(v))
        return np.array(rows, dtype=complex).reshape(count, dim)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("count", [1, 7, 200, 2000])
    def test_one_call_draws_what_single_draws_draw(self, dim, count):
        batched_rng, single_rng = np.random.default_rng(count), np.random.default_rng(count)
        batched = _haar_amplitudes(dim, count, batched_rng)
        assert batched.tobytes() == self.one_at_a_time(dim, count, single_rng).tobytes()
        assert batched_rng.random() == single_rng.random()  # the stream is left in step

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_haar_ket_is_one_row(self, dim):
        batched = _haar_amplitudes(dim, 3, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        rows = [haar_ket(dim, rng) for _ in range(3)]
        assert all(psi.dims == (dim,) and psi.is_normalized() for psi in rows)
        assert np.stack([psi.amplitudes for psi in rows]).tobytes() == batched.tobytes()
        if dim == 2:
            assert haar_qubit(np.random.default_rng(4)).amplitudes.tobytes() == batched[0].tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_moments_are_haar(self, dim):
        # Haar: |psi_0|^2 is Beta(1, d - 1), with mean 1/d and second moment 2/(d(d+1))
        weights = np.abs(_haar_amplitudes(dim, 20000, np.random.default_rng(0))[:, 0]) ** 2
        assert abs(np.mean(weights) - 1 / dim) <= 0.01
        assert abs(np.mean(weights**2) - 2 / (dim * (dim + 1))) <= 0.01


class TestInner:
    def test_orthogonal_basis_states(self):
        assert inner(basis_ket([2], 0), basis_ket([2], 1)) == 0

    def test_self_overlap_of_normalized_state(self):
        rng = np.random.default_rng(3)
        psi = haar_ket(5, rng)
        assert inner(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_plus_zero_overlap(self):
        assert inner(plus(), basis_ket([2], 0)) == pytest.approx(INV_SQRT2, abs=1e-15)

    def test_conjugate_linear_in_first_argument(self):
        rng = np.random.default_rng(5)
        a, b = haar_ket(4, rng), haar_ket(4, rng)
        c = 0.3 + 0.4j
        scaled = ket(c * a.amplitudes, [4])
        assert inner(scaled, b) == pytest.approx(np.conj(c) * inner(a, b), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            inner(basis_ket([2], 0), basis_ket([3], 0))


class TestDensityOf:
    def test_basis_state(self):
        rho = density_of(basis_ket([2], 0))
        np.testing.assert_allclose(rho.entries, [[1, 0], [0, 0]])

    def test_plus_state(self):
        rho = density_of(plus())
        np.testing.assert_allclose(rho.entries, np.full((2, 2), 0.5), atol=1e-15)

    def test_idempotent_for_random_pure_states(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            rho = density_of(haar_ket(4, rng))
            np.testing.assert_allclose(rho.entries @ rho.entries, rho.entries, atol=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(InvalidStateError):
            density_of(ket([1, 1], [2]))


class TestPartialTrace:
    def test_product_state(self):
        rho = density_of(tensor(basis_ket([2], 0), basis_ket([2], 0)))
        reduced = partial_trace(rho, keep={0})
        np.testing.assert_allclose(reduced.entries, [[1, 0], [0, 0]])

    def test_maximally_entangled_reduces_to_identity(self):
        psi_plus = ket([0, INV_SQRT2, INV_SQRT2, 0], [2, 2])
        reduced = partial_trace(density_of(psi_plus), keep={0})
        np.testing.assert_allclose(reduced.entries, np.eye(2) / 2, atol=1e-15)

    def test_trace_preserved_on_every_reduction(self):
        rng = np.random.default_rng(17)
        rho = random_density(rng, (2, 3, 2))
        for keep in ({0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}):
            reduced = partial_trace(rho, keep)
            assert complex(np.trace(reduced.entries)).real == pytest.approx(1.0, abs=1e-12)

    def test_kept_subsystems_stay_in_order(self):
        rng = np.random.default_rng(19)
        a, b, c = haar_ket(2, rng), haar_ket(3, rng), haar_ket(2, rng)
        rho = density_of(tensor(a, b, c))
        reduced = partial_trace(rho, keep={0, 1})
        expected = density_of(tensor(a, b))
        np.testing.assert_allclose(reduced.entries, expected.entries, atol=1e-12)

    @pytest.mark.parametrize("keep", [{2}, {0, 2}, {-1}])
    def test_keep_outside_the_subsystems_rejected(self, keep):
        rho = density_of(basis_ket([2, 2], 0))
        with pytest.raises(ValueError, match=r"keep indices \[.*\] out of range for 2 subsystems"):
            partial_trace(rho, keep=keep)

    def test_empty_keep_rejected(self):
        rho = density_of(basis_ket([2, 2], 0))
        with pytest.raises(ValueError):
            partial_trace(rho, keep=set())

    @pytest.mark.parametrize("keep", [{0.7}, {1.0}, {"0"}, [0, 0.5]])
    def test_non_integer_keep_rejected(self, keep):
        rho = density_of(basis_ket([2, 2], 0))
        with pytest.raises(ValueError, match="subsystem indices"):
            partial_trace(rho, keep=keep)

    def test_numpy_integer_keep_accepted(self):
        rho = density_of(basis_ket([2, 2], 1))
        reduced = partial_trace(rho, keep=[np.int64(1)])
        np.testing.assert_allclose(reduced.entries, [[0, 0], [0, 1]])

    def test_the_eigenvalue_slack_adds_up_over_the_traced_dimension(self):
        # each eigenvalue -0.9e-10 is within EIGEN_TOL, but tracing out subsystem 1 sums two
        # of them into the reduced eigenvalue -1.8e-10, which the full check refuses
        eps = 0.9e-10
        rho = DensityMatrix((2, 2), np.diag([-eps, -eps, 0.5 + eps, 0.5 + eps]))
        with pytest.raises(InvalidStateError, match="negative eigenvalue -1.800e-10"):
            partial_trace(rho, keep={0})
        np.testing.assert_allclose(partial_trace(rho, keep={1}).entries, np.eye(2) / 2,
                                   rtol=0, atol=1e-16)


class TestTraceDistance:
    def test_identical_states(self):
        rng = np.random.default_rng(23)
        rho = random_density(rng, (2, 2))
        assert trace_distance(rho, rho) == 0

    def test_orthogonal_pure_states(self):
        d = trace_distance(density_of(basis_ket([2], 0)), density_of(basis_ket([2], 1)))
        assert d == pytest.approx(1.0, abs=1e-15)

    def test_zero_versus_plus(self):
        # independent oracle: eigenvalues of the 2x2 difference by hand
        diff = np.array([[0.5, -0.5], [-0.5, -0.5]])
        tr, det = np.trace(diff), np.linalg.det(diff)
        lam = np.roots([1.0, -tr, det])
        expected = 0.5 * np.sum(np.abs(lam))
        got = trace_distance(density_of(basis_ket([2], 0)), density_of(plus()))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            r1, r2, r3 = (random_density(rng, (2, 2)) for _ in range(3))
            assert trace_distance(r1, r2) == pytest.approx(trace_distance(r2, r1), abs=1e-12)
            assert trace_distance(r1, r3) <= trace_distance(r1, r2) + trace_distance(r2, r3) + 1e-10

    def test_shape_mismatch(self):
        rng = np.random.default_rng(31)
        with pytest.raises(ShapeError):
            trace_distance(random_density(rng, (2,)), random_density(rng, (3,)))


class TestStateFidelity:
    def test_pure_state_with_itself(self):
        assert state_fidelity(density_of(basis_ket([2], 0)), basis_ket([2], 0)) == 1.0

    def test_maximally_mixed(self):
        rng = np.random.default_rng(37)
        mixed = DensityMatrix((2,), np.eye(2) / 2)
        for _ in range(10):
            assert state_fidelity(mixed, haar_qubit(rng)) == pytest.approx(0.5, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            rho = random_density(rng, (2, 2))
            f = state_fidelity(rho, ket(haar_ket(4, rng).amplitudes, [2, 2]))
            assert 0.0 <= f <= 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            state_fidelity(density_of(basis_ket([2], 0)), basis_ket([3], 0))

    def test_eigenvalue_slack_is_clipped_into_the_unit_interval(self):
        # an eigenvalue of -1e-11 is within EIGEN_TOL, so the state is accepted, and the
        # quadratic forms along its eigenvectors are 1 + 1e-11 and -1e-11 before the clip
        rho = DensityMatrix((2,), np.diag([1.0 + 1e-11, -1e-11]))
        assert state_fidelity(rho, basis_ket([2], 0)) == 1.0
        assert state_fidelity(rho, basis_ket([2], 1)) == 0.0

    @pytest.mark.parametrize("amplitudes", [[2.0, 0.0], [0.5, 0.0]])
    def test_unnormalized_target_is_refused(self, amplitudes):
        # <psi|rho|psi> is 4.0 and 0.25 here, neither of them a fidelity
        with pytest.raises(InvalidStateError, match="not normalized"):
            state_fidelity(density_of(basis_ket([2], 0)), Ket((2,), amplitudes))


class TestBlochKet:
    def test_north_pole(self):
        np.testing.assert_allclose(bloch_ket(0.0, 2.3).amplitudes, [1, 0], atol=1e-15)

    def test_south_pole_up_to_global_phase(self):
        psi = bloch_ket(math.pi, 0.0)
        assert abs(inner(psi, basis_ket([2], 1))) == pytest.approx(1.0, abs=1e-12)

    def test_equator(self):
        np.testing.assert_allclose(bloch_ket(math.pi / 2).amplitudes, plus().amplitudes, atol=1e-15)

    def test_always_normalized(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            assert bloch_ket(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)).is_normalized()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("slot", ["theta", "phi"])
    def test_a_non_finite_angle_is_refused_by_name(self, slot, bad):
        angles = {"theta": 0.3, "phi": 0.4, slot: bad}
        with pytest.raises(ValueError, match=f"^angle must be finite, got {bad!r}$") as info:
            bloch_ket(**angles)
        assert type(info.value) is ValueError


class TestDensityMatrixInvariants:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix((2,), np.array([[0.5, 1e-6], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix((2,), np.eye(2))

    def test_rejects_negative_eigenvalues(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix((2,), np.diag([1.5, -0.5]))

    def test_rejects_wrong_side(self):
        with pytest.raises(ShapeError):
            DensityMatrix((2, 2), np.eye(2) / 2)

    def test_rejects_nan(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix((2,), np.full((2, 2), np.nan))


class TestEigenTolEdge:
    """EIGEN_TOL (1e-10) at its edge: an eigenvalue of -1e-8 is refused, one of -1e-11 is not."""

    @staticmethod
    def state(lowest: float) -> np.ndarray:
        """A 4x4 unit-trace Hermitian matrix with eigenvalues 0.5, 0.3, 0.2 - lowest and lowest."""
        rng = np.random.default_rng(59)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        rho = q @ np.diag([0.5, 0.3, 0.2 - lowest, lowest]) @ q.conj().T
        return (rho + rho.conj().T) / 2

    def test_refused_just_beyond(self):
        with pytest.raises(InvalidStateError, match="negative eigenvalue"):
            DensityMatrix((2, 2), self.state(-1e-8))
        with pytest.raises(InvalidStateError, match="negative eigenvalue"):
            _require_densities(np.stack([self.state(-1e-11), self.state(-1e-8)]))

    def test_accepted_just_within(self):
        DensityMatrix((2, 2), self.state(-1e-11))
        _require_densities(np.stack([self.state(-1e-11), self.state(0.0)]))


class TestTraceTolEdge:
    """The trace tolerance (ALGEBRAIC_TOL, 1e-12) at its edge: a Hermitian positive matrix of
    trace 1 + 1e-9 is refused, one of trace 1 + 1e-13 is not."""

    @staticmethod
    def state(excess: float) -> np.ndarray:
        """A 2x2 Hermitian matrix with eigenvalues 0.6 + excess and 0.4, in a complex basis."""
        rng = np.random.default_rng(83)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        rho = q @ np.diag([0.6 + excess, 0.4]) @ q.conj().T
        return (rho + rho.conj().T) / 2

    def test_refused_just_beyond(self):
        with pytest.raises(InvalidStateError, match="trace differs from 1 by 1.000e-09"):
            DensityMatrix((2,), self.state(1e-9))

    def test_accepted_just_within(self):
        rho = DensityMatrix((2,), self.state(1e-13))
        assert abs(np.trace(rho.entries) - 1.0) == pytest.approx(1e-13, rel=0.01)


class TestJsonRoundTrip:
    def test_density(self):
        # the wire format is row-major [re, im] pairs; decoding it is a view
        rng = np.random.default_rng(53)
        rho = random_density(rng, (2, 2))
        payload = json.loads(json.dumps(density_to_json(rho)))
        back = DensityMatrix(payload["dims"], np.array(payload["entries"]).view(complex)[..., 0])
        assert back.dims == rho.dims
        np.testing.assert_array_equal(back.entries, rho.entries)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_entries_are_the_complex_pairs_of_each_element(self, order):
        rng = np.random.default_rng(61)
        entries = random_density(rng, (2, 3)).entries.copy(order=order)
        entries[0, 0] = complex(entries[0, 0].real, -0.0)  # a negative zero is kept
        rho = DensityMatrix((2, 3), entries)  # keeps a column-major caller's layout
        pairs = [[complex_pair(z) for z in row] for row in rho.entries]
        assert density_to_json(rho)["entries"] == pairs
        assert json.dumps(density_to_json(rho)) == json.dumps({"dims": [2, 3], "entries": pairs})
