import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from qdel.errors import InvalidStateError
from qdel.fidelity import (
    AVG_DELETION_FIDELITY,
    AVG_RETENTION_FIDELITY,
    FidelityReport,
    average_fidelity,
    conditional_output,
    fidelity_report,
    point_fidelities,
    rho_a,
    rho_ab,
    rho_b,
)
from qdel import fidelity
from qdel.fidelity import _POINT_BLOCK, _batched_fidelities, _gauss_legendre, _grid_averages
from qdel.hilbert import (
    basis_ket,
    ket,
    partial_trace,
    state_fidelity,
    tensor,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def random_qubit_amplitudes(rng):
    theta = math.acos(1.0 - 2.0 * rng.random())
    phi = 2.0 * math.pi * rng.random()
    return math.cos(theta / 2.0), math.sin(theta / 2.0) * complex(math.cos(phi), math.sin(phi))


def hand_assembled_output(alpha, beta) -> np.ndarray:
    dims = (2, 2, 3)
    return (
        alpha**2 * basis_ket(dims, (0, 0, 1)).amplitudes
        + beta**2 * basis_ket(dims, (1, 0, 2)).amplitudes
        + alpha * beta * (basis_ket(dims, (0, 1, 0)).amplitudes + basis_ket(dims, (1, 0, 0)).amplitudes)
    )


def projector(amplitudes) -> np.ndarray:
    v = np.asarray(amplitudes, dtype=complex)
    return np.outer(v, v.conj())


def whole_grid_averages(n_theta, n_phi):
    """The grid averages from the whole n_theta x n_phi grid at once: the banded path's oracle."""
    u, w = np.polynomial.legendre.leggauss(n_theta)
    phi = (np.arange(n_phi) + 0.5) * (2.0 * np.pi / n_phi)
    alpha = np.sqrt((1.0 + u) / 2.0)[:, None] * np.ones_like(phi)[None, :]
    beta = np.sqrt((1.0 - u) / 2.0)[:, None] * np.exp(1j * phi)[None, :]
    f_b, f_a = _batched_fidelities(alpha.ravel(), beta.ravel())
    return tuple(
        float(np.sum(w * np.mean(f.reshape(n_theta, n_phi), axis=1)) / 2.0) for f in (f_b, f_a)
    )


class TestConditionalOutput:
    def test_pole_state(self):
        out = conditional_output(1.0, 0.0)
        np.testing.assert_allclose(
            out.amplitudes, basis_ket([2, 2, 3], (0, 0, 1)).amplitudes, atol=1e-14
        )

    def test_balanced_state_matches_hand_assembly(self):
        out = conditional_output(INV_SQRT2, INV_SQRT2)
        np.testing.assert_allclose(
            out.amplitudes, hand_assembled_output(INV_SQRT2, INV_SQRT2), atol=1e-14
        )

    def test_machine_path_equals_hand_assembly_everywhere(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            alpha, beta = random_qubit_amplitudes(rng)
            out = conditional_output(alpha, beta)
            np.testing.assert_allclose(
                out.amplitudes, hand_assembled_output(alpha, beta), atol=1e-12
            )
            assert abs(out.norm() - 1.0) < 1e-12

    def test_unnormalized_input_rejected(self):
        with pytest.raises(InvalidStateError, match=r"state is not normalized: \|psi\|\^2 = 1\.25"):
            conditional_output(1.0, 0.5)


class TestReducedStates:
    def test_rho_ab_pole(self):
        expected = projector(tensor(basis_ket([2], 0), basis_ket([2], 0)).amplitudes)
        np.testing.assert_allclose(rho_ab(1.0, 0.0).entries, expected, atol=1e-14)

    def test_rho_ab_balanced(self):
        shape = [2, 2]
        psi_plus = ket([0.0, INV_SQRT2, INV_SQRT2, 0.0], shape)
        expected = (
            0.25 * projector(basis_ket(shape, (0, 0)).amplitudes)
            + 0.25 * projector(basis_ket(shape, (1, 0)).amplitudes)
            + 0.5 * projector(psi_plus.amplitudes)
        )
        np.testing.assert_allclose(rho_ab(INV_SQRT2, INV_SQRT2).entries, expected, atol=1e-12)

    def test_rho_b_balanced_diagonal(self):
        np.testing.assert_allclose(
            rho_b(INV_SQRT2, INV_SQRT2).entries, np.diag([0.75, 0.25]), atol=1e-12
        )

    def test_rho_a_balanced_is_maximally_mixed(self):
        np.testing.assert_allclose(rho_a(INV_SQRT2, INV_SQRT2).entries, np.eye(2) / 2, atol=1e-12)

    def test_closed_forms_emerge_from_partial_traces(self):
        rng = np.random.default_rng(3)
        eye = np.eye(2)
        blank = projector([1.0, 0.0])
        psi_plus = projector([0.0, INV_SQRT2, INV_SQRT2, 0.0])
        for _ in range(1000):
            alpha, beta = random_qubit_amplitudes(rng)
            x, y = abs(alpha) ** 2, abs(beta) ** 2
            full = rho_ab(alpha, beta)
            expected_ab = (
                x**2 * np.kron(projector([1.0, 0.0]), blank)
                + y**2 * np.kron(projector([0.0, 1.0]), blank)
                + 2.0 * x * y * psi_plus
            )
            np.testing.assert_allclose(full.entries, expected_ab, atol=1e-12)

            mode_b = rho_b(alpha, beta)
            np.testing.assert_allclose(
                mode_b.entries, (1.0 - 2.0 * x * y) * blank + x * y * eye, atol=1e-12
            )
            mode_a = rho_a(alpha, beta)
            np.testing.assert_allclose(
                mode_a.entries,
                x**2 * projector([1.0, 0.0]) + y**2 * projector([0.0, 1.0]) + x * y * eye,
                atol=1e-12,
            )

    def test_consistency_chain(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            alpha, beta = random_qubit_amplitudes(rng)
            full = rho_ab(alpha, beta)
            np.testing.assert_allclose(
                rho_b(alpha, beta).entries, partial_trace(full, {1}).entries, atol=1e-14
            )
            np.testing.assert_allclose(
                rho_a(alpha, beta).entries, partial_trace(full, {0}).entries, atol=1e-14
            )


class TestPointFidelities:
    def test_balanced_values(self):
        f_b, f_a = point_fidelities(INV_SQRT2, INV_SQRT2)
        assert f_b == pytest.approx(0.75, abs=1e-12)
        assert f_a == pytest.approx(0.5, abs=1e-12)

    def test_poles_are_perfect(self):
        assert point_fidelities(1.0, 0.0) == (1.0, 1.0)
        assert point_fidelities(0.0, 1.0) == (1.0, 1.0)

    def test_closed_forms(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            alpha, beta = random_qubit_amplitudes(rng)
            x, y = abs(alpha) ** 2, abs(beta) ** 2
            f_b, f_a = point_fidelities(alpha, beta)
            assert f_b == pytest.approx(1.0 - x * y, abs=1e-12)
            assert f_a == pytest.approx(1.0 - 2.0 * x * y, abs=1e-12)

    def test_retention_is_strictly_worse_off_the_poles(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            alpha, beta = random_qubit_amplitudes(rng)
            if abs(alpha * beta) < 1e-3:
                continue
            f_b, f_a = point_fidelities(alpha, beta)
            assert f_a < f_b

    def test_batched_matches_pointwise(self):
        # two full slices of the kernel and one point beyond them
        rng = np.random.default_rng(13)
        pairs = [random_qubit_amplitudes(rng) for _ in range(2 * _POINT_BLOCK + 1)]
        alphas, betas = (np.array(column) for column in zip(*pairs))
        f_b, f_a = _batched_fidelities(alphas, betas)
        # a point's weights do not depend on the batch or the slice it falls in
        for i, (alpha, beta) in enumerate(pairs):
            assert (f_b[i], f_a[i]) == point_fidelities(alpha, beta)
        blank = basis_ket([2], 0)
        block_ends = [k * _POINT_BLOCK + e for k in range(2) for e in (0, _POINT_BLOCK - 1)]
        # the object pipeline (apply -> density -> partial trace -> overlap) is the reference
        for i in [*range(50), *block_ends, len(pairs) - 1]:
            alpha, beta = pairs[i]
            psi = ket([alpha, beta], [2])
            assert f_b[i] == pytest.approx(state_fidelity(rho_b(alpha, beta), blank), abs=1e-12)
            assert f_a[i] == pytest.approx(state_fidelity(rho_a(alpha, beta), psi), abs=1e-12)


class TestAverageFidelity:
    def test_deletion_average(self):
        assert average_fidelity("b", 256, 256) == pytest.approx(AVG_DELETION_FIDELITY, abs=1e-14)

    def test_retention_average(self):
        assert average_fidelity("a", 256, 256) == pytest.approx(AVG_RETENTION_FIDELITY, abs=1e-14)

    def test_mode_gap_averages_to_one_sixth(self):
        gap = average_fidelity("b", 128, 128) - average_fidelity("a", 128, 128)
        assert gap == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_grid_average_memory_stays_below_4_mb(self):
        # the grid goes through the kernel in theta-row bands of one slice,
        # so only a band and the row means are held (about 2.2 MB)
        _grid_averages(512, 512)
        tracemalloc.start()
        try:
            _grid_averages(512, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    # (513, 511): n_phi does not divide the slice; (100, 4097): a row is longer than one
    @pytest.mark.parametrize("grid", [(8, 8), (9, 13), (513, 511), (100, 4097), (512, 512)])
    def test_banded_grid_is_bit_identical_to_the_whole_grid(self, grid):
        expected = whole_grid_averages(*grid)
        assert _grid_averages(*grid) == expected
        assert (average_fidelity("b", *grid), average_fidelity("a", *grid)) == expected

    def test_error_does_not_grow_as_grid_doubles(self):
        # the integrands are quadratic in cos(theta), so the quadrature is
        # exact at every grid size; deviations sit at machine epsilon and may
        # fluctuate by an ulp, hence the additive allowance
        closed = {"b": AVG_DELETION_FIDELITY, "a": AVG_RETENTION_FIDELITY}
        for mode in ("a", "b"):
            errors = [
                abs(average_fidelity(mode, g, g) - closed[mode])
                for g in (8, 16, 32, 64, 128, 256, 512)
            ]
            assert all(e < 1e-14 for e in errors)
            for prev, nxt in zip(errors, errors[1:]):
                assert nxt <= prev + 1e-14

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            average_fidelity("b", 4, 64)
        with pytest.raises(ValueError):
            average_fidelity("a", 64, 7)
        for n_theta, n_phi in ((8.5, 8), (8, 8.0), (True, 8), (8, True), (16.0, 16)):
            with pytest.raises(ValueError):
                average_fidelity("b", n_theta, n_phi)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            average_fidelity("c", 64, 64)

    def test_grid_calls_the_kernel_once_per_band(self, monkeypatch):
        """512 x 512 is 64 bands of 8 theta rows; each goes through the kernel in one call,
        its 4096 points on the last axis, so no Python loop runs per point or per row."""
        batches = []
        kernel = fidelity._copies_output

        def counted(machine, psis):
            batches.append(np.shape(psis))
            return kernel(machine, psis)

        monkeypatch.setattr(fidelity, "_copies_output", counted)
        _grid_averages(512, 512)
        assert batches == [(2, 8 * 512)] * 64

    def test_grid_work_is_pinned(self, monkeypatch):
        """One rule build per grid size, and every call sends its whole grid to the kernel."""
        _gauss_legendre.cache_clear()
        builds, points = Counter(), []
        leggauss, batched = np.polynomial.legendre.leggauss, fidelity._batched_fidelities

        def counted_leggauss(n):
            builds[n] += 1
            return leggauss(n)

        def counted_batched(alphas, betas):
            points.append(np.size(alphas))
            return batched(alphas, betas)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted_leggauss)
        monkeypatch.setattr(fidelity, "_batched_fidelities", counted_batched)
        for bad in (True, 16.0, 4):  # refused before a rule is built or cached
            with pytest.raises(ValueError):
                _grid_averages(bad, 16)
        # over the point limit: refused before a rule is built or a point is sent
        with pytest.raises(ValueError, match="51,200,000,000 points"):
            _grid_averages(512, 100_000_000)
        limit = fidelity._MAX_GRID_POINTS
        monkeypatch.setattr(fidelity, "_MAX_GRID_POINTS", 16 * 24)
        with pytest.raises(ValueError, match="16x25 has 400 points, above the limit of 384"):
            _grid_averages(16, 25)
        monkeypatch.setattr(fidelity, "_MAX_GRID_POINTS", limit)
        # over the theta-row limit: refused before its n x n rule is built
        rows = fidelity._MAX_THETA_ROWS
        monkeypatch.setattr(fidelity, "_MAX_THETA_ROWS", 16)
        with pytest.raises(ValueError, match="17x8 has 17 theta rows, above the limit of 16"):
            _grid_averages(17, 8)
        monkeypatch.setattr(fidelity, "_MAX_THETA_ROWS", rows)
        message = "grid 4097x8 has 4,097 theta rows, above the limit of 4,096$"
        with pytest.raises(ValueError, match=message):
            _grid_averages(4097, 8)
        assert _gauss_legendre.cache_info().currsize == 0 and points == [] and builds == {}
        monkeypatch.setattr(fidelity, "_MAX_GRID_POINTS", 16 * 24)
        monkeypatch.setattr(fidelity, "_MAX_THETA_ROWS", 16)
        _grid_averages(16, 24)  # both limits themselves are accepted
        monkeypatch.setattr(fidelity, "_MAX_GRID_POINTS", limit)
        monkeypatch.setattr(fidelity, "_MAX_THETA_ROWS", rows)
        for _ in range(3):
            for n_theta, n_phi in ((16, 24), (32, 8)):
                points.clear()
                _grid_averages(n_theta, n_phi)
                assert points == [n_theta * n_phi]
                points.clear()
                fidelity_report(0.3, n_theta=n_theta, n_phi=n_phi)
                assert points == [1, n_theta * n_phi]  # the point, then the grid
        # larger grids go in bands of whole theta rows, one kernel slice or one row each
        bands = {(512, 512): [_POINT_BLOCK] * 64, (100, 4097): [4097] * 100}
        for (n_theta, n_phi), expected in bands.items():
            points.clear()
            _grid_averages(n_theta, n_phi)
            assert points == expected and sum(points) == n_theta * n_phi
        assert builds == {16: 1, 32: 1, 512: 1, 100: 1}

    def test_cached_rule_is_numpy_rule_read_only(self):
        _gauss_legendre.cache_clear()
        for n in (8, 64, 512):
            cold = _grid_averages(n, n)
            nodes, weights = _gauss_legendre(n)
            fresh_nodes, fresh_weights = np.polynomial.legendre.leggauss(n)
            assert nodes.tobytes() == fresh_nodes.tobytes()
            assert weights.tobytes() == fresh_weights.tobytes()
            for array in (nodes, weights):
                with pytest.raises(ValueError):
                    array[0] = 0.0
            assert _grid_averages(n, n) == cold


class TestFidelityReport:
    def test_balanced_report(self):
        report = fidelity_report(0.5, n_theta=64, n_phi=64)
        assert report.f_b == pytest.approx(0.75, abs=1e-12)
        assert report.f_a == pytest.approx(0.5, abs=1e-12)
        assert report.quadrature_error < 1e-9

    def test_report_names_its_grid(self):
        report = fidelity_report(0.3, n_theta=16, n_phi=np.int64(24))
        assert (report.n_theta, report.n_phi) == (16, 24)
        assert type(report.n_phi) is int

    def test_invariants_enforced(self):
        with pytest.raises(InvalidStateError):
            FidelityReport(
                alpha_sq=0.5, f_b=0.9, f_a=0.5, avg_f_b=5 / 6, avg_f_a=2 / 3,
                quadrature_error=0.0, n_theta=8, n_phi=8,
            )

    def test_bad_alpha_sq_rejected(self):
        with pytest.raises(ValueError):
            fidelity_report(1.5)
