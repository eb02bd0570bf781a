import functools
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qdel.errors import InvalidStateError, ShapeError
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
    Ket,
    basis_ket,
    density_of,
    haar_ket,
    ket,
    partial_trace,
    state_fidelity,
    tensor,
)
from qdel.machines import (
    BLANK_INDEX,
    BasisActionMachine,
    _copies_output,
    _fidelity_operators,
    apply,
    conditional_deleter,
)
from two_copy_reference import norms_sq, weights

INV_SQRT2 = 1.0 / math.sqrt(2.0)
EPS = np.finfo(float).eps


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
    """The grid averages from the whole n_theta x n_phi grid as one band of the row kernel: the
    banded path's oracle (the rule is the grid's own; the banding is what is checked)."""
    u, w = _gauss_legendre(n_theta)
    f_b, f_a = fidelity._grid_rows(fidelity._PHASE_FORMS, u, fidelity._phase_table(n_phi))
    return tuple(float(np.sum(w * np.mean(f, axis=1)) / 2.0) for f in (f_b, f_a))


def grid_psis(u, n_phi):
    """(2, len(u) n_phi): the grid's points alpha|0> + beta|1> on the theta rows of nodes u,
    row by row, built point by point as the row kernel never builds them."""
    phi = (np.arange(n_phi) + 0.5) * (2.0 * np.pi / n_phi)
    alpha = np.sqrt((1.0 + u) / 2.0)[:, None] * np.ones_like(phi)[None, :]
    beta = np.sqrt((1.0 - u) / 2.0)[:, None] * np.exp(1j * phi)[None, :]
    return np.stack([alpha.ravel(), beta.ravel()]).astype(complex)


def point_route_averages(n_theta, n_phi):
    """The grid averages with every point of the whole grid sent through `_batched_fidelities`,
    the grid's route before the row kernel (with the grid's own rule)."""
    u, w = _gauss_legendre(n_theta)
    f_b, f_a = _batched_fidelities(*grid_psis(u, n_phi))
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
        # the grid goes through the row kernel in theta-row bands of one slice,
        # so only a band and the row means are held (about 0.64 MB)
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

    @pytest.mark.parametrize("grid", [(8, 8), (9, 13), (513, 511), (100, 4097), (512, 512)])
    def test_averages_match_the_point_route_within_a_few_eps(self, grid):
        # the row kernel multiplies each point's phases in at the end; the point route forms
        # q and v from the phased amplitudes, so the two round apart in the last bits
        np.testing.assert_allclose(
            _grid_averages(*grid), point_route_averages(*grid), rtol=0, atol=4 * EPS
        )

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
        """512 x 512 is 64 bands of 8 theta rows; each goes through the row kernel in one call,
        its 8 x 512 points in one matmul, so no Python loop runs per point or per row, and no
        point goes through the point route."""
        bands, points = [], []
        kernel, operator_route = fidelity._grid_rows, fidelity._operator_fidelities

        def counted(forms, u, table):
            bands.append((forms is fidelity._PHASE_FORMS, len(u), np.shape(table)))
            return kernel(forms, u, table)

        def counted_points(operators, psis):
            points.append(np.shape(psis))
            return operator_route(operators, psis)

        monkeypatch.setattr(fidelity, "_grid_rows", counted)
        monkeypatch.setattr(fidelity, "_operator_fidelities", counted_points)
        _grid_averages(512, 512)
        assert bands == [(True, 8, (4, 512))] * 64 and points == []

    def test_grid_work_is_pinned(self, monkeypatch):
        """One rule build per grid size, every call sends its whole grid to the row kernel, and
        a report sends its one point through the point route."""
        builds, points, rows = Counter(), [], []
        batched, kernel = fidelity._batched_fidelities, fidelity._grid_rows

        @functools.lru_cache(maxsize=8)  # a fresh cache like the grid's, around its builder
        def counted_rule(n):
            builds[n] += 1
            return _gauss_legendre.__wrapped__(n)

        def counted_batched(alphas, betas):
            points.append(np.size(alphas))
            return batched(alphas, betas)

        def counted_rows(forms, u, table):
            rows.append(len(u))
            return kernel(forms, u, table)

        monkeypatch.setattr(fidelity, "_gauss_legendre", counted_rule)
        monkeypatch.setattr(fidelity, "_batched_fidelities", counted_batched)
        monkeypatch.setattr(fidelity, "_grid_rows", counted_rows)
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
        # over the theta-row limit: refused before its rule is built
        rows_limit = fidelity._MAX_THETA_ROWS
        monkeypatch.setattr(fidelity, "_MAX_THETA_ROWS", 16)
        with pytest.raises(ValueError, match="17x8 has 17 theta rows, above the limit of 16"):
            _grid_averages(17, 8)
        monkeypatch.setattr(fidelity, "_MAX_THETA_ROWS", rows_limit)
        message = "grid 4097x8 has 4,097 theta rows, above the limit of 4,096$"
        with pytest.raises(ValueError, match=message):
            _grid_averages(4097, 8)
        assert counted_rule.cache_info().currsize == 0
        assert points == [] and rows == [] and builds == {}
        monkeypatch.setattr(fidelity, "_MAX_GRID_POINTS", 16 * 24)
        monkeypatch.setattr(fidelity, "_MAX_THETA_ROWS", 16)
        _grid_averages(16, 24)  # both limits themselves are accepted
        monkeypatch.setattr(fidelity, "_MAX_GRID_POINTS", limit)
        monkeypatch.setattr(fidelity, "_MAX_THETA_ROWS", rows_limit)
        for _ in range(3):
            for n_theta, n_phi in ((16, 24), (32, 8)):
                points.clear()
                rows.clear()
                _grid_averages(n_theta, n_phi)
                assert points == [] and rows == [n_theta]
                points.clear()
                rows.clear()
                fidelity_report(0.3, n_theta=n_theta, n_phi=n_phi)
                assert points == [1] and rows == [n_theta]  # the point, and the grid in one band
        # larger grids go in bands of whole theta rows, one kernel slice or one row each
        bands = {(512, 512): [_POINT_BLOCK // 512] * 64, (100, 4097): [1] * 100}
        for (n_theta, n_phi), expected in bands.items():
            points.clear()
            rows.clear()
            _grid_averages(n_theta, n_phi)
            assert points == [] and rows == expected and sum(rows) == n_theta
        assert builds == {16: 1, 32: 1, 512: 1, 100: 1}


class TestGaussLegendre:
    """The grid's rule, Newton's method on the Legendre recurrence, held to a 40-digit
    reference and to numpy's eigenproblem rule."""

    @staticmethod
    def reference(mp, n, x0):
        """(node, weight): the node of P_n next to x0 and its weight, at mpmath's precision."""

        def legendre(x):
            p0, p1 = mp.mpf(1), x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            return p1, n * (x * p1 - p0) / (x * x - 1)

        x = mp.mpf(x0)
        for _ in range(4):  # from a double, Newton passes 40 digits in three steps
            p, dp = legendre(x)
            x -= p / dp
        _, dp = legendre(x)
        return x, 2 / ((1 - x * x) * dp * dp)

    @pytest.mark.parametrize("n", [8, 9, 64, 512, 513, 2048])
    def test_rule_matches_a_40_digit_reference(self, n):
        """At the end, quarter and middle nodes, each node is within 1.2e-16 of a 40-digit
        reference and each weight at least as close to it as numpy's. The nodes are exactly
        antisymmetric (so odd n has an exact 0 node), the weights exactly symmetric; the rule is
        read-only and cached."""
        mp = pytest.importorskip("mpmath")
        _gauss_legendre.cache_clear()
        nodes, weights = _gauss_legendre(n)
        numpy_nodes, numpy_weights = np.polynomial.legendre.leggauss(n)
        with mp.workdps(40):
            for i in (0, n // 4, n // 2):
                node, weight = self.reference(mp, n, numpy_nodes[i])
                assert abs(nodes[i] - node) <= 1.2e-16
                assert abs(weights[i] - weight) <= abs(numpy_weights[i] - weight)
        assert nodes.shape == weights.shape == (n,) and np.all(np.diff(nodes) > 0)
        assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
        assert abs(np.sum(weights) - 2.0) <= 1e-14
        for array in (nodes, weights):
            with pytest.raises(ValueError):
                array[0] = 0.0
        again = _gauss_legendre(n)
        assert again[0] is nodes and again[1] is weights
        assert _gauss_legendre.cache_info()[:2] == (1, 1)  # hits, misses

    def test_a_grid_average_never_imports_numpy_polynomial(self):
        code = (
            "import sys; from qdel.fidelity import _grid_averages; _grid_averages(512, 512);"
            " print('numpy.polynomial' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(fidelity.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")

    def test_the_rule_at_the_row_limit_peaks_under_1_mb(self):
        # numpy's eigenproblem route holds a 4096 x 4096 matrix, 134 MB
        tracemalloc.start()
        try:
            nodes, _ = _gauss_legendre.__wrapped__(fidelity._MAX_THETA_ROWS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(nodes) == 4096 and peak < 1_000_000


def random_complex_machine(dims, rng):
    """A machine on `dims` whose matrix is the Q of a complex Gaussian's QR, not checked."""
    n = math.prod(dims)
    gauss = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return BasisActionMachine(dims, dims, np.linalg.qr(gauss)[0], strict=False)


class TestOperatorRoute:
    """F_b and F_a from a machine's two precontracted operators, the kernel of points and
    sweeps and the row kernel's reference, held to the weight table and to the object route."""

    @pytest.mark.parametrize("dims", [[2, 2, 3], [3, 3, 3], [2, 2, 2], [3, 3]])
    def test_random_machines_match_the_weight_table_and_the_object_route(self, dims):
        rng = np.random.default_rng(67)
        machine = random_complex_machine(dims, rng)
        d = dims[0]
        psis = [haar_ket(d, rng) for _ in range(8)]
        amps = np.stack([psi.amplitudes for psi in psis], axis=1)
        f_b, f_a = fidelity._operator_fidelities(_fidelity_operators(machine), amps)
        (_, blank), (kept, _) = weights(_copies_output(machine, amps), amps)
        np.testing.assert_allclose(f_b, norms_sq(blank), rtol=0, atol=4 * EPS)
        np.testing.assert_allclose(f_a, norms_sq(kept), rtol=0, atol=4 * EPS)
        ancilla = [basis_ket(dims[2:], 0)] if len(dims) == 3 else []
        blank_ket = basis_ket([d], 0)
        for k, psi in enumerate(psis):
            out = apply(machine, tensor(psi, psi, *ancilla))
            norm_sq = out.norm() ** 2
            rho = density_of(Ket(out.dims, out.amplitudes / out.norm()))
            expected = norm_sq * np.array([
                state_fidelity(partial_trace(rho, keep={1}), blank_ket),
                state_fidelity(partial_trace(rho, keep={0}), psi),
            ])
            np.testing.assert_allclose([f_b[k], f_a[k]], expected, rtol=0, atol=4 * EPS)

    def test_the_conditional_deleter_matches_the_weight_table_bit_for_bit(self):
        # its matrix is 0/1, so each operator row copies one product of the amplitudes; with
        # alpha real, as on every path of this module, psi_0 psi_1 and psi_1 psi_0 round alike
        rng = np.random.default_rng(71)
        amps = np.stack([rng.random(64), rng.standard_normal(64) + 1j * rng.standard_normal(64)])
        machine = conditional_deleter()
        (_, blank), (kept, _) = weights(_copies_output(machine, amps), amps)
        f_b, f_a = fidelity._operator_fidelities(fidelity._OPERATORS, amps)
        assert np.array_equal(f_b, norms_sq(blank)) and np.array_equal(f_a, norms_sq(kept))

    def test_rows_zero_for_every_input_are_left_out(self):
        # the conditional deleter's output has 4 of 12 amplitudes: 3 of <blank|_b out's 6 rows
        # and 4 of <psi|_a out's 6 can be nonzero
        blank_op, kept_op = fidelity._OPERATORS
        assert blank_op.shape == (3, 3) and kept_op.shape == (4, 6)

    @pytest.mark.parametrize("output_dims", [(4,), (3, 2), (2,)])
    def test_an_output_without_a_copy_and_a_blank_slot_is_refused_as_the_table_refuses_it(
        self, output_dims
    ):
        matrix = np.eye(math.prod(output_dims))[:, [0, 1, 1, 0]]
        machine = BasisActionMachine((2, 2), output_dims, matrix)
        amps = np.array([[1.0], [0.0]], dtype=complex)
        with pytest.raises(ShapeError) as by_table:
            weights(_copies_output(machine, amps), amps)
        with pytest.raises(ShapeError) as by_operators:
            _fidelity_operators(machine)
        assert str(by_operators.value) == str(by_table.value)
        assert f"output dims {output_dims}" in str(by_operators.value)


class TestGridRows:
    """The row kernel, F_b and F_a at every point of whole theta rows from the operators'
    phase-power form and the grid's phase table, held point by point to the point route."""

    # (513, 511): n_phi does not divide the slice; (100, 4097): a row is longer than one
    @pytest.mark.parametrize("grid", [(9, 13), (513, 511), (100, 4097)])
    @pytest.mark.parametrize("machine", ["conditional", "random [2, 2, 3]"])
    def test_every_grid_point_matches_the_operator_route(self, grid, machine):
        # a random complex machine depends on phi and mixes every column, so a phase or a
        # conjugation slip shows; the conditional deleter is the grid's own, built at import.
        # The two routes round independently, so each gets TestOperatorRoute's 4 EPS: at one
        # point of (513, 511) the operator route's F_a is 4.49 EPS from its 40-digit value,
        # where the row kernel's is 0.01 EPS from it.
        if machine == "conditional":
            operators, forms = fidelity._OPERATORS, fidelity._PHASE_FORMS
        else:
            machine = random_complex_machine([2, 2, 3], np.random.default_rng(73))
            operators = _fidelity_operators(machine)
            forms = fidelity._phase_forms(operators)
        n_theta, n_phi = grid
        u, _ = _gauss_legendre(n_theta)
        table = fidelity._phase_table(n_phi)
        for start in range(0, n_theta, 16):
            rows = u[start:start + 16]
            f_b, f_a = fidelity._grid_rows(forms, rows, table)
            assert f_b.shape == f_a.shape == (len(rows), n_phi)
            psis = grid_psis(rows, n_phi)
            expected_b, expected_a = fidelity._operator_fidelities(operators, psis)
            np.testing.assert_allclose(f_b.ravel(), expected_b, rtol=0, atol=2 * 4 * EPS)
            np.testing.assert_allclose(f_a.ravel(), expected_a, rtol=0, atol=2 * 4 * EPS)

    def test_the_form_places_each_column_at_its_phase_power(self):
        # q = (a^2, a b e^{i phi}, b^2 e^{2i phi}); v's (s, p) entries carry e^{i (k_p - s) phi}
        form, rows_b = fidelity._PHASE_FORMS
        blank_op, kept_op = fidelity._OPERATORS
        assert rows_b == len(blank_op) and form.shape == (9, rows_b + len(kept_op), 4)
        powers = [0, 1, 2, 0, 1, 2, -1, 0, 1]  # q's columns, then v's with s = 0 and s = 1
        for column, power in enumerate(powers):
            assert not np.any(np.delete(form[column], power + 1, axis=1))
        np.testing.assert_array_equal(form[:3, :rows_b].sum(axis=2), blank_op.T)
        np.testing.assert_array_equal(form[3:, rows_b:].sum(axis=2), kept_op.T)
        assert not np.any(form[:3, rows_b:]) and not np.any(form[3:, :rows_b])
        with pytest.raises(ValueError):
            form[0, 0, 0] = 1.0


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

    @pytest.mark.parametrize("offset, refused", [(1e-9, True), (1e-13, False)])
    def test_f_b_is_held_within_1e_12_of_its_density_matrix_value(self, offset, refused):
        fields = dict(alpha_sq=0.5, f_b=0.75 + offset, f_a=0.5, avg_f_b=5 / 6, avg_f_a=2 / 3,
                      quadrature_error=0.0, n_theta=8, n_phi=8)
        if refused:
            with pytest.raises(InvalidStateError, match="f_b deviates"):
                FidelityReport(**fields)
        else:
            assert FidelityReport(**fields).f_b == 0.75 + offset

    @pytest.mark.parametrize("offset, refused", [(1e-9, True), (1e-13, False)])
    def test_f_a_is_held_within_1e_12_of_its_density_matrix_value(self, offset, refused):
        fields = dict(alpha_sq=0.5, f_b=0.75, f_a=0.5 + offset, avg_f_b=5 / 6, avg_f_a=2 / 3,
                      quadrature_error=0.0, n_theta=8, n_phi=8)
        if refused:
            with pytest.raises(InvalidStateError, match="f_a deviates"):
                FidelityReport(**fields)
        else:
            assert FidelityReport(**fields).f_a == 0.5 + offset

    @pytest.mark.parametrize("excess, refused", [(1e-6, True), (1e-13, False)])
    def test_f_a_may_exceed_f_b_only_within_1e_12(self, excess, refused):
        # off [0, 1], |a|^2|b|^2 = -excess is negative and f_a = 1 + 2 excess > f_b = 1 + excess;
        # both agree with their density-matrix values, so only the ordering guard can refuse
        x = 0.5 + math.sqrt(0.25 + excess)
        y = x * (1.0 - x)
        fields = dict(alpha_sq=x, f_b=1.0 - y, f_a=1.0 - 2.0 * y, avg_f_b=5 / 6, avg_f_a=2 / 3,
                      quadrature_error=0.0, n_theta=8, n_phi=8)
        if refused:
            with pytest.raises(InvalidStateError, match="retention fidelity cannot exceed"):
                FidelityReport(**fields)
        else:
            assert FidelityReport(**fields).f_a > FidelityReport(**fields).f_b

    def test_bad_alpha_sq_rejected(self):
        with pytest.raises(ValueError):
            fidelity_report(1.5)


@functools.cache
def symbolic_fidelities():
    """sympy's (F_b, F_a) of the conditional deleter as expressions in x = |alpha|^2, from the
    machine's exact 0/1 matrix on alpha = a, beta = b e^{i phi} with b^2 = 1 - a^2, a^2 = x."""
    sp = pytest.importorskip("sympy")
    matrix = conditional_deleter().matrix
    assert np.array_equal(matrix, matrix.real.astype(bool))  # exactly 0/1
    a, b, x = sp.symbols("a b x", nonnegative=True)
    phi = sp.symbols("phi", real=True)
    psi = (a, b * sp.exp(sp.I * phi))
    state = [psi[i] * psi[j] if k == 0 else 0 for i in range(2) for j in range(2) for k in range(3)]
    out = sp.Matrix(matrix.real.astype(int).tolist()) * sp.Matrix(state)

    def cell(i, j, k):  # row-major over dims (2, 2, 3)
        return out[6 * i + 3 * j + k]

    def weight(z):
        return z * sp.conjugate(z)

    f_b = sum(weight(cell(i, BLANK_INDEX, k)) for i in range(2) for k in range(3))
    f_a = sum(weight(sum(sp.conjugate(psi[i]) * cell(i, j, k) for i in range(2)))
              for j in range(2) for k in range(3))
    to_x = {b: sp.sqrt(1 - a**2)}
    return x, tuple(sp.expand(sp.expand(f.subs(to_x)).subs(a, sp.sqrt(x))) for f in (f_b, f_a))


class TestSymbolicOracle:
    """The conditional deleter's fidelities and sphere averages, derived exactly by sympy from
    its matrix and held to the numeric routes; skipped without sympy."""

    def test_the_derivation_gives_the_paper_closed_forms(self):
        sp = pytest.importorskip("sympy")
        x, (f_b, f_a) = symbolic_fidelities()
        assert sp.expand(f_b - (1 - x * (1 - x))) == 0
        assert sp.expand(f_a - (1 - 2 * x * (1 - x))) == 0
        # a uniform point on the Bloch sphere has |alpha|^2 = cos^2(theta/2) uniform on [0, 1]
        assert sp.integrate(f_b, (x, 0, 1)) == sp.Rational(5, 6)
        assert sp.integrate(f_a, (x, 0, 1)) == sp.Rational(2, 3)

    def test_point_fidelities_match_the_derivation(self):
        x, (f_b, f_a) = symbolic_fidelities()
        rng = np.random.default_rng(2000)
        points = [(1.0, 0.0), (0.0, 1.0), (INV_SQRT2, 1j * INV_SQRT2)]
        points += [random_qubit_amplitudes(rng) for _ in range(20)]
        for alpha, beta in points:
            at = {x: abs(alpha) ** 2}
            got_b, got_a = point_fidelities(alpha, beta)
            assert abs(got_b - float(f_b.subs(at))) <= 1e-14
            assert abs(got_a - float(f_a.subs(at))) <= 1e-14

    @pytest.mark.parametrize("n", [8, 64])
    def test_averages_match_the_derivation(self, n):
        sp = pytest.importorskip("sympy")
        x, (f_b, f_a) = symbolic_fidelities()
        for mode, f in (("b", f_b), ("a", f_a)):
            exact = float(sp.integrate(f, (x, 0, 1)))
            assert abs(average_fidelity(mode, n, n) - exact) <= 1e-14
