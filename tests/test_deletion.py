import math

import numpy as np
import pytest

from qdel import deletion
from qdel.deletion import (
    _GRID,
    GRID_STEP,
    QualityReport,
    _bound_values,
    actual_delete_output,
    ideal_delete_output,
    optimal_quality,
    quality_bound,
    symmetric_expand,
)
from qdel.errors import InvalidStateError
from qdel.hilbert import inner, ket, tensor

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def dicke_embedding(coefficients: np.ndarray) -> np.ndarray:
    """The symmetric coefficients spread over the full 2^N product space.

    The normalized Dicke state with k ones puts coefficient[k]/sqrt(C(N,k))
    on every bit string of weight k; an oracle independent of `tensor`.
    """
    n = len(coefficients) - 1
    scale = [coefficients[k] / math.sqrt(math.comb(n, k)) for k in range(n + 1)]
    return np.array([scale[idx.bit_count()] for idx in range(2**n)], dtype=complex)


def golden_minimize(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Golden-section minimum of a smooth scalar function on [lo, hi]; the scalar reference."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def random_qubit_amplitudes(rng):
    theta = math.acos(1.0 - 2.0 * rng.random())
    phi = 2.0 * math.pi * rng.random()
    return math.cos(theta / 2.0), math.sin(theta / 2.0) * complex(math.cos(phi), math.sin(phi))


class TestSymmetricExpand:
    def test_basis_state_has_single_term(self):
        coeffs = symmetric_expand(1.0, 0.0, 3)
        np.testing.assert_allclose(coeffs, [1, 0, 0, 0])
        assert coeffs.shape == (4,) and not coeffs.flags.writeable

    def test_balanced_two_copies_against_projection_oracle(self):
        # oracle: expand ((|0>+|1>)/sqrt2)^(x)2 and project onto
        # {|00>, (|01>+|10>)/sqrt2, |11>}
        psi = ket([INV_SQRT2, INV_SQRT2], [2])
        product = tensor(psi, psi)
        dicke = [
            ket([1, 0, 0, 0], [2, 2]),
            ket([0, INV_SQRT2, INV_SQRT2, 0], [2, 2]),
            ket([0, 0, 0, 1], [2, 2]),
        ]
        expected = [inner(d, product) for d in dicke]
        coeffs = symmetric_expand(INV_SQRT2, INV_SQRT2, 2)
        np.testing.assert_allclose(coeffs, expected, atol=1e-12)
        np.testing.assert_allclose(coeffs, [0.5, INV_SQRT2, 0.5], atol=1e-12)

    def test_extreme_coefficients_are_exact_powers(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 5):
            alpha, beta = random_qubit_amplitudes(rng)
            coeffs = symmetric_expand(alpha, beta, n)
            assert coeffs[0] == complex(alpha) ** n
            assert coeffs[n] == complex(beta) ** n

    def test_embedding_is_normalized(self):
        rng = np.random.default_rng(5)
        for n in (1, 3, 6):
            alpha, beta = random_qubit_amplitudes(rng)
            embedded = dicke_embedding(symmetric_expand(alpha, beta, n))
            assert abs(np.linalg.norm(embedded) - 1.0) < 1e-12

    def test_embedding_matches_tensor_power(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            alpha, beta = random_qubit_amplitudes(rng)
            psi = ket([alpha, beta], [2])
            embedded = dicke_embedding(symmetric_expand(alpha, beta, n))
            direct = tensor(*([psi] * n))
            np.testing.assert_allclose(embedded, direct.amplitudes, atol=1e-12)

    def test_unnormalized_amplitudes_rejected(self):
        with pytest.raises(InvalidStateError):
            symmetric_expand(1.0, 0.5, 2)


class TestIdealDeleteOutput:
    def test_nothing_deleted_is_input_with_fresh_ancilla(self):
        rng = np.random.default_rng(11)
        alpha, beta = random_qubit_amplitudes(rng)
        out = ideal_delete_output(alpha, beta, 2, 2).amplitudes.reshape(3, 3)
        np.testing.assert_allclose(
            out[:, 0], symmetric_expand(alpha, beta, 2), atol=1e-14
        )
        np.testing.assert_allclose(out[:, 1:], 0.0)

    def test_basis_state_single_cell(self):
        out = ideal_delete_output(1.0, 0.0, 2, 1).amplitudes.reshape(3, 3)
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(out, expected)

    def test_kept_block_is_m_copy_expansion(self):
        out = ideal_delete_output(INV_SQRT2, INV_SQRT2, 3, 2).amplitudes.reshape(4, 3)
        np.testing.assert_allclose(
            out[:3, 0], symmetric_expand(INV_SQRT2, INV_SQRT2, 2), atol=1e-14
        )

    def test_m_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            ideal_delete_output(1.0, 0.0, 2, 3)


class TestActualDeleteOutput:
    def test_basis_state_quality_equals_ancilla_overlap(self):
        # the final ancilla state is the ideal one, an overlap of 1
        actual = actual_delete_output(1.0, 0.0, 3, 1)
        ideal = ideal_delete_output(1.0, 0.0, 3, 1)
        assert abs(inner(actual, ideal)) == pytest.approx(1.0, abs=1e-12)

    def test_two_to_one_balanced_quality(self):
        actual = actual_delete_output(INV_SQRT2, INV_SQRT2, 2, 1)
        ideal = ideal_delete_output(INV_SQRT2, INV_SQRT2, 2, 1)
        assert abs(inner(actual, ideal)) == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_output_is_normalized(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, n + 1))
            alpha, beta = random_qubit_amplitudes(rng)
            out = actual_delete_output(alpha, beta, n, m)
            assert abs(out.norm() - 1.0) < 1e-12

    def test_quality_never_exceeds_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, n + 1))
            alpha, beta = random_qubit_amplitudes(rng)
            actual = actual_delete_output(alpha, beta, n, m)
            ideal = ideal_delete_output(alpha, beta, n, m)
            q = abs(inner(actual, ideal))
            assert q <= quality_bound(abs(alpha) ** 2, n, m) + 1e-10


class TestQualityBound:
    def test_basis_state_is_perfect(self):
        assert quality_bound(1.0, 5, 2) == pytest.approx(1.0, abs=1e-15)
        assert quality_bound(0.0, 5, 2) == pytest.approx(1.0, abs=1e-15)

    def test_two_to_one_balanced(self):
        assert quality_bound(0.5, 2, 1) == pytest.approx(2.0 ** -0.5, abs=1e-15)

    def test_three_to_two_balanced(self):
        expected = 2.0 / 2.0**2.5 + math.sqrt((1.0 - 0.25) * (1.0 - 0.5))
        assert quality_bound(0.5, 3, 2) == pytest.approx(expected, abs=1e-15)
        assert quality_bound(0.5, 3, 2) == pytest.approx(0.9659258262890684, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            quality_bound(1.2, 2, 1)
        with pytest.raises(ValueError):
            quality_bound(0.5, 2, 3)


class TestOptimalQuality:
    def test_no_deletion_is_error_free(self):
        for n in (1, 2, 5, 12):
            report = optimal_quality(n, n)
            assert report.formula_value == 1.0
            assert report.agreement < 1e-12

    def test_delete_to_one_copy_closed_form(self):
        for n in range(1, 12):
            assert optimal_quality(n, 1).formula_value == 2.0 ** (-(n - 1) / 2)

    def test_two_to_one_value(self):
        report = optimal_quality(2, 1)
        assert report.formula_value == pytest.approx(0.70711, abs=1e-5)
        assert report.min_bound == pytest.approx(report.formula_value, abs=1e-9)

    def test_exponential_decay_ratio(self):
        for n in range(1, 12):
            ratio = optimal_quality(n, 1).formula_value / optimal_quality(n + 1, 1).formula_value
            assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_asymptotically_perfect_single_deletion(self):
        assert optimal_quality(20, 19).formula_value > 0.999

    def test_grid_minimum_never_exceeds_formula(self):
        # the closed form is the bound at the balanced state, so the true
        # minimum can only sit at or below it
        for n in range(1, 13):
            for m in range(1, n + 1):
                report = optimal_quality(n, m)
                assert report.min_bound <= report.formula_value + 1e-12

    def test_small_cases_agree_with_grid_minimum(self):
        for n in range(1, 6):
            for m in range(1, n + 1):
                assert optimal_quality(n, m).agreement <= 1e-9

    def test_known_off_balance_minimum(self):
        # first (n, m) where the bound dips below its balanced-state value:
        # its minimum is ~0.9971074 near |alpha|^2 = 0.321 while the closed
        # form gives 0.9971911, a gap of ~8.4e-5
        report = optimal_quality(6, 5)
        assert 5e-5 < report.agreement < 2e-4
        assert report.min_bound < report.formula_value

    def test_curve_covers_unit_interval(self):
        report = optimal_quality(3, 2)
        assert report.bound_curve.shape == (10001, 2)
        assert report.bound_curve[0, 0] == 0.0
        assert report.bound_curve[-1, 0] == 1.0

    @pytest.mark.parametrize(
        "n, m",
        [(n, m) for n in range(1, 13) for m in range(1, n + 1)]
        + [(34, 2), (36, 4), (64, 32), (128, 2), (200, 100), (1000, 3), (4096, 2)],
    )
    def test_min_bound_matches_the_golden_section_reference(self, n, m):
        xs = np.linspace(0.0, 1.0, round(1.0 / GRID_STEP) + 1)
        vals = _bound_values(xs, n, m)
        i = int(np.argmin(vals))
        x_star = golden_minimize(
            lambda x: float(_bound_values(np.array([x]), n, m)[0]),
            xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)],
        )
        reference = min(float(vals[i]), float(_bound_values(np.array([x_star]), n, m)[0]))
        min_bound = optimal_quality(n, m).min_bound
        assert abs(min_bound - reference) <= 1e-15
        assert min_bound <= vals[i]

    def test_report_invariant(self):
        with pytest.raises(ValueError):
            QualityReport(
                n=2, m=2, min_bound=0.5, formula_value=0.9, agreement=0.4,
                argmin_alpha_sq=0.5, kind="global_minimum",
            )

    @pytest.mark.parametrize("min_bound, refused",
                             [(-1e-300, True), (1.0 + 4e-12, True), (math.nan, True),
                              (0.0, False), (1.0 + 1e-12, False)])
    def test_min_bound_is_held_to_0_1_with_1e_12_above(self, min_bound, refused):
        fields = dict(n=6, m=5, min_bound=min_bound, formula_value=0.997, agreement=0.0,
                      argmin_alpha_sq=0.5, kind="global_minimum")
        if refused:
            with pytest.raises(ValueError, match="min_bound .* outside"):
                QualityReport(**fields)
        else:
            assert QualityReport(**fields).min_bound == min_bound

    @pytest.mark.parametrize(
        "argmin, kind",
        [(0.3, "global_minimum"), (0.5, "local_maximum"), (0.5, "local_minimum"),
         (0.6, "local_maximum"), (0.5, "minimum")],
    )
    def test_kind_must_match_the_argmin(self, argmin, kind):
        with pytest.raises(ValueError):
            QualityReport(
                n=6, m=5, min_bound=0.99, formula_value=0.997, agreement=0.007,
                argmin_alpha_sq=argmin, kind=kind,
            )

    def test_balance_kind_and_argmin(self):
        for n, m in [(1, 1), (5, 5), (2, 1), (12, 1), (3, 2), (5, 4)]:
            report = optimal_quality(n, m)
            assert (report.argmin_alpha_sq, report.kind) == (0.5, "global_minimum")
            assert report.min_bound == quality_bound(0.5, n, m)
        report = optimal_quality(6, 5)
        assert report.kind == "local_maximum"
        assert report.argmin_alpha_sq == pytest.approx(0.321, abs=1e-3)
        assert quality_bound(report.argmin_alpha_sq, 6, 5) == report.min_bound

    @pytest.mark.parametrize("n, m", [(1079, 1078), (4096, 4095)])
    def test_balance_is_a_local_maximum_where_its_slope_underflows(self, n, m):
        """dB/dt at the scan's last point rounds to 0.0 in doubles here. mpmath, at 440 and
        1,500 digits, gives 6.1e-320 and 5.5e-1227 and a negative curvature at balance, so
        balance is a local maximum."""
        assert optimal_quality(n, m).kind == "local_maximum"

    @pytest.mark.parametrize("n, m", [(6, 5), (12, 4), (34, 2), (36, 4), (4096, 2), (16384, 2)])
    def test_min_bound_matches_a_50_digit_reference(self, n, m):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            half = mp.mpf(1) / 2

            def bound(x):
                y = 1 - x
                return (x ** (mp.mpf(n + m) / 2) + y ** (mp.mpf(n + m) / 2)
                        + mp.sqrt((1 - x**n - y**n) * (1 - x**m - y**m)))

            # the dense grid's argmin, folded into [0, 1/2], brackets the stationary point
            x0 = float(_GRID[int(np.argmin(_bound_values(_GRID, n, m)))])
            x0 = min(x0, 1.0 - x0)
            x_star = mp.findroot(lambda x: mp.diff(bound, x),
                                 (mp.mpf(x0) - GRID_STEP, mp.mpf(x0) + GRID_STEP),
                                 solver="anderson")
            reference = min(bound(x_star), bound(half))
        assert abs(optimal_quality(n, m).min_bound - reference) <= 1e-15

    @pytest.mark.parametrize("n, m", [(5, 4), (6, 5), (12, 4), (34, 2), (36, 4), (200, 100),
                                      (4096, 2)])
    def test_argmin_matches_a_50_digit_reference(self, n, m):
        """The argmin is where the 50-digit slope vanishes, or balance, to 1e-12."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            def bound(x):
                y = 1 - x
                return (x ** (mp.mpf(n + m) / 2) + y ** (mp.mpf(n + m) / 2)
                        + mp.sqrt((1 - x**n - y**n) * (1 - x**m - y**m)))

            x0 = float(_GRID[int(np.argmin(_bound_values(_GRID, n, m)))])
            x0 = min(x0, 1.0 - x0)
            candidates = [mp.mpf(1) / 2]
            if x0 != 0.5:  # the stationary point the dense grid's argmin brackets
                candidates.append(mp.findroot(lambda x: mp.diff(bound, x),
                                              (mp.mpf(x0) - GRID_STEP, mp.mpf(x0) + GRID_STEP),
                                              solver="anderson"))
            reference = float(min(candidates, key=bound))
        assert abs(optimal_quality(n, m).argmin_alpha_sq - reference) <= 1e-12

    def test_slope_evaluations_are_pinned(self, monkeypatch):
        """Illinois refines the root brackets of the 78 pairs with N <= 12 in 185 scalar slope
        evaluations. Plain regula falsi takes 210; _ROOT_TOL 1e-12 in place of 1e-13 takes 184,
        1e-9 takes 176 and 1e-14 takes 193."""
        scalar = []
        slope = deletion._slope

        def counted(x, n, m, ops=np):
            scalar.append(ops is math)
            return slope(x, n, m, ops)

        monkeypatch.setattr(deletion, "_slope", counted)
        for n in range(1, 13):
            for m in range(1, n + 1):
                optimal_quality(n, m)
        assert sum(scalar) == 185

    # 60-digit mpmath minima of the bound, taken in log1p/expm1 form over log |alpha|^2;
    # both dips sit near |alpha|^2 = 2.7e-10, which the slope scan reaches only while
    # _EDGE lies below it (at 2^-30 the reports miss by 80% and 76%)
    @pytest.mark.parametrize("n, m, reference", [(10**11, 7, 4.482453464894038e-5),
                                                 (10**11, 2, 2.449573267913514e-5)])
    def test_min_bound_at_large_n_matches_a_60_digit_minimum(self, n, m, reference):
        assert abs(optimal_quality(n, m).min_bound - reference) <= 1e-8 * reference

    @pytest.mark.parametrize("n, m", [(10**15, 7), (10**14, 2), (10**300, 10**299),
                                      (10**12, 10**12 - 1)])
    def test_a_minimum_below_the_scan_floor_is_refused(self, n, m):
        """The scan starts at the 2^-40 floor and its slope there is not negative. The 60-digit
        minima of the first two, 5.17e-7 and 8.62e-7, sit below the floor; at
        (10^12, 10^12 - 1) the slope there rounds to 0.0, so `kind` would rest on noise."""
        with pytest.raises(ArithmeticError, match=f"^quality bound at n={n}, m={m}: "):
            optimal_quality(n, m)

    @pytest.mark.parametrize("n, m", [(10**11, 7), (10**12, 7), (10**13, 2), (10**13, 7)])
    def test_answered_large_n_minima_match_mpmath(self, n, m):
        """A 60-digit minimum over log |alpha|^2 in [-40 ln 10, ln 1/2]: the least of a
        200-point scan, narrowed by golden sections, or balance if that is lower."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            def bound(u):
                x = mp.exp(u)
                y = 1 - x
                return (x ** (mp.mpf(n + m) / 2) + y ** (mp.mpf(n + m) / 2)
                        + mp.sqrt((1 - x**n - y**n) * (1 - x**m - y**m)))

            lo, hi = -40 * mp.log(10), mp.log(mp.mpf(1) / 2)
            us = [lo + (hi - lo) * k / 200 for k in range(201)]
            k = min(range(201), key=lambda k: bound(us[k]))
            a, b = us[max(k - 1, 0)], us[min(k + 1, 200)]
            shrink = (mp.sqrt(5) - 1) / 2
            for _ in range(120):
                c, d = b - shrink * (b - a), a + shrink * (b - a)
                a, b = (a, d) if bound(c) < bound(d) else (c, b)
            reference = float(min(bound((a + b) / 2), bound(hi)))
        assert abs(optimal_quality(n, m).min_bound - reference) <= 1e-8 * reference

    def test_fixed_m_plateau_of_the_closed_form(self):
        # for M = 2 the closed form tends to 1/sqrt(2) while the true minimum keeps falling
        reports = [optimal_quality(n, 2) for n in (34, 256, 4096, 16384)]
        formulas = [r.formula_value for r in reports]
        minima = [r.min_bound for r in reports]
        assert formulas == sorted(formulas, reverse=True)
        assert abs(formulas[-1] - INV_SQRT2) < 1e-4
        assert minima == sorted(minima, reverse=True)
        assert minima[0] == pytest.approx(0.5550, abs=5e-5)
        assert minima[-1] == pytest.approx(0.0406, abs=5e-5)
        assert all(r.kind == "local_maximum" for r in reports)


@pytest.mark.parametrize(
    "call",
    [
        lambda: optimal_quality(2.5, 1),
        lambda: optimal_quality(True, 1),
        lambda: optimal_quality(3, 0),
        lambda: quality_bound(0.3, 4.5, 2),
        lambda: symmetric_expand(1, 0, 2.5),
        lambda: symmetric_expand(1, 0, False),
        lambda: ideal_delete_output(1, 0, 2, "1"),
        lambda: actual_delete_output(1, 0, 2.0, 1),
    ],
    ids=["float_n", "bool_n", "zero_m", "float_n_bound", "float_copies", "bool_copies",
         "str_m", "float_n_actual"],
)
def test_copy_counts_must_be_integers(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_numpy_integer_copy_counts_are_accepted():
    report = optimal_quality(np.int64(3), np.int32(2))
    assert (report.n, report.m) == (3, 2) and type(report.n) is int
    assert report.formula_value == optimal_quality(3, 2).formula_value
