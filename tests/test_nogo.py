import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qdel import nogo
from qdel.cli import main
from qdel.errors import InputError, InvalidStateError, ShapeError
from qdel.hilbert import Ket, basis_ket, bloch_ket, haar_qubit, inner, ket, tensor
from qdel.machines import (
    BasisActionMachine,
    apply,
    check_isometry,
    conditional_deleter,
    qudit_pair_deleter,
    swap_deleter,
)
from qdel.nogo import (
    Constraint,
    ConstraintReport,
    _conditions,
    _overlap_grid,
    _sweep_max_residuals,
    gram_preservation_check,
    ideal_deletion_map,
    nonorthogonal_constraints,
    overlap_constraints,
    sweep_overlap,
    verify_report,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def plus():
    return ket([INV_SQRT2, INV_SQRT2], [2])


class TestNonorthogonalConstraints:
    def test_trivial_alphabet_is_the_only_solution(self):
        zero = basis_ket([2], 0)
        report = nonorthogonal_constraints(zero, zero, zero)
        assert report.satisfiable
        assert report.trivial_only
        assert report.max_residual == 0.0

    def test_plus_zero_alphabet_is_unsatisfiable(self):
        report = nonorthogonal_constraints(basis_ket([2], 0), plus(), basis_ket([2], 0))
        assert not report.satisfiable
        assert not report.trivial_only
        s = INV_SQRT2
        # the quadratic-versus-linear clash: s^2 = s fails by |1/2 - 1/sqrt2|
        assert report.constraints[0].residual == pytest.approx(abs(0.5 - s), abs=1e-12)

    def test_orthogonal_alphabet_fails_the_blank_condition(self):
        report = nonorthogonal_constraints(
            basis_ket([2], 0), basis_ket([2], 1), basis_ket([2], 0)
        )
        # <sigma|psi2> = 1 is off by exactly 1 when psi2 is orthogonal to sigma
        blank_condition = report.constraints[2]
        assert blank_condition.residual == pytest.approx(1.0, abs=1e-15)
        assert not report.satisfiable

    @pytest.mark.parametrize("gap, satisfiable", [(1e-8, False), (1e-12, True)])
    def test_satisfiable_only_within_the_tolerance_of_unit_overlap(self, gap, satisfiable):
        # s = 1 - gap leaves s^2 = s off by about gap, either side of _SAT_TOL = 1e-10
        report = overlap_constraints(1.0 - gap)
        assert report.satisfiable is satisfiable
        assert report.trivial_only is satisfiable

    def test_trivial_only_needs_unit_overlap_beyond_satisfiability(self):
        # a hand-built report whose conditions hold but whose overlap is 0.9: satisfiable,
        # and not the trivial alphabet
        report = ConstraintReport(overlap_s=0.9, constraints=(Constraint("s = s", 0.9, 0.9),))
        assert report.satisfiable
        assert not report.trivial_only

    def test_exactly_five_constraints_with_rule_pair_labels(self):
        report = nonorthogonal_constraints(basis_ket([2], 0), plus(), basis_ket([2], 0))
        assert len(report.constraints) == 5
        assert all("|" in c.label for c in report.constraints)

    def test_each_condition_pairs_the_overlaps_its_label_names(self):
        psi1, psi2, sigma = bloch_ket(0.7, 0.3), bloch_ket(1.9, -1.1), bloch_ket(2.6, 2.0)
        s, s1, s2 = inner(psi1, psi2), inner(sigma, psi1), inner(sigma, psi2)
        expected = [
            ("s^2 = s  [11|22]", s * s, s),
            ("s = <sigma|psi2>  [11|12]", s, s2),
            ("<sigma|psi2> = 1  [22|12]", s2, 1.0),
            ("<sigma|psi1> = 1  [11|21]", s1, 1.0),
            ("<psi2|psi1> = <sigma|psi1>  [22|21]", inner(psi2, psi1), s1),
        ]
        report = nonorthogonal_constraints(psi1, psi2, sigma)
        assert [(c.label, c.lhs, c.rhs) for c in report.constraints] == expected
        assert report.overlap_s == s

    def test_complex_overlap_breaks_the_quadratic_condition(self):
        psi2 = ket([INV_SQRT2 * 1j, INV_SQRT2], [2])
        report = nonorthogonal_constraints(basis_ket([2], 0), psi2, basis_ket([2], 0))
        assert report.constraints[0].residual > 0.1

    def test_non_qubit_rejected(self):
        with pytest.raises(ShapeError):
            nonorthogonal_constraints(basis_ket([3], 0), basis_ket([3], 0), basis_ket([3], 0))

    def test_the_five_conditions_hold_together_only_at_unit_overlap(self):
        """sympy solves the package's own conditions on symbols: s = s1 = s2 = s21 = 1."""
        sympy = pytest.importorskip("sympy")
        s, s1, s2, s21 = sympy.symbols("s s1 s2 s21")
        # sympy reads the conditions' 1 + 0j as the float 1.0, so the solution is one too
        equations = [lhs - rhs for _, lhs, rhs in _conditions(s, s1, s2, s21)]
        assert sympy.solve(equations, [s, s1, s2, s21], dict=True) == [
            {s: 1.0, s1: 1.0, s2: 1.0, s21: 1.0}
        ]

    @pytest.mark.parametrize("s", [-0.5, 1.5, -1e-300, 1.0 + 1e-15, math.nan, math.inf])
    def test_an_overlap_outside_the_unit_interval_is_refused_by_name(self, s):
        with pytest.raises(InputError, match=r"^overlap s must lie in \[0, 1\], got "):
            overlap_constraints(s)


class TestSweepOverlap:
    def test_endpoints(self):
        reports = sweep_overlap(101)
        assert reports[-1].max_residual == 0.0  # s = 1: all states identical
        assert reports[0].max_residual == pytest.approx(1.0, abs=1e-15)  # s = 0: orthogonal

    def test_residual_vanishes_only_at_unit_overlap(self):
        reports = sweep_overlap(500)
        assert reports[-1].max_residual < 1e-12
        assert all(r.max_residual > 0 for r in reports[:-1])

    def test_restricted_minimum_is_strictly_positive(self):
        reports = sweep_overlap(1000)
        grid = np.linspace(0.0, 1.0, 1000)
        restricted = [r.max_residual for s, r in zip(grid, reports) if s <= 0.99]
        assert min(restricted) > 0.0

    def test_residual_curve_is_continuous(self):
        n = 200
        reports = sweep_overlap(n)
        step = 1.0 / (n - 1)
        residuals = [r.max_residual for r in reports]
        for prev, nxt in zip(residuals, residuals[1:]):
            assert abs(nxt - prev) < 10.0 * step

    def test_phase_flag_breaks_even_the_endpoint(self):
        reports = sweep_overlap(11, phase=0.5)
        assert all(r.max_residual > 1e-3 for r in reports[1:])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_a_non_finite_phase_is_refused_by_name(self, bad):
        for refused in (lambda: overlap_constraints(0.5, bad), lambda: sweep_overlap(5, bad),
                        lambda: _sweep_max_residuals(5, bad)):
            with pytest.raises(ValueError, match=f"^angle must be finite, got {bad!r}$") as info:
                refused()
            assert type(info.value) is InputError

    def test_too_few_points_rejected(self):
        for sweep in (sweep_overlap, _sweep_max_residuals):
            for n_points in (1, 2.5, True):
                with pytest.raises(ValueError, match="n_points"):
                    sweep(n_points)

    @pytest.mark.parametrize("n", [2, 7, 1000])
    @pytest.mark.parametrize("phase", [0.0, 0.3, -0.7, 1.0, math.pi / 2, 2.5, 3.14159])
    def test_cli_sweep_rows_equal_the_object_path(self, capsys, n, phase):
        """Exactly at phase 0; elsewhere the two paths may round apart by an ulp."""
        assert main(["nogo", "--sweep", str(n), "--phase", repr(phase)]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
        reports = sweep_overlap(n, phase)
        assert len(rows) == n
        for (s, got), want, grid in zip(rows, reports, np.linspace(0.0, 1.0, n)):
            assert float(s) == grid
            want = want.max_residual
            if phase == 0.0:
                assert float(got) == want
            else:
                assert abs(float(got) - want) <= np.spacing(want)


def _fields(report):
    """The repr of each number a report holds: overlap_s and every lhs, rhs and residual."""
    return [repr(report.overlap_s)] + [repr(x) for c in report.constraints
                                       for x in (c.lhs, c.rhs, c.residual)]


class TestOverlapFamily:
    @pytest.mark.parametrize("phase", [0.0, -0.0, 0.3, math.pi / 2, 2.0, math.pi, -2.5,
                                       3 * math.pi / 2], ids=repr)
    def test_every_report_equals_the_general_states_route_repr_for_repr(self, phase):
        """Each field, signed zeros included, as `nonorthogonal_constraints` gives it."""
        zero = basis_ket([2], 0)

        def reference(s):
            psi2 = Ket((2,), [complex(math.cos(phase), math.sin(phase)) * s, math.sqrt(1 - s * s)])
            return _fields(nonorthogonal_constraints(zero, psi2, zero))

        grid = _overlap_grid(1001).tolist()
        assert [_fields(r) for r in sweep_overlap(1001, phase)] == [reference(s) for s in grid]
        for s in grid + [5e-324, 1.0 - 2.0**-53]:
            assert _fields(overlap_constraints(s, phase)) == reference(s), s

    def test_a_sweep_judges_its_phase_once_and_builds_no_ket(self, monkeypatch):
        calls = {"_finite_angles": 0, "Ket": 0}
        finite_angles, post_init = nogo._finite_angles, Ket.__post_init__

        def counted_angles(angles):
            calls["_finite_angles"] += 1
            return finite_angles(angles)

        def counted_post_init(self):
            calls["Ket"] += 1
            post_init(self)

        monkeypatch.setattr(nogo, "_finite_angles", counted_angles)
        monkeypatch.setattr(Ket, "__post_init__", counted_post_init)
        assert len(sweep_overlap(1000, 0.3)) == 1000
        assert calls == {"_finite_angles": 1, "Ket": 0}


class TestGramPreservation:
    def test_isometric_machine_preserves_all_inner_products(self):
        rng = np.random.default_rng(3)
        for machine in (swap_deleter(2), conditional_deleter()):
            alphabet = [haar_qubit(rng) for _ in range(4)]
            assert gram_preservation_check(machine, alphabet) < 1e-10

    def test_ideal_deletion_rules_violate_the_gram_matrix(self):
        alphabet = [basis_ket([2], 0), plus()]
        mapping = ideal_deletion_map(alphabet, basis_ket([2], 0))
        s = INV_SQRT2
        assert gram_preservation_check(mapping, alphabet) >= abs(s**2 - s) - 1e-12

    def test_single_state_alphabet_is_vacuous(self):
        assert gram_preservation_check(swap_deleter(2), [basis_ket([2], 0)]) == 0.0

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError):
            gram_preservation_check(swap_deleter(2), [])

    @pytest.mark.parametrize("machine", [swap_deleter(2), lambda psi: psi],
                             ids=["machine", "callable"])
    def test_alphabet_on_mixed_spaces_rejected(self, machine):
        alphabet = [basis_ket([2], 0), basis_ket([3], 0)]
        with pytest.raises(ShapeError, match="alphabet states live on different spaces"):
            gram_preservation_check(machine, alphabet)

    def test_non_finite_alphabet_rejected(self):
        # refused where the state is built, so the check is never reached
        with pytest.raises(InvalidStateError, match="non-finite amplitude"):
            alphabet = [basis_ket([2], 0), Ket((2,), [math.nan, 0.0])]
            gram_preservation_check(swap_deleter(2), alphabet)

    def test_alphabet_dimension_must_match(self):
        with pytest.raises(ShapeError):
            gram_preservation_check(swap_deleter(3), [basis_ket([2], 0)])

    def test_a_state_on_two_qubits_is_no_copy_of_a_4_level_machine(self):
        with pytest.raises(ShapeError, match=r"dims \(2, 2\) do not match machine copies \(4,\)"):
            gram_preservation_check(qudit_pair_deleter(4), [basis_ket([2, 2], 0)])

    def test_the_kernel_is_the_largest_pair_gap_of_the_object_route(self):
        # a complex non-isometry: the diagonal |1 - ||out_i||^2| is larger than any pair
        # gap, so the kernel must read the pairs i < j alone
        rng = np.random.default_rng(43)
        matrix = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        machine = BasisActionMachine((2, 2, 3), (2, 2, 3), matrix, strict=False)
        alphabet = [haar_qubit(rng) for _ in range(5)]
        ancilla = basis_ket([3], 0)
        outs = [apply(machine, tensor(psi, psi, ancilla)) for psi in alphabet]
        gaps = [abs(inner(alphabet[i], alphabet[j]) ** 2 - inner(outs[i], outs[j]))
                for i in range(5) for j in range(i + 1, 5)]
        diagonal = [abs(1.0 - out.norm() ** 2) for out in outs]
        assert max(diagonal) > max(gaps)
        got = gram_preservation_check(machine, alphabet)
        assert got == pytest.approx(max(gaps), rel=1e-13)

    def test_agrees_with_the_five_constraints(self):
        # for random non-orthogonal pairs both detectors fire together
        rng = np.random.default_rng(7)
        blank = basis_ket([2], 0)
        for _ in range(100):
            psi1, psi2 = haar_qubit(rng), haar_qubit(rng)
            s = abs(inner(psi1, psi2))
            if s < 1e-6 or s > 1.0 - 1e-6:
                continue
            five = nonorthogonal_constraints(psi1, psi2, blank).max_residual
            mapping = ideal_deletion_map([psi1, psi2], blank)
            gram = gram_preservation_check(mapping, [psi1, psi2])
            assert (five > 1e-12) == (gram > 1e-12)
            assert five > 0 and gram > 0


class TestVerifyReport:
    def test_isometry_with_an_alphabet(self):
        alphabet = [basis_ket([2], 0), plus(), bloch_ket(0.3, 1.2)]
        report = verify_report(swap_deleter(2), 1e-10, alphabet)
        assert report.is_isometry and report.rules_normalized
        assert report.max_gram_deviation == check_isometry(swap_deleter(2)) == 0.0
        assert report.max_gram_residual == gram_preservation_check(swap_deleter(2), alphabet)

    def test_without_an_alphabet_the_gram_residual_is_none(self):
        report = verify_report(qudit_pair_deleter(2), 1e-10)
        assert report.max_gram_residual is None
        assert not report.is_isometry and report.rules_normalized
        assert report.max_gram_deviation == 1.0

    def test_tolerance_decides_is_isometry(self):
        # a unitary from QR rounds to a deviation of a few ulp
        q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4)) + 0j)
        machine = BasisActionMachine((2, 2), (2, 2), q)
        deviation = check_isometry(machine)
        assert 0.0 < deviation < 1e-14
        assert verify_report(machine, deviation).is_isometry
        assert not verify_report(machine, deviation / 2).is_isometry

    @pytest.mark.parametrize("tol", [1e-10, 0.5, np.float64(1e-3), 2])
    def test_the_report_records_the_tolerance_it_applied(self, tol):
        report = verify_report(swap_deleter(2), tol)
        assert report.tol == tol and type(report.tol) is float

    def test_unnormalized_rules_are_reported(self):
        machine = BasisActionMachine((2,), (2,), np.diag([1.0, 1.0 + 1e-8]), strict=False)
        report = verify_report(machine, 1e-10)
        assert not report.rules_normalized and not report.is_isometry

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.inf, math.nan])
    @pytest.mark.parametrize("alphabet", [None, [], [basis_ket([2], 0), basis_ket([3], 0)]],
                             ids=["none", "empty", "mixed_spaces"])
    def test_tolerance_must_be_positive_and_finite(self, tol, alphabet):
        """A bad tol is named before anything about the alphabet."""
        with pytest.raises(InputError, match="tol must be a positive finite number"):
            verify_report(swap_deleter(2), tol, alphabet)


class TestIdealDeletionMap:
    def test_deletes_recognized_pairs(self):
        alphabet = [basis_ket([2], 0), bloch_ket(1.1, 0.4)]
        sigma = basis_ket([2], 0)
        mapping = ideal_deletion_map(alphabet, sigma)
        from qdel.hilbert import tensor

        for psi in alphabet:
            out = mapping(tensor(psi, psi))
            np.testing.assert_allclose(out.amplitudes, tensor(psi, sigma).amplitudes, atol=1e-12)

    def test_everything_else_passes_through(self):
        alphabet = [basis_ket([2], 0)]
        mapping = ideal_deletion_map(alphabet, basis_ket([2], 0))
        from qdel.hilbert import tensor

        other = tensor(basis_ket([2], 1), basis_ket([2], 0))
        assert mapping(other) is other


@st.composite
def isometries_and_alphabets(draw):
    """A QR isometry from [d, d, m] into [d, d, m + extra], d in {2, 3}, and a drawn
    alphabet of 1-6 normalized d-level states."""
    d = draw(st.sampled_from([2, 3]))
    m, extra = draw(st.integers(2, 4 if d == 2 else 3)), draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = d * d * (m + extra), d * d * m
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    machine = BasisActionMachine((d, d, m), (d, d, m + extra), q)
    entries = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    vectors = draw(st.lists(arrays(complex, d, elements=entries).filter(
        lambda v: np.linalg.norm(v) > 1e-3), min_size=1, max_size=6))
    return machine, [Ket((d,), v / np.linalg.norm(v)) for v in vectors]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(isometries_and_alphabets())
def test_every_isometry_preserves_the_gram_matrix(drawn):
    machine, alphabet = drawn
    assert gram_preservation_check(machine, alphabet) <= 1e-12
