"""The standing mutant list of `src/qdel`, and a runner that checks each one is killed.

A mutant is one edit to one module: an exact text, which occurs once in
`src/qdel`, and its replacement. Each is listed with the test files expected
to fail on it. The runner copies `src/`, `tests/`, `pyproject.toml` and
`README.md` to a temporary directory and checks that the unmutated copy
passes every listed test file. It then applies one mutant at a time and runs
only that mutant's test files, one pytest subprocess at a time. It needs
nothing beyond the standard library and the test dependencies:

    python tools/mutants.py

Exit status: 0 when every mutant run is killed, 1 when one survives, and 2
when nothing can be judged (the unmutated copy fails a listed test file, a
listed text is not found once, or pytest stops for another reason than a
failing test). Only mutants some test is known to kill are listed; a mutant
no test kills yet is described in ROADMAP item 17. `tests/test_mutants.py`
checks that every listed text still occurs exactly once, so a refactor that
moves one updates this list.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

# a mutant whose tests run longer than this counts as killed: it hangs
_TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/qdel
    text: str
    replacement: str
    tests: tuple[str, ...]  # test files, relative to the repository root


MUTANTS = (
    # decision thresholds, each held at its edge
    Mutant("deletion_tol_1e-3", "machines.py", "_DELETION_TOL = 1e-9", "_DELETION_TOL = 1e-3",
           ("tests/test_machines.py",)),
    Mutant("deletion_tol_0", "machines.py", "_DELETION_TOL = 1e-9", "_DELETION_TOL = 0.0",
           ("tests/test_machines.py",)),
    Mutant("basis_deletion_norm_1e-3", "machines.py",
           "np.abs(np.linalg.norm(ancilla_images, axis=1) - 1.0) > _DELETION_TOL",
           "np.abs(np.linalg.norm(ancilla_images, axis=1) - 1.0) > 1e-3",
           ("tests/test_machines.py",)),
    Mutant("basis_deletion_norm_0", "machines.py",
           "np.abs(np.linalg.norm(ancilla_images, axis=1) - 1.0) > _DELETION_TOL",
           "np.abs(np.linalg.norm(ancilla_images, axis=1) - 1.0) > 0.0",
           ("tests/test_machines.py",)),
    Mutant("vanishing_output_floor_0", "machines.py", "where=whole >= _ZERO_OUTPUT",
           "where=whole > 0", ("tests/test_machines.py",)),
    Mutant("sat_tol_1e-6", "nogo.py", "_SAT_TOL = 1e-10", "_SAT_TOL = 1e-6",
           ("tests/test_nogo.py",)),
    Mutant("eigen_tol_1e-6", "hilbert.py", "EIGEN_TOL = 1e-10", "EIGEN_TOL = 1e-6",
           ("tests/test_hilbert.py",)),
    Mutant("zero_prob_1e-8", "signalling.py", "_ZERO_PROB = 1e-14", "_ZERO_PROB = 1e-8",
           ("tests/test_signalling.py",)),
    Mutant("closed_form_check_1e-6", "signalling.py", "dev[worst] <= 1e-12",
           "dev[worst] <= 1e-6", ("tests/test_signalling.py",)),
    Mutant("signalling_control_1e-3", "signalling.py", "self.distance_without > 1e-10",
           "self.distance_without > 1e-3", ("tests/test_signalling.py",)),
    Mutant("json_without_finite_check", "reports.py", 'if "n" in text:', "if False:",
           ("tests/test_reports.py",)),
    Mutant("fidelity_report_f_b_1e-6", "fidelity.py", "abs(self.f_b - (1.0 - y)) > 1e-12",
           "abs(self.f_b - (1.0 - y)) > 1e-6", ("tests/test_fidelity.py",)),
    Mutant("deletes_exactly_1e-6", "machines.py", "return self.residual <= 1e-12",
           "return self.residual <= 1e-6", ("tests/test_machines.py",)),
    # a guard that rounding alone reaches
    Mutant("state_fidelity_no_clip", "hilbert.py", "return min(max(val, 0.0), 1.0)",
           "return val", ("tests/test_hilbert.py",)),
    # a conjugation only a complex input shows
    Mutant("isometry_gram_without_conj", "machines.py", "gram = m.conj().T @ m", "gram = m.T @ m",
           ("tests/test_machines.py", "tests/test_cli.py")),
    # the fidelity operators: v from psi instead of conj(psi), the i < j column without its
    # M|j i 0> term, and the i = i column with M|i i 0> taken twice
    Mutant("operator_v_without_conj", "fidelity.py", "v = (psis.conj()[:, None] * q)",
           "v = (psis[:, None] * q)", ("tests/test_fidelity.py",)),
    Mutant("operator_pair_without_ji", "machines.py",
           "pairs = columns[:, i, j] + np.where(i < j, columns[:, j, i], 0)",
           "pairs = columns[:, i, j]", ("tests/test_fidelity.py",)),
    Mutant("operator_pair_diagonal_twice", "machines.py", "np.where(i < j, columns[:, j, i], 0)",
           "np.where(i <= j, columns[:, j, i], 0)", ("tests/test_fidelity.py",)),
    # the Bloch grid's row kernel: the e^{-i phi} row of its phase table without its conjugate,
    # and the grid without its phi phase
    Mutant("grid_table_without_conj", "fidelity.py", "phase.conj(), np.ones(n_phi)",
           "phase, np.ones(n_phi)", ("tests/test_fidelity.py",)),
    Mutant("grid_without_phi_phase", "fidelity.py", "phase = np.exp(1j * phi)",
           "phase = np.exp(0j * phi)", ("tests/test_fidelity.py",)),
    # the Gauss-Legendre rule: weights from the derivative before the last Newton step, odd n's
    # middle node left at Tricomi's cos(pi / 2) = 6.1e-17, and Newton stopped at steps of 1e-9
    Mutant("rule_weights_before_last_step", "fidelity.py", "    _, dp = _legendre(n, x)\n",
           "    dp = np.append(dp, _legendre(n, x[half:])[1])\n", ("tests/test_fidelity.py",)),
    Mutant("rule_odd_without_exact_zero", "fidelity.py", "np.append(x, [0.0][: n % 2])",
           "np.append(x, [np.cos(np.pi / 2)][: n % 2])", ("tests/test_fidelity.py",)),
    Mutant("rule_newton_stops_at_1e-9", "fidelity.py", "while np.max(np.abs(step)) > 1e-15:",
           "while np.max(np.abs(step)) > 1e-9:", ("tests/test_fidelity.py",)),
    # conjugations and norms of the two-copy kernels, each shown by a complex input
    Mutant("bra_contract_without_conj", "machines.py", "bras = psis.conj()", "bras = psis",
           ("tests/test_machines.py",)),
    Mutant("norms_sq_without_imag", "machines.py", "return sums[..., 0::2] + sums[..., 1::2]",
           "return sums[..., 0::2]", ("tests/test_machines.py", "tests/test_fidelity.py")),
    Mutant("residual_without_sqrt", "machines.py", "np.maximum(1.0 - np.sqrt(ratio), 0.0)",
           "np.maximum(1.0 - ratio, 0.0)", ("tests/test_machines.py",)),
    # the swap certificate's i = i pair sum M|i i 0> + M|i i 0>, taken once
    Mutant("certificate_diagonal_once", "machines.py", "sides[diagonal] += sides[diagonal]",
           "sides[diagonal] += 0", ("tests/test_machines.py",)),
    Mutant("certificate_gram_without_conj", "machines.py", "gram = images.conj() @ images.T",
           "gram = images @ images.T", ("tests/test_machine_properties.py",)),
    Mutant("classifier_rho_without_conj", "machines.py",
           "rho += ancilla[:, None] * ancilla.conj()", "rho += ancilla[:, None] * ancilla",
           ("tests/test_machines.py",)),
    # the classifier's closed-form ancilla errors: the cubic's largest root in place of its
    # smallest, the qubit form without |D01|^2, p = 0 divided by, r left unclipped at -1 - eps,
    # and -lambda_min left a few eps below 0
    Mutant("cubic_largest_root", "machines.py", "np.cos(phi + 2.0 * np.pi / 3.0)", "np.cos(phi)",
           ("tests/test_machines.py",)),
    Mutant("qubit_form_without_coupling", "machines.py",
           "np.hypot(0.5 * (diagonal[0] - diagonal[1]), np.abs(differences[0, 1]))",
           "np.abs(0.5 * (diagonal[0] - diagonal[1]))", ("tests/test_machines.py",)),
    Mutant("cubic_divides_by_p_0", "machines.py", "solvable = cube > 0", "solvable = cube >= 0",
           ("tests/test_machines.py",)),
    Mutant("cubic_without_clip", "machines.py", "np.arccos(np.clip(r, -1.0, 1.0))",
           "np.arccos(r)", ("tests/test_machines.py",)),
    Mutant("ancilla_errors_unclamped", "machines.py", "return np.maximum(errors, 0.0)",
           "return errors", ("tests/test_machines.py",)),
    Mutant("gram_in_through_abs", "nogo.py", "gram_in = (amps.conj() @ amps.T) ** 2",
           "gram_in = np.abs(amps.conj() @ amps.T) ** 2", ("tests/test_nogo.py",)),
    Mutant("haar_real_gaussian", "hilbert.py", "z = parts[:, 0] + 1j * parts[:, 1]",
           "z = parts[:, 0] + 0j * parts[:, 1]", ("tests/test_hilbert.py",)),
    # the overlap family's <psi2|psi1> = conj(z) without the + 0j that turns its -0.0 into
    # the +0.0 of vdot
    Mutant("family_conj_keeps_negative_zero", "nogo.py", "z.conjugate() + 0j", "z.conjugate()",
           ("tests/test_nogo.py",)),
    # guards and tolerances, each held at its edge
    Mutant("rules_normalized_1e-6", "nogo.py", "rules_normalized=machine.rule_norms_ok(1e-9)",
           "rules_normalized=machine.rule_norms_ok(1e-6)", ("tests/test_nogo.py",)),
    Mutant("hermiticity_tol_1e-6", "hilbert.py", "if not herm_dev <= ALGEBRAIC_TOL:",
           "if not herm_dev <= 1e-6:", ("tests/test_hilbert.py",)),
    Mutant("trace_tol_1e-6", "hilbert.py", "if not tr_dev <= ALGEBRAIC_TOL:",
           "if not tr_dev <= 1e-6:", ("tests/test_hilbert.py",)),
    Mutant("classify_without_m_lt_d", "machines.py", "if m < d or machine.output_dims",
           "if machine.output_dims", ("tests/test_machines.py",)),
    Mutant("classifier_lost_below_1e-6", "machines.py", "lost = pnorms < 1e-12",
           "lost = pnorms < 1e-6", ("tests/test_machines.py",)),
    Mutant("trivial_only_above_0.5", "nogo.py", "abs(self.overlap_s) > 1.0 - _SAT_TOL",
           "abs(self.overlap_s) > 0.5", ("tests/test_nogo.py",)),
    # a full check the summed eigenvalue slack of a traced-out subsystem reaches
    Mutant("partial_trace_unchecked", "hilbert.py",
           "return DensityMatrix(dims, work.reshape(side, side))",
           "return _trusted(DensityMatrix, tuple(dims), work.reshape(side, side))",
           ("tests/test_hilbert.py",)),
    # the quality solver
    Mutant("root_tol_1e-9", "deletion.py", "_ROOT_TOL = 1e-13", "_ROOT_TOL = 1e-9",
           ("tests/test_deletion.py",)),
    Mutant("root_tol_1e-12", "deletion.py", "_ROOT_TOL = 1e-13", "_ROOT_TOL = 1e-12",
           ("tests/test_deletion.py",)),
    Mutant("plain_regula_falsi", "deletion.py",
           "hb /= 2\n            a, ha, side = c, hc, -1\n        else:\n"
           "            if side > 0:\n                ha /= 2",
           "pass\n            a, ha, side = c, hc, -1\n        else:\n"
           "            if side > 0:\n                pass",
           ("tests/test_deletion.py",)),
    Mutant("edge_2^-30", "deletion.py", "_EDGE = 2.0**-40", "_EDGE = 2.0**-30",
           ("tests/test_deletion.py",)),
    Mutant("kind_slope_at_most_0", "deletion.py", "slopes[-1] < 0.0", "slopes[-1] <= 0.0",
           ("tests/test_deletion.py",)),
    Mutant("last_0.5-2^-20", "deletion.py", "_LAST = 0.5 - 2.0**-30", "_LAST = 0.5 - 2.0**-20",
           ("tests/test_deletion.py",)),
    Mutant("scan_start_1/(2N)", "deletion.py", "wanted = 1.0 / (8.0 * nf)",
           "wanted = 1.0 / (2.0 * nf)", ("tests/test_deletion.py",)),
    Mutant("quality_answers_unresolved", "deletion.py", "if wanted < _EDGE:", "if False:",
           ("tests/test_deletion.py",)),
    Mutant("root_bracket_shifted", "deletion.py",
           "xs[i : i + 2].tolist(), slopes[i : i + 2].tolist()",
           "xs[i + 1 : i + 3].tolist(), slopes[i + 1 : i + 3].tolist()",
           ("tests/test_deletion.py",)),
    # the command line: a subcommand's parser that keeps leftovers it should hand on
    Mutant("parse_accepts_leftovers", "cli.py", "if not extras:", "if True:",
           ("tests/test_cli.py", "tests/test_cli_properties.py")),
    # delete-demo's scatter onto the identity instead of the deleter's targets
    Mutant("demo_scatter_wrong_target", "machines.py", "np.add.at(outs, _pair_targets(dim),",
           "np.add.at(outs, np.arange(dim * dim),", ("tests/test_machines.py",)),
    # refusals at the public boundary, each dropped or held at another edge
    Mutant("basis_index_without_upper_bound", "hilbert.py", "if not 0 <= index < size:",
           "if not 0 <= index:", ("tests/test_hilbert.py",)),
    Mutant("keep_without_upper_bound", "hilbert.py", "if keep_set[0] < 0 or keep_set[-1] >= n:",
           "if keep_set[0] < 0:", ("tests/test_hilbert.py",)),
    # the one angle check, then each of its callers without it
    Mutant("angles_unchecked", "hilbert.py", "if not np.isfinite(angles).all():", "if False:",
           ("tests/test_hilbert.py",)),
    Mutant("bloch_ket_takes_any_angle", "hilbert.py", "*_finite_angles((theta, phi)).tolist()",
           "theta, phi", ("tests/test_hilbert.py",)),
    Mutant("signalling_takes_any_angle", "signalling.py", "thetas = _finite_angles(thetas)",
           "thetas = np.asarray(thetas, dtype=float)", ("tests/test_signalling.py",)),
    Mutant("overlap_family_takes_any_phase", "nogo.py", "phase = _finite_angles(phase).item()",
           "phase = float(phase)", ("tests/test_nogo.py",)),
    Mutant("alphabet_angles_unchecked", "cli.py",
           "    _finite_angles([a for s in args.alphabet", "    ([a for s in args.alphabet",
           ("tests/test_cli.py",)),
    # each rule on a caller's scalar argument has one owner, whose InputError is a usage
    # error: the owner raising a plain ValueError (exit 3), or without its rule
    Mutant("alpha_sq_plain_value_error", "hilbert.py",
           'raise InputError(f"{name} must lie in [0, 1], got {x}")',
           'raise ValueError(f"{name} must lie in [0, 1], got {x}")', ("tests/test_cli.py",)),
    Mutant("int_at_least_plain_value_error", "hilbert.py",
           'raise InputError(f"{name} must be an integer >= {least}, got {value!r}")',
           'raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")',
           ("tests/test_cli.py",)),
    Mutant("finite_angles_plain_value_error", "hilbert.py",
           'raise InputError(f"angle must be finite, got',
           'raise ValueError(f"angle must be finite, got', ("tests/test_hilbert.py",)),
    Mutant("copy_counts_without_m_le_n", "deletion.py", "    if m > n:\n", "    if False:\n",
           ("tests/test_cli.py",)),
    Mutant("positive_tol_without_its_rule", "nogo.py", "if not 0.0 < tol < math.inf:",
           "if False:", ("tests/test_nogo.py",)),
    Mutant("verify_report_skips_the_tol_rule", "nogo.py", "    _positive_tol(tol)\n", "",
           ("tests/test_nogo.py",)),
    Mutant("verify_cli_skips_the_tol_rule", "cli.py", "    _positive_tol(args.tol)\n",
           "", ("tests/test_cli.py",)),
    Mutant("overlap_without_unit_rule", "nogo.py", '_alpha_sq(s, "overlap s")', "float(s)",
           ("tests/test_nogo.py",)),
    Mutant("any_value_error_is_a_usage_error", "cli.py", "except InputError as exc:",
           "except ValueError as exc:", ("tests/test_cli.py",)),
    Mutant("ket_takes_non_finite", "hilbert.py", "if not np.isfinite(amps).all():", "if False:",
           ("tests/test_hilbert.py",)),
    Mutant("copy_layout_takes_one_subsystem", "machines.py",
           "if len(dims) not in (2, 3) or dims[0] != dims[1]:",
           "if len(dims) > 3 or len(dims) > 1 and dims[0] != dims[1]:", ("tests/test_cli.py",)),
    Mutant("branch_output_floor_0", "machines.py", "if not np.all(norms_sq >= _ZERO_OUTPUT):",
           "if not np.all(norms_sq >= 0.0):", ("tests/test_signalling.py",)),
    Mutant("garbage_dims_unchecked", "machines.py", "if g.dims != (d, d):", "if False:",
           ("tests/test_machines.py",)),
    Mutant("alphabet_spaces_unchecked", "nogo.py",
           "if any(psi.dims != dims for psi in alphabet):", "if False:", ("tests/test_nogo.py",)),
    Mutant("fidelity_report_f_a_1e-6", "fidelity.py", "abs(self.f_a - (1.0 - 2.0 * y)) > 1e-12",
           "abs(self.f_a - (1.0 - 2.0 * y)) > 1e-6", ("tests/test_fidelity.py",)),
    Mutant("retention_order_1e-3", "fidelity.py", "if self.f_a > self.f_b + 1e-12:",
           "if self.f_a > self.f_b + 1e-3:", ("tests/test_fidelity.py",)),
    Mutant("min_bound_slack_1e-9", "deletion.py", "0.0 <= self.min_bound <= 1.0 + 1e-12",
           "0.0 <= self.min_bound <= 1.0 + 1e-9", ("tests/test_deletion.py",)),
)


def _pytest(tree: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit status on `tests` in `tree`, importing qdel from the tree's own src/."""
    # no bytecode: a mutant of the same size written within a second of the
    # original would otherwise run from the original's cached .pyc
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=_TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        return 1


def run(mutants: tuple[Mutant, ...]) -> int:
    with tempfile.TemporaryDirectory(prefix="qdel-mutants-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        for part in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / part, tree / part)
        files = tuple(sorted({f for mutant in mutants for f in mutant.tests}))
        if _pytest(tree, files) != 0:
            print(f"the unmutated code fails {' '.join(files)}: nothing can be judged")
            return 2
        survivors = []
        for mutant in mutants:
            path = tree / "src" / "qdel" / mutant.module
            source = path.read_text()
            if source.count(mutant.text) != 1:
                print(f"{mutant.name}: its text does not occur exactly once in {mutant.module}")
                return 2
            path.write_text(source.replace(mutant.text, mutant.replacement))
            start = time.perf_counter()
            code = _pytest(tree, mutant.tests)
            path.write_text(source)
            if code not in (0, 1):
                print(f"{mutant.name}: pytest exited {code}, not a test failure")
                return 2
            print(f"{mutant.name:30s} {'killed' if code else 'SURVIVED':8s} "
                  f"{time.perf_counter() - start:5.1f} s")
            if not code:
                survivors.append(mutant.name)
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(run(MUTANTS))
