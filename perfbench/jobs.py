"""Seeded job lists of the three benchmark workloads and their output checks.

Every job goes through a public entry point of qdel: ``qdel.cli.main`` with
its standard output captured, or ``qdel.classify_deleter``. Each output is
compared with a closed form of the paper (or one derived from it), never
with another run of the same code path, so a wrong answer counts as a
failed job.

The seed drives every generated input: alpha^2 points, theta pairs, Bloch
alphabets and classifier seeds. qdel sees only the generated values.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("pointwise", "quadrature", "audit")

# Job sizes of one pass, as the workloads define them.
SIZES = {
    "fidelity_sweep": 1001, "signal_sweep": 101, "nogo_sweep": 1000,
    "delete_demos": 20, "signal_pairs": 10,
    "grid": 512, "quality_n_max": 12,
    "classify_samples": (200, 150, 150), "alphabet": 40,
}

# Pointwise values are a few exact operations on O(1) numbers; quadrature
# averages sum 2.6e5 terms, so they get a looser tolerance.
POINT_TOL = 1e-12
QUADRATURE_TOL = 1e-10


class Mismatch(Exception):
    """A job's output disagrees with the closed form it is checked against."""


class ExitCode(Exception):
    """A CLI job returned a non-zero exit code."""


@dataclass(frozen=True)
class Job:
    """One call into qdel and the check of its output.

    points: input states the job evaluates, as named by its arguments (a
        sweep of N is N points, an AxB grid is A*B points, a quality job
        evaluates none); the denominator of ``hilbert.validations_per_point``.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    points: int


def expect_close(what: str, got: float, want: float, tol: float = POINT_TOL) -> None:
    if not abs(got - want) <= tol:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r} (tol {tol:g})")


def expect(what: str, ok: bool) -> None:
    if not ok:
        raise Mismatch(what)


def cli_job(qdel, argv: list[str], check: Callable[[str], None], points: int) -> Job:
    def call() -> str:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = qdel.cli.main(argv)  # looked up per call, so a traced binding is used
        if code != 0:
            raise ExitCode(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()

    return Job(" ".join(argv), call, check, points)


def csv_rows(text: str, header: str) -> list[list[float]]:
    lines = text.strip().split("\n")
    expect(f"CSV header {lines[0]!r} != {header!r}", lines[0] == header)
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


# --- closed forms --------------------------------------------------------------


def f_b(x: float) -> float:
    """Deletion-mode fidelity 1 - |a|^2 |b|^2 at |a|^2 = x."""
    return 1.0 - x * (1.0 - x)


def f_a(x: float) -> float:
    """Retention-mode fidelity 1 - 2 |a|^2 |b|^2 at |a|^2 = x."""
    return 1.0 - 2.0 * x * (1.0 - x)


def signalling_distance(theta_1: float, theta_2: float) -> float:
    """Trace distance of Bob's post-deletion mixtures: |sin 2(theta_2 - theta_1)| / 4.

    The mixtures differ by (n1.s (x) n1.s - n2.s (x) n2.s) / 8 with Bloch
    vectors at angles 2 theta_i; that operator has eigenvalues
    0, 0, +-2 |sin 2(theta_2 - theta_1)|. At 0 vs 45 degrees this is the
    paper's 1/4.
    """
    return abs(math.sin(2.0 * (theta_2 - theta_1))) / 4.0


def pair_deleter_output_norm(x: float) -> float:
    """Norm of the pair deleter's output on two copies of sqrt(x)|0> + sqrt(1-x)|1>."""
    return math.sqrt(1.0 + 2.0 * (1.0 - x) * math.sqrt(x * (1.0 - x)))


def pair_deleter_residual(x: float) -> float:
    """1 - |(<psi|<blank|) out| / |out|; the blank weight is sqrt(x) + (1-x)^(3/2)."""
    return 1.0 - (math.sqrt(x) + (1.0 - x) ** 1.5) / pair_deleter_output_norm(x)


def quality_formula(n: int, m: int) -> float:
    """The paper's optimal N-to-M quality 2 / 2^((N+M)/2) + sqrt((1 - 2/2^N)(1 - 2/2^M))."""
    return 2.0 ** (1.0 - (n + m) / 2) + math.sqrt((1.0 - 2.0 ** (1 - n)) * (1.0 - 2.0 ** (1 - m)))


# --- output checks -------------------------------------------------------------


def check_fidelity_sweep(n: int) -> Callable[[str], None]:
    def check(text: str) -> None:
        rows = csv_rows(text, "alpha_sq,f_a,f_b")
        expect(f"{len(rows)} sweep rows, expected {n}", len(rows) == n)
        for k, (x, fa, fb) in enumerate(rows):
            expect_close(f"alpha_sq[{k}]", x, k / (n - 1))
            expect_close(f"f_b({x})", fb, f_b(x))
            expect_close(f"f_a({x})", fa, f_a(x))

    return check


def check_signal_sweep(n: int) -> Callable[[str], None]:
    def check(text: str) -> None:
        rows = csv_rows(text, "theta,trace_distance_vs_theta0")
        expect(f"{len(rows)} sweep rows, expected {n}", len(rows) == n)
        for k, (theta, d) in enumerate(rows):
            expect_close(f"theta[{k}]", theta, k * math.pi / (n - 1))
            expect_close(f"distance(0, {theta})", d, signalling_distance(0.0, theta))

    return check


def check_nogo_sweep(n: int) -> Callable[[str], None]:
    """With psi1 = sigma = |0>, the largest of the five residuals is 1 - s."""

    def check(text: str) -> None:
        rows = csv_rows(text, "s,max_residual")
        expect(f"{len(rows)} sweep rows, expected {n}", len(rows) == n)
        for s, r in rows:
            expect_close(f"max_residual({s})", r, 1.0 - s)
            expect(f"residual {r!r} at s={s!r} must vanish exactly when s = 1",
                   (r <= POINT_TOL) == (s == 1.0))

    return check


def check_delete_demo(x: float) -> Callable[[str], None]:
    def check(text: str) -> None:
        out = json.loads(text)
        expect(f"dim {out['dim']} != 3", out["dim"] == 3)
        expect_close("alpha_sq", out["alpha_sq"], x, 0.0)
        expect_close("residual", out["residual"], pair_deleter_residual(x))
        expect_close("output_norm", out["output_norm"], pair_deleter_output_norm(x))
        expect("a superposition is never deleted exactly", out["deletes_exactly"] is False)

    return check


def check_signal_pair(t1: float, t2: float) -> Callable[[str], None]:
    def check(text: str) -> None:
        out = json.loads(text)
        expect_close("distance_with", out["distance_with"], signalling_distance(t1, t2))
        expect_close("distance_without (no-signalling control)", out["distance_without"], 0.0)

    return check


def check_average(x: float) -> Callable[[str], None]:
    def check(text: str) -> None:
        out = json.loads(text)
        expect_close("f_b", out["f_b"], f_b(x))
        expect_close("f_a", out["f_a"], f_a(x))
        expect_close("avg_f_b", out["avg_f_b"], 5.0 / 6.0, QUADRATURE_TOL)
        expect_close("avg_f_a", out["avg_f_a"], 2.0 / 3.0, QUADRATURE_TOL)

    return check


def check_quality(n: int, m: int) -> Callable[[str], None]:
    def check(text: str) -> None:
        out = json.loads(text)
        formula = out["formula_value"]
        expect_close(f"formula_value({n},{m})", formula, quality_formula(n, m))
        if (n, m) == (2, 1):
            expect_close("2-to-1 quality", formula, 1.0 / math.sqrt(2.0))
        if m == 1:
            expect_close(f"{n}-to-1 quality", formula, 2.0 ** (-(n - 1) / 2))
        expect(f"min_bound {out['min_bound']!r} exceeds formula_value {formula!r}",
               out["min_bound"] <= formula + POINT_TOL)
        expect_close("agreement", out["agreement"], abs(out["min_bound"] - formula))

    return check


def check_verify(isometry: bool) -> Callable[[str], None]:
    def check(text: str) -> None:
        out = json.loads(text)
        expect(f"is_isometry {out['is_isometry']!r}, expected {isometry}",
               out["is_isometry"] is isometry)
        expect("every rule image is a basis or unit vector", out["rules_normalized"] is True)
        # an isometry preserves every Gram matrix; the pair deleter maps the
        # orthonormal alphabet |ii> to the orthonormal |i blank>, so it does too
        expect_close("max_gram_residual", out["max_gram_residual"], 0.0, POINT_TOL)

    return check


def check_classify(kind: str, samples: int) -> Callable[[object], None]:
    def check(verdict) -> None:
        expect(f"kind {verdict.kind.value}, expected {kind}", verdict.kind.value == kind)
        expect("one residual per sample", len(verdict.residual_stats) == samples)
        if kind == "SwapLike":
            expect("a swap leaves no residual", max(verdict.residual_stats) <= 1e-10)
        else:
            expect("an approximate deleter leaves a residual", max(verdict.residual_stats) > 1e-10)

    return check


# --- workloads -----------------------------------------------------------------


def _pointwise(qdel, rng: random.Random, size: dict, work_dir: Path) -> list[Job]:
    n_f, n_s, n_g = size["fidelity_sweep"], size["signal_sweep"], size["nogo_sweep"]
    jobs = [
        cli_job(qdel, ["fidelity", "--sweep", str(n_f)], check_fidelity_sweep(n_f), n_f),
        cli_job(qdel, ["signal", "--sweep", str(n_s)], check_signal_sweep(n_s), n_s),
        cli_job(qdel, ["nogo", "--sweep", str(n_g)], check_nogo_sweep(n_g), n_g),
    ]
    for _ in range(size["delete_demos"]):
        x = rng.uniform(0.05, 0.95)
        jobs.append(cli_job(qdel, ["delete-demo", "--dim", "3", "--alpha-sq", repr(x)],
                            check_delete_demo(x), 1))
    for _ in range(size["signal_pairs"]):
        t1, t2 = rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi)
        jobs.append(cli_job(qdel, ["signal", "--theta1", repr(t1), "--theta2", repr(t2)],
                            check_signal_pair(t1, t2), 2))
    return jobs


def _quadrature(qdel, rng: random.Random, size: dict, work_dir: Path) -> list[Job]:
    g = size["grid"]
    x = rng.uniform(0.0, 1.0)
    jobs = [cli_job(qdel, ["fidelity", "--average", "--grid", f"{g}x{g}", "--alpha-sq", repr(x)],
                    check_average(x), g * g + 1)]
    for n in range(1, size["quality_n_max"] + 1):
        for m in range(1, n + 1):
            jobs.append(cli_job(qdel, ["quality", "--n", str(n), "--m", str(m)],
                                check_quality(n, m), 0))
    return jobs


def _bloch_alphabet(rng: random.Random, count: int) -> str:
    return ",".join(
        f"bloch:{rng.uniform(0.0, math.pi)!r}:{rng.uniform(0.0, 2.0 * math.pi)!r}"
        for _ in range(count)
    )


def _audit(qdel, rng: random.Random, size: dict, work_dir: Path) -> list[Job]:
    machines = {
        "swap2": qdel.swap_deleter(2),
        "swap3": qdel.swap_deleter(3),
        "conditional": qdel.conditional_deleter(),
        "qudit_pair3": qdel.qudit_pair_deleter(3),
    }
    files = {}
    for name in ("swap2", "conditional", "qudit_pair3"):
        files[name] = work_dir / f"{name}.json"
        files[name].write_text(json.dumps(qdel.machine_to_json(machines[name])), encoding="utf-8")

    jobs = []
    s_swap2, s_cond, s_swap3 = size["classify_samples"]
    for name, samples, kind in (("swap2", s_swap2, "SwapLike"),
                                ("conditional", s_cond, "ApproximateDeleter"),
                                ("swap3", s_swap3, "SwapLike")):
        machine, sub_seed = machines[name], rng.randrange(2**32)
        jobs.append(Job(
            f"classify_deleter({name}, {samples}, {sub_seed})",
            lambda machine=machine, samples=samples, sub_seed=sub_seed:
                qdel.classify_deleter(machine, samples, sub_seed),
            check_classify(kind, samples),
            samples,
        ))
    k = size["alphabet"]
    for name in ("swap2", "conditional"):
        jobs.append(cli_job(qdel, ["verify", "--machine", str(files[name]),
                                   "--alphabet", _bloch_alphabet(rng, k)],
                            check_verify(True), k))
    jobs.append(cli_job(qdel, ["verify", "--machine", str(files["qudit_pair3"]),
                               "--alphabet", "0,1,2"], check_verify(False), 3))
    return jobs


_BUILDERS = {"pointwise": _pointwise, "quadrature": _quadrature, "audit": _audit}


def build(workload: str, qdel, seed: int, work_dir: Path) -> list[Job]:
    """The fixed job list of one pass; the same seed gives the same inputs."""
    return _BUILDERS[workload](qdel, random.Random(seed), SIZES, work_dir)
