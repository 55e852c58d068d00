"""The three cvschmidt benchmark workloads, their inputs and their checks.

Every workload is a closed loop with one caller: a task starts only after
the previous one has finished and been checked.  Task parameters come from
the workload seed and fixed bands (means in [-1, 1], sigmas in [0.5, 2],
rho inside the workload's band; see `InputStream`); the library receives
only those inputs.
Each task is checked against the correlated-Gaussian closed forms, outside
the timed region.

Why each workload exists, and which ROADMAP item it exposes
-----------------------------------------------------------
lowk-pipeline
    build_grid -> sample_state(wavefunction) -> decompose -> schmidt_number
    + entanglement_entropy -> shannon_mi_numeric, rho in [0.88, 0.92],
    span 8, n = 1000.  The mass covers nearly every cell and only about 35
    of 1000 modes carry weight above eps * lambda_0, so the exact `fsum`
    validation in `sample_state` and in `shannon_mi_numeric` dominates the
    task.  It exposes item 2 (exact summation off the O(n^2) paths) and
    item 3 (rank-adaptive SVD: few useful modes, so a sketch can stop early).
highk-pipeline
    The same calls with rho in [0.998, 0.9995], span 10, n = 1000.  K is
    about 16-32, a few hundred modes carry weight, and the mass is narrow,
    so most cells underflow to 0 and `fsum` is cheap; the SVD is about half
    of the task.  A summation change should move it little, and a
    rank-adaptive SVD has to fall back to the dense one here.
cli-session
    A user session driven in-process through `cvschmidt.cli.main(argv)`:
    write an n = 400 state file, then `decompose <file> --format json`,
    `simulate --rho <0.998-0.9995> --n 4 --trials 1000000`, `table1`,
    `mutual-info`, `thermo` and `info`, each with `--output` to a file.  It
    is the only workload with state-file writes beside reads, the CLI layer
    and the `epr_sim` Monte Carlo, whose 2 * trials * n draw arrays set the
    peak memory.  It exposes item 4 (chunked Monte Carlo, input contract)
    and item 5 (collapsing the CLI's pass-through layers).

Predicted no-change workload per ROADMAP item
---------------------------------------------
item 1 (in-program stage timers)      every workload: the timers only add overhead
item 2 (exact summation off O(n^2))   highk-pipeline (cheap `fsum` over mostly-zero cells)
item 3 (rank-adaptive SVD)            highk-pipeline (the sketch must fall back)
item 4 (chunked Monte Carlo)          lowk-pipeline and highk-pipeline (no `epr_sim` calls)
item 5 (collapse CLI layers)          lowk-pipeline and highk-pipeline (no CLI calls)

Tolerances
----------
They follow tests/test_acceptance.py and are never loosened: numeric
leading weights within 1e-6, closed forms within 1e-12, entropy within
1e-10, numeric mutual information within 1e-12 from n = 400 on (1e-4 at
n = 200).  The Schmidt number is held to the weights' 1e-6, relatively,
and the Monte Carlo's p_theory to K^-n within the 1e-9 that `epr_sim`
allows on the sum of the truncated weights.
The Monte Carlo expects only a few hits per run (K^-4 * 10^6 is 1-16), so
its z-bound is applied to the exact binomial tail rather than to a normal
approximation, at 6 sigma: the benchmark checks thousands of seeds, not the
two of the acceptance test, and a 4-sigma bound would fail by chance.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

import cvschmidt as cs
from cvschmidt import gaussian_model as gm

WEIGHT_TOL = 1e-6
K_REL_TOL = 1e-6
CLOSED_FORM_TOL = 1e-12
ENTROPY_TOL = 1e-10
P_THEORY_REL_TOL = 1e-9
MI_TOL = {200: 1e-4, 400: 1e-12}
LEADING = 6
Z_BOUND = 6.0

MEAN_BAND = (-1.0, 1.0)
SIGMA_BAND = (0.5, 2.0)

EPS = float(np.finfo(float).eps)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def mi_tolerance(n: int) -> float:
    return MI_TOL[400] if n >= 400 else MI_TOL[200]


class InputStream:
    """Seeded task inputs.

    Means and sigmas are uniform in their bands.  rho is placed in the
    workload's band by a golden-ratio sequence with a seeded start, so that
    the few tasks of one run cover the band evenly: task cost depends on rho
    (across the high-K band the share of nonzero cells halves), and
    independent draws would let the run's median depend on which rhos the
    seed drew.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.position = self.rng.random()

    def advance(self) -> None:
        """Move to the next task's position in [0, 1)."""
        self.position = (self.position + GOLDEN) % 1.0

    def params(self, rho_band) -> gm.GaussianParams:
        return gm.GaussianParams(
            m1=self.rng.uniform(*MEAN_BAND),
            m2=self.rng.uniform(*MEAN_BAND),
            sigma1=self.rng.uniform(*SIGMA_BAND),
            sigma2=self.rng.uniform(*SIGMA_BAND),
            rho=self.in_band(rho_band),
        )

    def in_band(self, band) -> float:
        lo, hi = band
        return lo + (hi - lo) * self.position


def miss(failures: list, label: str, got, want, tol: float, relative: bool = False) -> None:
    """Append a failure unless |got - want| <= tol (times |want| when relative)."""
    scale = abs(want) if relative else 1.0
    if not abs(got - want) <= tol * scale:
        failures.append(f"{label}: got {got!r}, want {want!r} within {tol:g}"
                        f"{' relative' if relative else ''}")


def check_spectrum(failures: list, label: str, weights, K: float, rho: float) -> None:
    K_exact = gm.schmidt_number_from_rho(rho)
    miss(failures, f"{label} K", K, K_exact, K_REL_TOL, relative=True)
    exact = gm.analytic_weights(K_exact, LEADING)
    for k in range(LEADING):
        miss(failures, f"{label} lambda_{k}", float(weights[k]), exact[k], WEIGHT_TOL)


def binomial_tail_ok(hits: int, trials: int, p: float, z: float) -> bool:
    """True when neither binomial tail at `hits` is rarer than a z-sigma normal tail."""
    alpha = 0.5 * math.erfc(z / math.sqrt(2.0))
    log_p, log_q = math.log(p), math.log1p(-p)
    base = math.lgamma(trials + 1)

    def pmf(k):
        return math.exp(base - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                        + k * log_p + (trials - k) * log_q)

    mean = trials * p
    lower = math.fsum(pmf(k) for k in range(hits + 1))
    upper, k = 0.0, hits
    while k <= trials:
        term = pmf(k)
        upper += term
        if k > mean and term <= upper * 1e-17:
            break
        k += 1
    return lower >= alpha and upper >= alpha


@dataclass(frozen=True)
class PipelineTask:
    params: gm.GaussianParams


@dataclass(frozen=True)
class PipelineWorkload:
    """build_grid -> sample_state -> decompose -> K, S -> mutual information."""

    name: str
    why: str
    rho_band: tuple[float, float]
    span: float
    n: int = 1000

    def draw(self, stream: InputStream) -> PipelineTask:
        stream.advance()
        return PipelineTask(stream.params(self.rho_band))

    def warm_up(self, workdir: Path) -> None:
        params = gm.GaussianParams(rho=sum(self.rho_band) / 2.0)
        grid = cs.build_grid(params, self.n, self.span)
        cs.decompose(cs.sample_state(partial(gm.wavefunction, params), grid))

    def run(self, task: PipelineTask, tr, workdir: Path) -> dict:
        p = task.params
        grid = tr.call("discretize.build_grid", cs.build_grid, p, self.n, self.span)
        amplitude = tr.wrap("gaussian_model.wavefunction", partial(gm.wavefunction, p))
        state = tr.call("discretize.sample_state", cs.sample_state, amplitude, grid)
        spectrum = tr.call("schmidt.decompose", cs.decompose, state)
        K = tr.call("schmidt.schmidt_number", cs.schmidt_number, spectrum.weights)
        S = tr.call("schmidt.entanglement_entropy", cs.entanglement_entropy, spectrum.weights)
        probabilities = tr.call("discretize.probabilities", state.probabilities)
        mi = tr.call("discretize.shannon_mi_numeric", cs.shannon_mi_numeric, probabilities)
        return {"state": state, "weights": spectrum.weights, "K": K, "S": S, "mi": mi}

    def check(self, task: PipelineTask, result: dict, workdir: Path) -> list[str]:
        failures = []
        rho = task.params.rho
        check_spectrum(failures, "decompose", result["weights"], result["K"], rho)
        miss(failures, "entropy", result["S"],
             gm.closed_form_entropy(gm.schmidt_number_from_rho(rho)), ENTROPY_TOL)
        miss(failures, "mutual information", result["mi"],
             gm.shannon_mi_gaussian(rho), mi_tolerance(self.n))
        return failures

    def counts(self, task: PipelineTask, result: dict, workdir: Path) -> dict[str, float]:
        amplitudes = result["state"].amplitudes
        return {
            "discretize.support_fraction": np.count_nonzero(amplitudes) / amplitudes.size,
            "schmidt.useful_mode_ratio": useful_mode_ratio(result["weights"], amplitudes.shape),
        }


@dataclass(frozen=True)
class CliTask:
    params: gm.GaussianParams
    sim_rho: float
    sim_seed: int


# Library functions the CLI module imported by name, with their span names.
CLI_LIBRARY_CALLS = {
    "build_grid": "discretize.build_grid",
    "sample_state": "discretize.sample_state",
    "read_state_file": "discretize.read_state_file",
    "shannon_mi_numeric": "discretize.shannon_mi_numeric",
    "decompose": "schmidt.decompose",
    "schmidt_number": "schmidt.schmidt_number",
    "entanglement_entropy": "schmidt.entanglement_entropy",
    "info_report": "information.info_report",
    "run_coincidence_experiment": "epr_sim.run_coincidence_experiment",
}


@dataclass(frozen=True)
class CliSessionWorkload:
    """A state-file write followed by six CLI commands, each writing a file."""

    name: str
    why: str

    # Fixed session settings (class constants, not dataclass fields).  The
    # state file, table1 and mutual-info use the low-K band, where the
    # acceptance tolerances were set; simulate and info use the high-K band.
    rho_band = (0.88, 0.92)
    sim_rho_band = (0.998, 0.9995)
    n = 400
    span = 8.0
    sim_symbols = 4
    sim_trials = 1_000_000
    mi_n = 200
    mi_span = 8.0
    table_grids = (30, 50, 100)
    table_span = 10.0

    def draw(self, stream: InputStream) -> CliTask:
        stream.advance()
        return CliTask(stream.params(self.rho_band), stream.in_band(self.sim_rho_band),
                       stream.rng.randrange(2**31))

    def commands(self, task: CliTask, workdir: Path) -> dict[str, list[str]]:
        p = task.params
        gaussian = [f"--rho={p.rho!r}", f"--m1={p.m1!r}", f"--m2={p.m2!r}",
                    f"--sigma1={p.sigma1!r}", f"--sigma2={p.sigma2!r}"]
        out = {name: str(workdir / f"{name}.out") for name in
               ("decompose", "simulate", "table1", "mutual-info", "thermo", "info")}
        return {
            "decompose": ["decompose", str(workdir / "state.csv"), "--format", "json",
                          "--output", out["decompose"]],
            "simulate": self.simulate_argv(task, out["simulate"]),
            "table1": ["table1", *gaussian, "--grids", ",".join(map(str, self.table_grids)),
                       f"--span={self.table_span!r}", f"--count={LEADING}",
                       "--output", out["table1"]],
            "mutual-info": ["mutual-info", *gaussian, f"--n={self.mi_n}",
                            f"--span={self.mi_span!r}", "--output", out["mutual-info"]],
            "thermo": ["thermo", "--output", out["thermo"]],
            "info": ["info", f"--rho={task.sim_rho!r}", f"--n-symbols={self.sim_symbols}",
                     "--output", out["info"]],
        }

    def simulate_argv(self, task: CliTask, output: str) -> list[str]:
        return ["simulate", f"--rho={task.sim_rho!r}", f"--n={self.sim_symbols}",
                f"--trials={self.sim_trials}", f"--seed={task.sim_seed}", "--output", output]

    def warm_up(self, workdir: Path) -> None:
        from cvschmidt import cli

        params = gm.GaussianParams(rho=sum(self.rho_band) / 2.0)
        state = cs.sample_state(partial(gm.wavefunction, params),
                                cs.build_grid(params, self.n, self.span))
        path = workdir / "warm-up.csv"
        cs.write_state_file(path, state)
        code = cli.main(["decompose", str(path), "--output", str(workdir / "warm-up.out")])
        if code != 0:
            raise RuntimeError(f"warm-up decompose exited with {code}")

    def run(self, task: CliTask, tr, workdir: Path) -> dict:
        from cvschmidt import cli

        p = task.params
        grid = tr.call("discretize.build_grid", cs.build_grid, p, self.n, self.span)
        amplitude = tr.wrap("gaussian_model.wavefunction", partial(gm.wavefunction, p))
        state = tr.call("discretize.sample_state", cs.sample_state, amplitude, grid)
        tr.call("discretize.write_state_file", cs.write_state_file, workdir / "state.csv", state)
        codes = {}
        with tr.patched(cli, CLI_LIBRARY_CALLS, alloc=("run_coincidence_experiment",)), \
                tr.patched(gm, {"wavefunction": "gaussian_model.wavefunction"}):
            for command, argv in self.commands(task, workdir).items():
                codes[command] = tr.call(f"cli.{command}", cli.main, argv)
        return {"state": state, "codes": codes}

    def check(self, task: CliTask, result: dict, workdir: Path) -> list[str]:
        from cvschmidt import cli

        failures = [f"cli {command} exited with {code}"
                    for command, code in result["codes"].items() if code != 0]
        if failures:
            return failures
        out = {command: Path(argv[-1]) for command, argv in self.commands(task, workdir).items()}
        p = task.params
        K = gm.schmidt_number_from_rho(p.rho)

        # decompose: the state file's spectrum against the writer's params.
        table = json.loads(out["decompose"].read_text(encoding="utf-8"))
        rows = {str(key): value for key, value in table["rows"]}
        weights = [rows[str(k)] for k in range(LEADING)]
        check_spectrum(failures, "state file", weights, rows["K"], p.rho)
        miss(failures, "state file entropy", rows["S"], gm.closed_form_entropy(K), ENTROPY_TOL)

        # simulate: hits within the z-bound of p_theory; a repeated seed repeats the bytes.
        report = json.loads(out["simulate"].read_text(encoding="utf-8"))
        K_sim = gm.schmidt_number_from_rho(task.sim_rho)
        miss(failures, "p_theory", report["p_theory"], K_sim ** -self.sim_symbols,
             P_THEORY_REL_TOL, relative=True)
        if report["trials"] != self.sim_trials or report["n_symbols"] != self.sim_symbols:
            failures.append(f"simulate report echoes wrong arguments: {report}")
        elif not binomial_tail_ok(report["hits"], self.sim_trials, report["p_theory"], Z_BOUND):
            failures.append(f"simulate hits {report['hits']} outside the {Z_BOUND:g}-sigma "
                            f"binomial tail of p_theory {report['p_theory']!r}")
        repeat = workdir / "simulate-repeat.out"
        code = cli.main(self.simulate_argv(task, str(repeat)))
        if code != 0 or repeat.read_bytes() != out["simulate"].read_bytes():
            failures.append("simulate with a repeated seed gave different bytes")

        # table1: closed-form column exact, finest grid within the weight tolerance.
        header, *body = read_csv(out["table1"])
        finest = header.index(f"n{max(self.table_grids)}")
        exact = gm.analytic_weights(K, LEADING)
        for k, row in enumerate(body[:LEADING]):
            miss(failures, f"table1 theory lambda_{k}", float(row[1]), exact[k], CLOSED_FORM_TOL)
            miss(failures, f"table1 numeric lambda_{k}", float(row[finest]), exact[k], WEIGHT_TOL)
        k_row = body[-1]
        miss(failures, "table1 theory K", float(k_row[1]), K, CLOSED_FORM_TOL, relative=True)
        miss(failures, "table1 numeric K", float(k_row[finest]), K, K_REL_TOL, relative=True)

        # mutual-info: numeric MI against the closed form.
        mi = {row[0]: row[1] for row in read_csv(out["mutual-info"])[1:]}
        miss(failures, "mutual-info numeric", float(mi["mi_numeric"]),
             gm.shannon_mi_gaussian(p.rho), mi_tolerance(self.mi_n))
        miss(failures, "mutual-info analytic", float(mi["mi_analytic"]),
             gm.shannon_mi_gaussian(p.rho), CLOSED_FORM_TOL)

        # thermo: K = coth(beta/2), rho^2 = sech^2(beta/2), S equals the entanglement entropy.
        for row in read_csv(out["thermo"])[1:]:
            beta, K_beta, rho2, entropy = map(float, row)
            miss(failures, f"thermo K at beta={beta!r}", K_beta, 1.0 / math.tanh(beta / 2.0),
                 CLOSED_FORM_TOL, relative=True)
            miss(failures, f"thermo rho^2 at beta={beta!r}", rho2,
                 1.0 / math.cosh(beta / 2.0) ** 2, CLOSED_FORM_TOL, relative=True)
            miss(failures, f"thermo entropy at beta={beta!r}", entropy,
                 gm.closed_form_entropy(K_beta), CLOSED_FORM_TOL)

        # info: information and coincidence probability of the simulated spectrum.
        info = {row[0]: float(row[1]) for row in read_csv(out["info"])[1:]}
        m = self.sim_symbols
        for label, want in (("K", K_sim), ("I_nats", m * math.log(K_sim)),
                            ("I_bits", m * math.log2(K_sim)), ("p_coincidence", K_sim ** -m)):
            miss(failures, f"info {label}", info[label], want, CLOSED_FORM_TOL, relative=True)
        return failures

    def counts(self, task: CliTask, result: dict, workdir: Path) -> dict[str, float]:
        amplitudes = result["state"].amplitudes
        state_bytes = (workdir / "state.csv").stat().st_size
        outputs = {command: Path(argv[-1])
                   for command, argv in self.commands(task, workdir).items()}
        rows = json.loads(outputs["decompose"].read_text(encoding="utf-8"))["rows"]
        weights = np.array([value for key, value in rows if isinstance(key, int)])
        return {
            "discretize.support_fraction": np.count_nonzero(amplitudes) / amplitudes.size,
            "schmidt.useful_mode_ratio": useful_mode_ratio(weights, amplitudes.shape),
            "discretize.write_state_file.bytes": state_bytes,
            "discretize.read_state_file.bytes": state_bytes,
            "epr_sim.draws": 2 * self.sim_trials * self.sim_symbols,
            "cli.output_bytes": sum(path.stat().st_size for path in outputs.values()),
        }


def useful_mode_ratio(weights, shape) -> float:
    """Weights above eps * lambda_0 over the min(n1, n2) modes a dense SVD computes."""
    return np.count_nonzero(weights > EPS * weights[0]) / min(shape)


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


WORKLOADS = {
    w.name: w
    for w in (
        PipelineWorkload(
            name="lowk-pipeline",
            why=("rho 0.88-0.92, n=1000: mass covers the grid and ~35 modes carry weight, so "
                 "exact fsum validation dominates; exposes ROADMAP items 2 and 3"),
            rho_band=(0.88, 0.92),
            span=8.0,
        ),
        PipelineWorkload(
            name="highk-pipeline",
            why=("rho 0.998-0.9995, n=1000: K 16-32, most cells underflow so fsum is cheap and"
                 " the dense SVD is half the task; predicted no change for items 2 and 3"),
            rho_band=(0.998, 0.9995),
            span=10.0,
        ),
        CliSessionWorkload(
            name="cli-session",
            why=("in-process CLI session: n=400 state-file write and read, six commands and "
                 "the 2*trials*n Monte Carlo draws; exposes items 4 and 5"),
        ),
    )
}
