"""Command-line front end.

Every command renders one deterministic table (or JSON report) built from
the library modules: closed-form weights vs. grid results, mode curves,
spectrum decomposition of a state file, numeric mutual information, the
thermal sweep, the coincidence Monte Carlo, and the information report.

Numbers are serialized with 17 significant digits in CSV and as lossless
shortest round-trip literals in JSON, so both formats parse to identical
values.  Exit codes: 0 success, 1 invalid input, 2 numerical failure.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import click
import numpy as np

from . import gaussian_model as gm
from .discretize import build_grid, read_state_file, sample_state, shannon_mi_numeric
from .epr_sim import run_coincidence_experiment
from .errors import DomainError, NumericalError, StateFileError
from .information import InfoReport, info_report
from .schmidt import decompose, entanglement_entropy, schmidt_number
from .thermo import K_from_beta, oscillator_entropy, rho_squared_from_beta
from .util import format_float, require_count, require_symbol_count

# Most rows one `thermo` sweep may print: 500 times the default sweep.
MAX_SWEEP_POINTS = 100_000


def _render(columns: list, rows: list, output_format: str) -> str:
    if output_format == "json":
        payload = {
            "columns": [str(c) for c in columns],
            "rows": rows,
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [",".join(str(c) for c in columns)]
    for row in rows:
        lines.append(",".join(format_float(value) if isinstance(value, float) else str(value)
                              for value in row))
    return "\n".join(lines) + "\n"


def _write(text: str, output_path) -> None:
    """Send the rendered output to the --output file, or to stdout without one."""
    if output_path:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _gaussian_pipeline(params: gm.GaussianParams, grid):
    return sample_state(lambda a, b: gm.wavefunction(params, a, b), grid)


def _params_options(fn):
    for option in reversed(
        [
            click.option("--rho", type=float, default=0.9, show_default=True,
                         help="Correlation coefficient in (-1, 1)."),
            click.option("--m1", type=float, default=1.0, show_default=True,
                         help="Mean of axis 1."),
            click.option("--m2", type=float, default=-1.0, show_default=True,
                         help="Mean of axis 2."),
            click.option("--sigma1", type=float, default=2.0, show_default=True,
                         help="Standard deviation of axis 1."),
            click.option("--sigma2", type=float, default=1.0, show_default=True,
                         help="Standard deviation of axis 2."),
        ]
    ):
        fn = option(fn)
    return fn


def _output_options(fn):
    for option in reversed(
        [
            click.option("--format", "output_format", type=click.Choice(["csv", "json"]),
                         default="csv", show_default=True, help="Output rendering."),
            click.option("--output", "output_path", type=click.Path(dir_okay=False),
                         default=None, help="Write to a file instead of stdout."),
        ]
    ):
        fn = option(fn)
    return fn


_BASE_OPTION = click.option(
    "--base", "log_base", type=click.Choice(["2", "e"]), default="e",
    show_default=True, help="Logarithm base for entropies and information."
)


@click.group()
def cli():
    """Schmidt spectra of discretized bipartite states, with exact Gaussian references."""


@cli.command("table1")
@_params_options
@click.option("--grids", default="30,50,100", show_default=True,
              help="Comma-separated grid sizes.")
@click.option("--span", type=float, default=6.0, show_default=True,
              help="Half-width of the grid box in standard deviations.")
@click.option("--count", type=int, default=6, show_default=True,
              help="Number of leading weights to report.")
@_output_options
def table1_command(grids, span, count, output_format, output_path, **gaussian):
    """Compare closed-form Schmidt weights with grid computations."""
    try:
        grid_sizes = tuple(int(g) for g in grids.split(",") if g.strip())
    except ValueError as exc:
        raise click.BadParameter(f"--grids must be comma-separated integers: {exc}")
    if not grid_sizes:
        raise click.BadParameter("--grids must name at least one grid size")
    params = gm.GaussianParams(**gaussian)
    require_count(count)
    grids = {n: build_grid(params, n, span) for n in grid_sizes}
    # Rows past the largest grid could only print 0 in every grid column.
    if count > max(grid_sizes):
        raise DomainError(f"cannot report {count} weights from grids of at most "
                          f"{max(grid_sizes)} cells per axis")
    theory_K = params.schmidt_number
    theory = gm.analytic_weights(theory_K, count)
    numeric = {}
    for n, grid in grids.items():
        spectrum = decompose(_gaussian_pipeline(params, grid))
        numeric[n] = (spectrum.weights, schmidt_number(spectrum.weights))
    rows = []
    for k in range(count):
        if theory[k] == 0.0:
            continue
        row = [k + 1, theory[k]]
        for n in grid_sizes:
            weights = numeric[n][0]
            row.append(float(weights[k]) if k < weights.size else 0.0)
        rows.append(row)
    rows.append(["K", theory_K] + [numeric[n][1] for n in grid_sizes])
    columns = ["k", "theory"] + [f"n{n}" for n in grid_sizes]
    _write(_render(columns, rows, output_format), output_path)


@cli.command("modes")
@_params_options
@click.option("--n", type=int, default=100, show_default=True, help="Grid cells per axis.")
@click.option("--span", type=float, default=6.0, show_default=True,
              help="Half-width of the grid box in standard deviations.")
@click.option("--count", type=int, default=4, show_default=True,
              help="Number of leading mode pairs to emit.")
@_output_options
def modes_command(n, span, count, output_format, output_path, **gaussian):
    """Emit analytic and grid Schmidt mode curves on the grid midpoints."""
    params = gm.GaussianParams(**gaussian)
    require_count(count)
    if count > n:
        raise DomainError(f"cannot report {count} modes from an n={n} grid")
    state = _gaussian_pipeline(params, build_grid(params, n, span))
    spectrum = decompose(state)
    if count > spectrum.rank:
        raise DomainError(f"cannot report {count} modes: the n={n} decomposition "
                          f"kept {spectrum.rank}")
    grid = state.grid
    rows = []
    for axis, x, modes, dx in (
        (1, grid.midpoints1, spectrum.modes1, grid.dx1),
        (2, grid.midpoints2, spectrum.modes2, grid.dx2),
    ):
        scale = 1.0 / math.sqrt(dx)
        for k, analytic in zip(range(count), gm.analytic_modes(params, axis, x)):
            # Sign-align each numeric curve with its analytic partner for plotting.
            numeric = modes[:, k] * scale
            if float(np.dot(numeric, analytic)) < 0.0:
                numeric = -numeric
            for j in range(x.size):
                rows.append([axis, k, float(x[j]), float(analytic[j]), float(numeric[j])])
    columns = ["axis", "k", "x", "analytic", "numeric"]
    _write(_render(columns, rows, output_format), output_path)


@cli.command("decompose")
@click.argument("state_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--n-symbols", type=int, default=1, show_default=True,
              help="Sample size for the information report.")
@click.option("--count", type=int, default=None,
              help="Limit the number of spectrum rows (default: all).")
@_BASE_OPTION
@_output_options
def decompose_command(state_file, n_symbols, count, log_base, output_format, output_path):
    """Decompose a state file into its Schmidt spectrum and summary scalars."""
    if count is not None:
        require_count(count)
    require_symbol_count(n_symbols)
    weights = decompose(read_state_file(state_file)).weights
    K = schmidt_number(weights)
    entropy = entanglement_entropy(weights, log_base)
    report = info_report(K, n_symbols)
    shown = weights if count is None else weights[:count]
    rows = [[k, float(w)] for k, w in enumerate(shown)]
    rows += [["K", K], ["S", entropy]] + _report_rows(report)
    _write(_render(["k", "lambda_k"], rows, output_format), output_path)


@cli.command("mutual-info")
@_params_options
@click.option("--n", type=int, default=200, show_default=True, help="Grid cells per axis.")
@click.option("--span", type=float, default=8.0, show_default=True,
              help="Half-width of the grid box in standard deviations.")
@_BASE_OPTION
@_output_options
def mutual_info_command(n, span, log_base, output_format, output_path, **gaussian):
    """Numeric mutual information of the discretized Gaussian vs. log K."""
    params = gm.GaussianParams(**gaussian)
    state = _gaussian_pipeline(params, build_grid(params, n, span))
    numeric = shannon_mi_numeric(state.probabilities(), log_base)
    analytic = gm.shannon_mi_gaussian(params.rho, log_base)
    rows = [
        ["n", n],
        ["span", float(span)],
        ["log_base", log_base],
        ["mi_numeric", numeric],
        ["mi_analytic", analytic],
        ["abs_error", abs(numeric - analytic)],
    ]
    _write(_render(["quantity", "value"], rows, output_format), output_path)


@cli.command("thermo")
@click.option("--beta-min", type=float, default=1e-3, show_default=True,
              help="Smallest beta in the sweep.")
@click.option("--beta-max", type=float, default=50.0, show_default=True,
              help="Largest beta in the sweep.")
@click.option("--points", type=int, default=200, show_default=True,
              help="Number of log-spaced sweep points.")
@_BASE_OPTION
@_output_options
def thermo_command(beta_min, beta_max, points, log_base, output_format, output_path):
    """Sweep the temperature bridge: beta, K, rho_squared, entropy."""
    if beta_max < beta_min:
        raise DomainError("beta-max must be >= beta-min")
    if points < 1:
        raise DomainError(f"points must be >= 1, got {points}")
    # The thermo maps' own guard (beta positive and finite, K in range) on
    # both bounds, before np.geomspace fills the sweep.
    for bound in (beta_min, beta_max):
        K_from_beta(bound)
    if points > MAX_SWEEP_POINTS:
        raise DomainError(f"points = {points} exceeds the budget of {MAX_SWEEP_POINTS}")
    # np.geomspace takes a power per point and then sets both ends exactly;
    # near the float limit that power overflows for an end, or for an
    # inner point that lies within rounding of beta_max.
    with np.errstate(over="ignore"):
        betas = np.geomspace(beta_min, beta_max, points)
    betas[np.isinf(betas)] = beta_max
    rows = []
    for beta in betas.tolist():
        rows.append([beta, K_from_beta(beta), rho_squared_from_beta(beta),
                     oscillator_entropy(beta, log_base)])
    columns = ["beta", "K", "rho_squared", "entropy"]
    _write(_render(columns, rows, output_format), output_path)


@cli.command("simulate")
@click.option("--rho", type=float, default=None,
              help="Build geometric weights from this correlation coefficient.")
@click.option("--weights-file", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Plain text file with one weight per line; a sum within 1e-6 of 1 "
                   "is renormalized to exactly 1.")
@click.option("--n", "n_symbols", type=int, default=1, show_default=True,
              help="Symbols per string.")
@click.option("--trials", type=int, default=100000, show_default=True,
              help="Number of string pairs to draw.")
@click.option("--seed", type=int, default=0, show_default=True, help="RNG seed.")
@click.option("--output", "output_path", type=click.Path(dir_okay=False), default=None,
              help="Write the JSON report to a file instead of stdout.")
def simulate_command(rho, weights_file, n_symbols, trials, seed, output_path):
    """Monte Carlo estimate of the accidental-coincidence probability."""
    if (rho is None) == (weights_file is None):
        raise click.UsageError("exactly one of --rho or --weights-file is required")
    if rho is not None:
        weights = gm.truncated_weights(gm.schmidt_number_from_rho(rho))
    else:
        weights = _renormalized(_read_weights_file(weights_file))
    report = run_coincidence_experiment(weights, n_symbols, trials, seed)
    _write(json.dumps(dataclasses.asdict(report), indent=2) + "\n", output_path)


@cli.command("info")
@click.option("--K", "K", type=float, default=None, help="Schmidt number (>= 1).")
@click.option("--rho", type=float, default=None,
              help="Correlation coefficient; K is derived from it.")
@click.option("--n-symbols", type=int, default=1, show_default=True,
              help="Sample size the information refers to.")
@_output_options
def info_command(K, rho, n_symbols, output_format, output_path):
    """Information report: bits, nats, microstates, coincidence probability."""
    if (K is None) == (rho is None):
        raise click.UsageError("exactly one of --K or --rho is required")
    if K is None:
        K = gm.schmidt_number_from_rho(rho)
    report = info_report(K, n_symbols)
    rows = [["K", report.K]] + _report_rows(report)
    _write(_render(["field", "value"], rows, output_format), output_path)


def _report_rows(report: InfoReport) -> list:
    """The information-report rows shared by `decompose` and `info`."""
    return [
        ["n_symbols", report.n_symbols],
        ["I_bits", report.I_bits],
        ["I_nats", report.I_nats],
        ["W", report.W],
        ["w_log_space", int(report.w_log_space)],
        ["p_coincidence", report.p_coincidence],
    ]


def _read_weights_file(path) -> np.ndarray:
    weights = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for i, line in enumerate(fh, start=1):
                text = line.strip()
                if not text:
                    continue
                try:
                    weights.append(float(text))
                except ValueError:
                    raise DomainError(f"invalid weight {text!r} on line {i} of {path}")
        except UnicodeDecodeError as exc:
            raise DomainError(f"byte 0x{exc.object[exc.start]:02x} in {path} is not UTF-8 text"
                              ) from exc
    if not weights:
        raise DomainError(f"no weights found in {path}")
    return np.asarray(weights, dtype=float)


def _renormalized(weights: np.ndarray) -> np.ndarray:
    """Rescale hand-written weights to sum 1, if they already do within 1e-6.

    Signs and finiteness are left to the weight validator downstream.
    """
    total = float(weights.sum())
    if abs(total - 1.0) > 1e-6:
        raise DomainError(f"weights sum to {total!r}; expected 1 within 1e-6")
    return weights / total


def main(argv=None) -> int:
    """Dispatch, mapping exceptions to exit codes (1 input, 2 numerical)."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except (StateFileError, DomainError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except NumericalError as exc:
        click.echo(f"numerical error: {exc}", err=True)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
