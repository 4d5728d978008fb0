"""Command-line entry point.

Subcommands: fit, estimate, theory, simulate, bootstrap.  Exit codes:
0 success, 1 usage error (bad flags, missing files, malformed config,
restriction or Fisher file),
2 numerical failure (non-convergence, singular systems, bad data values).
Every failure prints a one-line machine-parseable `error: <category>: ...`
to stderr, followed by any longer detail.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np
from scipy.special import chdtrc

from .application import BootstrapConfig, DataFormatError, bootstrap_bre, load_dataset
from .asymptotics import LocalAlternative, asymptotic_amse, asymptotic_bias
from .bell_glm import aic, fit, loglik
from .linalg import SingularMatrixError, spd_inverse
from .montecarlo import ConvergenceError, SimConfig, run_simulation
from .shrinkage import (
    ESTIMATOR_ORDER,
    _numpy_float,
    compute_all,
    content_lines,
    estimator_names,
    load_restriction,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2

_DEFAULT_SEED = 0


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        vals = [_numpy_float(tok) for tok in text.split(",") if tok.strip() != ""]
        if vals and all(math.isfinite(v) for v in vals):
            return vals
    except ValueError:
        pass
    raise UsageError(
        f"{what} must be a nonempty comma-separated list of finite numbers, got {text!r}"
    )


def _alpha(text: str) -> float:
    """Type of every --alpha flag: a pretest level in (0, 1)."""
    try:
        alpha = _numpy_float(text)
        if 0.0 < alpha < 1.0:
            return alpha
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a number in (0, 1), got {text!r}")


def _positive_int(text: str) -> int:
    """Type of the --threads flag: an integer >= 1."""
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process."""
    parser = _Parser(prog="bellshrink", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_data_flags(p):
        p.add_argument("--data", required=True, help="input CSV with a header row")
        p.add_argument("--response", required=True, help="name of the count response column")
        p.add_argument(
            "--covariates", required=True, help="comma-separated covariate column names"
        )

    p_fit = sub.add_parser("fit", help="fit the unrestricted regression")
    add_data_flags(p_fit)
    p_fit.add_argument("--out", help="write coefficient table CSV here")
    p_fit.set_defaults(func=_cmd_fit)

    p_est = sub.add_parser("estimate", help="compute the full estimator suite")
    add_data_flags(p_est)
    p_est.add_argument("--restriction", required=True, help="restriction file (H | h rows)")
    p_est.add_argument("--alpha", type=_alpha, default=0.05, help="pretest level (default 0.05)")
    p_est.add_argument("--out", help="write estimator table CSV here")
    p_est.set_defaults(func=_cmd_estimate)

    p_th = sub.add_parser("theory", help="asymptotic bias and AMSE-trace curves")
    p_th.add_argument("--restriction", required=True, help="restriction file; h entries ignored")
    p_th.add_argument("--fisher", help="CSV of the k x k information limit (default identity)")
    p_th.add_argument("--alpha", type=_alpha, default=0.05, help="pretest level (default 0.05)")
    p_th.add_argument("--gamma", help="drift vector, comma-separated (scalar broadcasts)")
    p_th.add_argument("--delta-grid", dest="delta_grid", help="comma-separated noncentralities")
    p_th.add_argument("--direction", help="drift direction for --delta-grid (default first axis)")
    p_th.add_argument("--out", help="write the curve/point CSV here")
    p_th.set_defaults(func=_cmd_theory)

    p_sim = sub.add_parser("simulate", help="run relative-efficiency experiments")
    p_sim.add_argument("--config", required=True, help="key-value experiment file")
    p_sim.add_argument("--seed", type=int, help="override the config seed")
    p_sim.add_argument("--threads", type=_positive_int, default=1, help="worker processes (default 1)")
    p_sim.add_argument("--out", required=True, help="write the results CSV here")
    p_sim.set_defaults(func=_cmd_simulate)

    p_boot = sub.add_parser("bootstrap", help="bootstrap relative efficiencies")
    add_data_flags(p_boot)
    p_boot.add_argument("--restriction", required=True, help="restriction file (H | h rows)")
    p_boot.add_argument("--alpha", type=_alpha, default=0.05, help="pretest level (default 0.05)")
    p_boot.add_argument("--resample-size", dest="resample_size", type=int, default=40)
    p_boot.add_argument("--replications", type=int, default=1000)
    p_boot.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    p_boot.add_argument("--out", help="write the BRE report CSV here")
    p_boot.set_defaults(func=_cmd_bootstrap)
    return parser


def _require_files(args) -> None:
    for flag in ("data", "restriction", "config", "fisher"):
        path = getattr(args, flag, None)
        if path is not None and not os.path.isfile(path):
            what = "is a directory" if os.path.isdir(path) else "file not found"
            raise UsageError(f"--{flag} {what}: {path}")


def _fmt(x) -> str:
    """A number as every CSV and table of the package prints it."""
    return format(float(x), ".12g")


def _csv(header: str, rows) -> list[str]:
    """The lines of a CSV file: the header, then one line per row, with
    floats (Python or numpy) as `_fmt` prints them and other cells by str."""

    def cell(x) -> str:
        return _fmt(x) if isinstance(x, (float, np.floating)) else str(x)

    return [header, *(",".join(map(cell, row)) for row in rows)]


def _write(path, lines) -> None:
    """Write the lines of `_csv` as UTF-8 text, each ended by one LF, so
    output files have the same bytes on every platform.  Every --out file
    goes through here; no other module of the package writes a file."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _print_table(headers, rows) -> None:
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _load(args):
    covs = [c.strip() for c in args.covariates.split(",") if c.strip()]
    if not covs:
        raise UsageError(f"--covariates must name at least one column, got {args.covariates!r}")
    _reject_repeats(covs, "--covariates", "a repeated column makes the design rank deficient")
    return load_dataset(args.data, args.response, covs)


def _reject_repeats(values: list, what: str, why: str) -> None:
    """A usage error naming the values that occur more than once."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise UsageError(f"{what} repeats {repeated}; {why}")


def _read(reader, path):
    """reader(path) for an input file; the ValueError of a malformed or
    non-UTF-8 file, which names the file, becomes a usage error."""
    try:
        return reader(path)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load_restricted(args):
    """The data, its summary and a restriction with one column per
    coefficient (intercept plus --covariates)."""
    data, summary = _load(args)
    rest = _read(load_restriction, args.restriction)
    if rest.H.shape[1] != data.n_params:
        raise UsageError(
            f"--restriction has {rest.H.shape[1]} columns; the intercept and "
            f"{data.n_params - 1} covariate(s) need {data.n_params}"
        )
    return data, summary, rest


def _coefficient_names(summary) -> tuple[str, ...]:
    return ("intercept", *summary.covariate_columns)


def _cmd_fit(args) -> int:
    data, summary = _load(args)
    print(
        f"n = {summary.n_rows} rows; response mean {summary.response_mean:.6g}, "
        f"variance {summary.response_variance:.6g} "
        f"(overdispersion ratio {summary.overdispersion:.6g})"
    )
    model = fit(data)
    if not model.converged:
        raise ConvergenceError(f"fit did not converge in {model.n_iter} iterations")
    se = np.sqrt(np.diag(spd_inverse(model.fisher_info)))
    names = _coefficient_names(summary)
    _print_table(
        ["coefficient", "estimate", "se"],
        [[n, _fmt(b), _fmt(s)] for n, b, s in zip(names, model.beta, se)],
    )
    print(f"loglik = {_fmt(loglik(model.beta, data))}")
    print(f"AIC = {_fmt(aic(model, data))}")
    if args.out:
        _write(args.out, _csv("coefficient,estimate,se", zip(names, model.beta, se)))
    return EXIT_OK


def _cmd_estimate(args) -> int:
    data, summary, rest = _load_restricted(args)
    model = fit(data)
    if not model.converged:
        raise ConvergenceError(f"fit did not converge in {model.n_iter} iterations")
    est_set = compute_all(model, rest, args.alpha)
    r = rest.n_restrictions
    p_value = float(chdtrc(r, est_set.f_stat))
    names = _coefficient_names(summary)
    ests = estimator_names(r)
    rows = [(est, getattr(est_set, est.lower())) for est in ests]
    _print_table(
        ["estimator", *names],
        [[est, *(_fmt(v) for v in vec)] for est, vec in rows],
    )
    print(f"F_n = {_fmt(est_set.f_stat)} on {r} restriction(s), p-value = {_fmt(p_value)}")
    if len(ests) < len(ESTIMATOR_ORDER):
        print("note: James-Stein estimators need at least 3 restrictions; skipped")
    if args.out:
        cells = [
            (est, n, v, est_set.f_stat, p_value) for est, vec in rows for n, v in zip(names, vec)
        ]
        _write(args.out, _csv("estimator,coefficient,estimate,f_stat,p_value", cells))
    return EXIT_OK


def _read_fisher(path, k: int) -> np.ndarray:
    """The k x k matrix of a --fisher file: one row per line, entries
    separated by commas in numpy's float syntax, '#' starting a comment.
    A malformed file, or a matrix that is not symmetric positive definite,
    is a usage error that names it."""
    rows = []
    for lineno, line in _read(content_lines, path):
        try:
            rows.append([_numpy_float(tok) for tok in line.split(",")])
        except ValueError:
            raise UsageError(f"{path}:{lineno}: expected comma-separated numbers") from None
    if len(rows) != k or any(len(row) != k for row in rows):
        raise UsageError(f"{path}: --fisher must be a {k}x{k} matrix")
    fisher = np.array(rows)
    try:
        spd_inverse(fisher)
    except SingularMatrixError as exc:
        raise UsageError(f"{path}: --fisher must be symmetric positive definite ({exc})") from None
    return fisher


def _theory_values(la: LocalAlternative, ests, alpha):
    """(estimator, bias, AMSE) of each estimator at every drift of `la`."""
    for est in ests:
        amse = asymptotic_amse(est, la, alpha=alpha)
        yield est, asymptotic_bias(est, la, alpha=alpha), amse


def _cmd_theory(args) -> int:
    rest = _read(load_restriction, args.restriction)
    r, k = rest.H.shape
    fisher = _read_fisher(args.fisher, k) if args.fisher else np.eye(k)
    if (args.gamma is None) == (args.delta_grid is None):
        raise UsageError("theory needs exactly one of --gamma or --delta-grid")
    if args.direction is not None and args.delta_grid is None:
        raise UsageError("--direction applies only with --delta-grid")
    ests = estimator_names(r)
    if args.gamma is not None:
        gamma = _parse_floats(args.gamma, "--gamma")
        if len(gamma) == 1:
            gamma = gamma * r
        if len(gamma) != r:
            raise UsageError(f"--gamma needs {r} entries (or one to broadcast), got {len(gamma)}")
        la = LocalAlternative(gamma=np.array(gamma), fisher=fisher, restriction=rest)
        cells = []
        table = []
        for est, bias, amse in _theory_values(la, ests, args.alpha):
            tr = float(np.trace(amse))
            table.append([est, _fmt(la.delta), _fmt(float(bias @ bias) ** 0.5), _fmt(tr)])
            cells += [(est, i, bias[i], amse[i, i], tr) for i in range(k)]
        _print_table(["estimator", "delta", "bias_norm", "amse_trace"], table)
        if args.out:
            _write(args.out, _csv("estimator,component,bias,amse_diag,amse_trace", cells))
        return EXIT_OK
    deltas = _parse_floats(args.delta_grid, "--delta-grid")
    if any(d < 0 for d in deltas):
        raise UsageError("--delta-grid entries must be >= 0")
    direction = np.zeros(r)
    direction[0] = 1.0
    if args.direction is not None:
        vals = _parse_floats(args.direction, "--direction")
        if len(vals) != r:
            raise UsageError(f"--direction needs {r} entries, got {len(vals)}")
        direction = np.array(vals)
        if not np.any(direction != 0.0):
            raise UsageError("--direction must be a nonzero vector")
    # Scale the direction so the stated delta is the realized noncentrality,
    # after an exact power-of-two rescaling that brings its largest entry
    # into [0.5, 1), so its own noncentrality cannot overflow or underflow.
    direction = np.ldexp(direction, -np.frexp(np.max(np.abs(direction)))[1])
    unit = direction / np.sqrt(LocalAlternative(direction, fisher, rest).delta)
    # The whole grid is one stack of drifts: one pass per estimator.
    la = LocalAlternative(gamma=np.sqrt(deltas)[:, None] * unit, fisher=fisher, restriction=rest)
    curves = [
        (
            est,
            np.sqrt((bias[:, None, :] @ bias[:, :, None])[:, 0, 0]),  # one dot per row
            np.trace(amse, axis1=1, axis2=2),
        )
        for est, bias, amse in _theory_values(la, ests, args.alpha)
    ]
    lines = _csv(
        "delta,estimator,bias_norm,amse_trace",
        (
            (d, est, norms[i], traces[i])
            for i, d in enumerate(deltas)
            for est, norms, traces in curves
        ),
    )
    for line in lines[: min(len(lines), 12)]:
        print(line)
    if len(lines) > 12:
        print(f"... {len(lines) - 1} rows total")
    if args.out:
        _write(args.out, lines)
    return EXIT_OK


_SIM_KEYS = {"n", "p", "tau", "replications", "alpha", "seed"}


def _parse_sim_config(path) -> dict:
    values: dict = {}
    for lineno, line in _read(content_lines, path):
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        val = val.strip()
        if key not in _SIM_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r} (known: {sorted(_SIM_KEYS)})")
        if key in values:
            first = values[key][1]
            raise UsageError(f"{path}:{lineno}: key {key!r} already set on line {first}")
        values[key] = (val, lineno)
    for required in ("n", "p", "tau"):
        if required not in values:
            raise UsageError(f"{path}: missing required key {required!r}")

    def listed(key, cast, what):
        val, lineno = values[key]
        try:
            vals = [cast(tok) for tok in val.split(",") if tok.strip()]
        except ValueError:
            raise UsageError(f"{path}:{lineno}: {key} must be comma-separated {what}") from None
        if not vals:
            raise UsageError(f"{path}:{lineno}: {key} needs at least one value")
        return vals

    out = {
        "n": listed("n", int, "integers"),
        "p": listed("p", int, "integers"),
        "tau": listed("tau", _numpy_float, "numbers"),
    }
    for key, cast in (("replications", int), ("alpha", _numpy_float), ("seed", int)):
        if key in values:
            val, lineno = values[key]
            try:
                out[key] = cast(val)
            except ValueError:
                what = "an integer" if cast is int else "a number"
                raise UsageError(f"{path}:{lineno}: {key} must be {what}") from None
    return out


def _cmd_simulate(args) -> int:
    raw = _parse_sim_config(args.config)
    for key in ("n", "p"):
        why = "a repeat would rerun the same replications"
        _reject_repeats(raw[key], f"{args.config}: {key}", why)
    if args.seed is not None:
        raw["seed"] = args.seed
    # SimConfig holds the defaults of the keys the file leaves out
    settings = {key: raw[key] for key in ("replications", "alpha", "seed") if key in raw}
    try:
        configs = [
            SimConfig(n=n, p=p, tau_grid=tuple(raw["tau"]), **settings)
            for n in raw["n"]
            for p in raw["p"]
        ]
    except ValueError as exc:
        raise UsageError(f"{args.config}: {exc}") from None
    grid = []
    for cfg in configs:
        result = run_simulation(cfg, threads=args.threads)
        grid.extend(result.grid)
        for gp in result.grid:
            print(
                f"(n={gp.n}, p={gp.p}, tau={gp.tau:g}): "
                + "  ".join(f"SRE[{e}]={gp.sre[e]:.4f}" for e in ESTIMATOR_ORDER[1:])
                + f"  retries={gp.n_retry}"
            )
    # One row per ratio estimator per grid point, Table-1 layout; the
    # long-format SRE-vs-tau curves are its first four columns and sre.
    rows = [
        (gp.n, gp.p, gp.tau, name, gp.smse[name], gp.sre[name], gp.sre_se[name], gp.n_retry)
        for gp in grid
        for name in ESTIMATOR_ORDER[1:]
    ]
    _write(args.out, _csv("n,p,tau,estimator,smse,sre,sre_se,n_retry", rows))
    stem, ext = os.path.splitext(args.out)
    curves_path = f"{stem}_curves{ext or '.csv'}"
    _write(curves_path, _csv("n,p,tau,estimator,sre", ((*row[:4], row[5]) for row in rows)))
    print(f"wrote {len(rows)} rows to {args.out} and curves to {curves_path}")
    return EXIT_OK


def _cmd_bootstrap(args) -> int:
    data, summary, rest = _load_restricted(args)
    if args.resample_size > data.n_obs:
        raise UsageError(
            f"--resample-size {args.resample_size} exceeds the {data.n_obs} rows of --data"
        )
    try:
        cfg = BootstrapConfig(
            restriction=rest,
            resample_size=args.resample_size,
            replications=args.replications,
            alpha=args.alpha,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(
        f"n = {summary.n_rows} rows; overdispersion ratio {summary.overdispersion:.6g}"
    )
    report = bootstrap_bre(data, cfg)
    print(
        f"AIC full = {_fmt(report.aic_full)}, restricted = {_fmt(report.aic_restricted)}; "
        f"F_n = {_fmt(report.f_stat)}"
    )
    names = _coefficient_names(summary)
    _print_table(
        ["estimator", "bre", *names],
        [
            [row.name, _fmt(row.bre), *(f"{b:.6g} ({s:.3g})" for b, s in zip(row.coefficients, row.se))]
            for row in report.rows
        ],
    )
    print(f"failed refits: {report.n_retry} of {report.replications} replications")
    if args.out:
        # Table-2 layout: one row per estimator per coefficient.
        cells = [
            (row.name, n, b, s, row.bre)
            for row in report.rows
            for n, b, s in zip(names, row.coefficients, row.se)
        ]
        _write(args.out, _csv("estimator,coefficient,estimate,se,bre", cells))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _require_files(args)
        return args.func(args)
    except SystemExit as exc:  # --help and friends
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataFormatError as exc:
        print(f"error: data: {_first_line(exc)}", file=sys.stderr)
        _detail(exc)
        return EXIT_NUMERICAL
    except (ValueError, RuntimeError, np.linalg.LinAlgError, OverflowError) as exc:
        print(f"error: numerical: {_first_line(exc)}", file=sys.stderr)
        _detail(exc)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: io: {_first_line(exc)}", file=sys.stderr)
        return EXIT_NUMERICAL


def _first_line(exc) -> str:
    text = str(exc) or exc.__class__.__name__
    return text.splitlines()[0]


def _detail(exc) -> None:
    text = str(exc)
    if "\n" in text:
        print(text, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
