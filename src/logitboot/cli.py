"""Command-line interface.

Every run, failed or not, prints a single JSON document to stdout.  Its
``manifest`` block, built once per run by ``main``, records the subcommand,
package version, timestamp, the configuration (every option of the
subcommand except ``--input``, in declaration order, as parsed) and, for
subcommands that read a CSV, the input path.  A successful run adds the
results after it; a failed one adds an ``error`` block.  Warnings (ignored
CSV columns, a single-class response, dropped bootstrap replicates) go to
stderr as ``warning: <message>`` lines.

Determinism: all randomness flows from explicit seeds (``--seed``, with the
``LOGITBOOT_SEED`` environment variable as fallback default), and setting
``SOURCE_DATE_EPOCH`` pins the manifest timestamp, making output
byte-identical across runs.

Exit codes: 0 success, 1 usage error, 2 degenerate response, 3 numerical
failure (separation, singular information, or non-convergence), 4 input
file or parse error, or a stdout that cannot be written.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import warnings
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .data_io import (
    ENCODED_COLUMNS,
    SimulationSpec,
    _encoded,
    _read_columns,
    _simulate_columns,
    _write_csv,
    _write_study,
)
# The record-level API and the BCa steps stay importable here, where
# bench/tracing.py wraps these names; the CLI itself works on columns,
# leaves BCa to bca_intervals and calls none of them.
from .data_io import encode, load_csv, save_csv, simulate  # noqa: F401
from .inference import acceleration_from_jackknife, bca_ci, jackknife_estimates  # noqa: F401
from .errors import (
    DegenerateResponseError,
    DomainError,
    InsufficientReplicatesError,
    NotConvergedError,
    ParseError,
    ResamplingInstabilityError,
    SchemaError,
    SeparationError,
    UnknownPredictorError,
)
from .inference import (
    MIN_BCA_REPLICATES,
    _check_bootstrap_args,
    _check_level,
    _check_survivors,
    bca_intervals,
    bootstrap_fit,
    odds_report,
    odds_scale,
    percentile_ci,
    wald_ci,
)
from .model_core import EncodedDataset, FitConfig, FitResult, fit_mle
from .validation import (
    _check_split_args,
    _check_threshold,
    holdout_validate,
    probability_curves,
    split_sample_fit,
    standard_profiles,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# The most ages a curves grid may hold; each becomes a point per profile.
MAX_GRID_POINTS = 100_000

_PROFILE_NAMES = tuple(p.name for p in standard_profiles())


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this CLI reserves 2 for
    # degenerate data, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    # argparse drops a write that fails.  One to stdout (--help, --version)
    # is let through, so that entry ends the run with EXIT_IO.
    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def _timestamp() -> str:
    pinned = os.environ.get("SOURCE_DATE_EPOCH")
    if pinned is not None:
        try:
            moment = datetime.fromtimestamp(int(pinned), tz=timezone.utc)
        except (ValueError, OverflowError, OSError):
            raise DomainError("SOURCE_DATE_EPOCH must be an integer timestamp")
    else:
        moment = datetime.now(timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("LOGITBOOT_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise DomainError("LOGITBOOT_SEED must be an integer") from None


def _fit_config(args) -> FitConfig:
    return FitConfig(max_iterations=args.max_iter, tolerance=args.tol)


def _coefficient_map(names, values) -> dict[str, float]:
    return {name: float(v) for name, v in zip(names, values)}


def _fit_summary(fit: FitResult) -> dict:
    return {
        "coefficients": _coefficient_map(fit.column_names, fit.coefficients),
        "standard_errors": _coefficient_map(fit.column_names, fit.standard_errors),
        "iterations": fit.iterations,
        "converged": fit.converged,
    }


def _fit_payload(fit: FitResult) -> dict:
    report = odds_report(fit) if fit.converged else None
    payload = {
        "columns": list(fit.column_names),
        "coefficients": _coefficient_map(fit.column_names, fit.coefficients),
        "standard_errors": _coefficient_map(fit.column_names, fit.standard_errors),
        "covariance": [[float(v) for v in row] for row in fit.covariance],
        "log_likelihood": float(fit.log_likelihood),
        "deviance": float(fit.deviance),
        "iterations": fit.iterations,
        "converged": fit.converged,
    }
    if report is not None:
        payload["odds"] = [
            {"name": e.name, "log_odds": e.log_odds, "odds_ratio": e.odds_ratio}
            for e in report.entries
        ]
    return payload


def _interval_json(names, interval) -> dict:
    odds = odds_scale(interval)
    return {
        "name": names[interval.coefficient_index],
        "index": interval.coefficient_index,
        "method": interval.method,
        "level": interval.level,
        "fallback": interval.fallback,
        "log_odds": {"lower": interval.lower, "upper": interval.upper},
        "odds": {"lower": odds.lower, "upper": odds.upper},
    }


def _load_dataset(path) -> EncodedDataset:
    return _encoded(_read_columns(path))


def _cmd_fit(args):
    config = _fit_config(args)
    fit = fit_mle(_load_dataset(args.input), config)
    return _fit_payload(fit), EXIT_OK if fit.converged else EXIT_NUMERICAL


def _cmd_bootstrap(args):
    methods = ("wald", "percentile", "bca") if args.ci_method == "all" else (args.ci_method,)
    config = _fit_config(args)
    _check_level(args.ci_level)
    _check_bootstrap_args(args.replicates, args.seed, args.workers)
    if "bca" in methods:
        # Survivors never outnumber the replicates asked for.
        _check_survivors(args.replicates, MIN_BCA_REPLICATES, "BCa")
    data = _load_dataset(args.input)
    result = bootstrap_fit(
        data,
        config,
        replicates=args.replicates,
        master_seed=args.seed,
        workers=args.workers,
    )
    if result.dropped > 0:
        print(
            f"warning: dropped {result.dropped} of {result.requested} "
            "bootstrap replicates",
            file=sys.stderr,
        )
    fit = result.original_fit

    level, indices = args.ci_level, range(len(fit.column_names))
    intervals = []
    if "wald" in methods:
        intervals += wald_ci(fit, level)
    if "percentile" in methods:
        intervals += [percentile_ci(result, j, level) for j in indices]
    if "bca" in methods:
        intervals += bca_intervals(result, data, config, level)

    means = result.replicates.mean(axis=0)
    payload = {
        "columns": list(fit.column_names),
        "original": _fit_summary(fit),
        "replicates": {
            "requested": result.requested,
            "converged": result.converged,
            "dropped": result.dropped,
        },
        "bootstrap_means": _coefficient_map(fit.column_names, means),
        "intervals": [_interval_json(fit.column_names, i) for i in intervals],
    }
    return payload, EXIT_OK


def _cmd_split(args):
    sizes = _parse_list(args.sizes, "--sizes", int)
    config = _fit_config(args)
    _check_split_args(sizes, args.shuffle_seed)
    data = _load_dataset(args.input)
    report = split_sample_fit(data, sizes, config, shuffle_seed=args.shuffle_seed)
    entries = [
        {"size": e.size, "error": e.error}
        if e.fit is None
        else {"size": e.size, "error": None, **_fit_summary(e.fit)}
        for e in report.entries
    ]
    return {"columns": list(data.column_names), "splits": entries}, EXIT_OK


def _cmd_validate(args):
    config = _fit_config(args)
    _check_threshold(args.threshold)
    data = _load_dataset(args.input)
    n, m = data.n_observations, args.train_count
    if not (0 < m < n):
        raise DomainError(
            f"--train-count must lie strictly between 0 and the row count ({n})"
        )
    train = EncodedDataset(data.design[:m], data.response[:m], data.column_names)
    fit = fit_mle(train, config)
    report = holdout_validate(data, fit, np.arange(m, n), threshold=args.threshold)
    payload = {
        "columns": list(data.column_names),
        "train": {
            "count": args.train_count,
            "coefficients": _coefficient_map(fit.column_names, fit.coefficients),
            "iterations": fit.iterations,
            "converged": fit.converged,
        },
        "report": {
            "test_count": int(len(report.test_indices)),
            "threshold": report.threshold,
            "true_positive": report.true_positive,
            "false_positive": report.false_positive,
            "true_negative": report.true_negative,
            "false_negative": report.false_negative,
            "accuracy": report.accuracy,
        },
    }
    return payload, EXIT_OK


def _parse_list(text: str, flag: str, kind=float) -> list:
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise DomainError(f"{flag} expects a comma-separated list of {noun}") from None


def _coefficients(args) -> list[float]:
    values = _parse_list(args.coefficients, "--coefficients")
    if len(values) != len(ENCODED_COLUMNS):
        raise DomainError(
            f"--coefficients expects {len(ENCODED_COLUMNS)} values in order "
            f"{', '.join(ENCODED_COLUMNS)}"
        )
    return values


def _curves_fit(args) -> FitResult:
    if (args.coefficients is None) == (args.fit_json is None):
        raise DomainError("pass exactly one of --coefficients or --fit-json")
    if args.coefficients is not None:
        names, values = ENCODED_COLUMNS, _coefficients(args)
    else:
        with open(args.fit_json, encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise SchemaError(f"{args.fit_json}: not valid JSON ({exc})") from None
        try:
            names = tuple(doc["columns"])
            values = [float(doc["coefficients"][name]) for name in names]
        except (KeyError, TypeError):
            raise SchemaError(
                f"{args.fit_json}: missing 'columns'/'coefficients' fit fields"
            ) from None
        except (ValueError, OverflowError):
            raise SchemaError(f"{args.fit_json}: non-numeric coefficient") from None
    if not np.all(np.isfinite(values)):
        raise DomainError("curve coefficients must be finite")
    width = len(names)
    # Coefficients-only carrier; covariance is irrelevant to curve heights.
    return FitResult(
        coefficients=np.array(values),
        standard_errors=np.zeros(width),
        covariance=np.zeros((width, width)),
        log_likelihood=0.0,
        deviance=0.0,
        iterations=0,
        converged=True,
        column_names=names,
    )


def _cmd_curves(args):
    # A --fit-json file is data: it is read after the last option check.
    from_file = args.coefficients is None and args.fit_json is not None
    fit = None if from_file else _curves_fit(args)
    if not np.all(np.isfinite([args.age_from, args.age_to, args.age_step])):
        raise DomainError("--age-from, --age-to and --age-step must be finite")
    if args.age_step <= 0:
        raise DomainError("--age-step must be positive")
    if args.age_to < args.age_from:
        raise DomainError("--age-to must be at least --age-from")
    # The point count np.arange computes, checked before anything is
    # allocated; a range that overflows gives an infinite count.
    stop = args.age_to + args.age_step / 2.0
    if not (stop - args.age_from) / args.age_step <= MAX_GRID_POINTS:
        raise DomainError(
            "--age-from, --age-to and --age-step give an age grid of more than "
            f"{MAX_GRID_POINTS} points"
        )
    wanted = [name for name in map(str.strip, args.profiles.split(",")) if name]
    unknown = set(wanted) - set(_PROFILE_NAMES)
    if unknown or not wanted:
        raise DomainError(
            f"--profiles accepts a comma-separated subset of {', '.join(_PROFILE_NAMES)}"
        )
    if args.format == "csv" and args.out is None:
        raise DomainError("--format csv requires --out FILE")
    if from_file:
        fit = _curves_fit(args)
    grid = np.arange(args.age_from, stop, args.age_step)
    by_name = {p.name: p for p in standard_profiles(grid)}
    points = [
        {"profile": p.profile, "age": p.age, "probability": p.probability}
        for p in probability_curves(fit, [by_name[name] for name in wanted])
    ]
    if args.out is not None:
        if args.format == "csv":
            _write_csv(args.out, *zip(*(p.values() for p in points)),
                       header=("profile", "age", "probability"))
        else:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(points, handle, indent=2)
                handle.write("\n")

    payload = {"columns": list(fit.column_names), "points": points}
    if args.out is not None:
        payload["output"] = args.out
    return payload, EXIT_OK


def _cmd_simulate(args):
    spec = SimulationSpec(
        coefficients=tuple(_coefficients(args)),
        n=args.n,
        age_low=args.age_low,
        age_high=args.age_high,
        employment_rate=args.p_emp,
        female_rate=args.p_gender,
        seed=args.seed,
    )
    try:
        columns = _simulate_columns(spec)
    except (MemoryError, ValueError):
        # NumPy's answers to a size it cannot allocate (MemoryError) or
        # index (ValueError); spec's checks leave no other ValueError.
        raise DomainError(f"--n {spec.n} is too many rows to draw") from None
    _write_study(args.out, columns)
    payload = {
        "output": args.out,
        "records": spec.n,
        "positive_fraction": int(columns.hiv.sum()) / spec.n,
    }
    return payload, EXIT_OK


def _config_echo(args) -> dict:
    # Every parsed option in declaration order; the input path has its own
    # manifest key.  JSON has no token for NaN or infinity, so a non-finite
    # number is echoed as its text ("nan", "inf", "-inf").
    return {
        key: value if not isinstance(value, float) or np.isfinite(value) else repr(value)
        for key, value in vars(args).items()
        if key not in ("subcommand", "handler", "input")
    }


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="logitboot",
        description="Logistic regression with bootstrap inference.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    fit_flags = argparse.ArgumentParser(add_help=False)
    fit_flags.add_argument("--input", required=True,
                           help="CSV with Age, Gender/Sex, Emp, HIV")
    fit_flags.add_argument("--tol", type=float, default=1e-8,
                           help="score tolerance for convergence (default 1e-8)")
    fit_flags.add_argument("--max-iter", type=int, default=25,
                           help="Newton iteration budget (default 25)")

    p = sub.add_parser("fit", parents=[fit_flags], help="fit the model to a CSV file")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("bootstrap", parents=[fit_flags],
                       help="case-resampling bootstrap intervals")
    p.add_argument("--replicates", type=int, default=10_000,
                   help="bootstrap replicates (default 10000)")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (default: LOGITBOOT_SEED or 0)")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility (must be >= 1); replicates "
                        "always run serially and results do not depend on it")
    p.add_argument("--ci-level", type=float, default=0.95)
    p.add_argument("--ci-method", choices=["wald", "percentile", "bca", "all"],
                   default="percentile",
                   help="bca additionally runs n leave-one-out refits")
    p.set_defaults(handler=_cmd_bootstrap)

    p = sub.add_parser("split", parents=[fit_flags],
                       help="refit on nested prefix subsets")
    p.add_argument("--sizes", default="50,100,200,300,400",
                   help="comma-separated strictly increasing subset sizes")
    p.add_argument("--shuffle-seed", type=int, default=None,
                   help="permute rows with this seed before splitting")
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser("validate", parents=[fit_flags],
                       help="train on a prefix, score the rest")
    p.add_argument("--train-count", type=int, default=300,
                   help="rows used for training (default 300)")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="classify 1 when probability >= threshold (default 0.5)")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("curves", help="probability-by-age curves per profile")
    p.add_argument("--coefficients", default=None,
                   help="inline values: Intercept,Age,Emp,Gender")
    p.add_argument("--fit-json", default=None,
                   help="JSON document produced by the fit subcommand")
    p.add_argument("--profiles", default=",".join(_PROFILE_NAMES))
    p.add_argument("--age-from", type=float, default=0.0)
    p.add_argument("--age-to", type=float, default=120.0)
    p.add_argument("--age-step", type=float, default=10.0)
    p.add_argument("--format", choices=["json", "csv"], default="json",
                   help="format of the --out file")
    p.add_argument("--out", default=None, help="write curve points to this file")
    p.set_defaults(handler=_cmd_curves)

    p = sub.add_parser("simulate", help="draw a synthetic study CSV")
    p.add_argument("--seed", type=int, default=None,
                   help="generator seed (default: LOGITBOOT_SEED or 0)")
    p.add_argument("--coefficients", required=True,
                   help="generating values: Intercept,Age,Emp,Gender")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--age-low", type=float, default=0.0)
    p.add_argument("--age-high", type=float, default=90.0)
    p.add_argument("--p-emp", type=float, default=0.5,
                   help="P(Emp = 1), the unemployment rate")
    p.add_argument("--p-gender", type=float, default=0.5,
                   help="P(Gender = 1), the female rate")
    p.add_argument("--out", required=True, help="CSV destination")
    p.set_defaults(handler=_cmd_simulate)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    # A run's warnings read like its other stderr lines.  Python's own
    # format would cite a line of this package, so stderr would depend on
    # where the package is installed.
    print(f"warning: {message}", file=sys.stderr)


def _error(exc: Exception) -> dict:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Both environment defaults are read before the handler runs.  A bad one
    # fails the run (the seed's message first), while the manifest still
    # records whichever of the two could be read.
    failure = None
    if hasattr(args, "seed"):
        try:
            args.seed = _resolve_seed(args.seed)
        except DomainError as exc:
            failure = exc
    try:
        stamp = _timestamp()
    except DomainError as exc:
        stamp, failure = None, failure or exc
    manifest = {
        "subcommand": args.subcommand,
        "version": __version__,
        "timestamp": stamp,
        "config": _config_echo(args),
    }
    if hasattr(args, "input"):
        manifest["input"] = args.input
    try:
        if failure is not None:
            raise failure
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            payload, code = args.handler(args)
    except DegenerateResponseError as exc:
        payload, code = _error(exc), EXIT_DEGENERATE
    except (
        SeparationError,
        NotConvergedError,
        InsufficientReplicatesError,
        ResamplingInstabilityError,
    ) as exc:
        payload, code = _error(exc), EXIT_NUMERICAL
    except (OSError, ParseError, SchemaError) as exc:
        payload, code = _error(exc), EXIT_IO
    except (DomainError, UnknownPredictorError) as exc:
        payload, code = _error(exc), EXIT_USAGE
    print(json.dumps({"manifest": manifest, **payload}, indent=2))
    return code


def entry() -> None:
    """Run ``main`` as a process: the ``logitboot`` script and ``python -m logitboot``."""
    try:
        try:
            code = main()
        except SystemExit as exc:
            # argparse's own exits: --help and --version print to stdout and
            # leave with 0, a usage error leaves with EXIT_USAGE.
            code = exc.code
        sys.stdout.flush()
    except OSError:
        # main turns every other OSError into a document, so this one is
        # stdout's own write failing (a closed pipe, a full disk).  Point fd 1
        # at devnull, as the signal module's note on SIGPIPE does, so that the
        # flush at shutdown cannot fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = EXIT_IO
    # The process ends here: let the collections at shutdown skip every
    # object made so far (NumPy's and this package's import graph) instead of
    # walking it.  atexit handlers and the stdio flush still run.
    gc.freeze()
    sys.exit(code)
