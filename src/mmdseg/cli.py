"""Command line interface.

Subcommands: detect-u, detect-s, detect-ss, detect-forward, simulate,
oracle-curve, benchmark.  Exit codes: 0 success, 2 configuration error,
3 data error.  Stdout and every output file are byte-identical given
identical inputs and flags; after a command that succeeds, run_command
prints its one `elapsed_seconds=` line to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, fields

from . import kernel
from .amoc import AmocConfig
from .benchmark import BenchmarkCell, run_benchmark
from .dataio import (
    check_writable,
    csv_text,
    dumps_json,
    load_csv,
    save_csv,
    truth_sidecar_path,
    write_json,
    write_text,
)
from .errors import ConfigurationError, DataError
from .mmd import rho_values
from .oracle import oracle_curve
from .segment import BUDGETS, check_budget, detect, prepare
from .simulate import DEFAULT_GRID_SIZE, MODEL_IDS, ModelSpec, generate

_BOOLEAN_WORDS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


def read_config_file(path) -> list[tuple[str, str]]:
    """Plain key=value lines, in file order; '#' starts a comment."""
    pairs = []
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for ln, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigurationError(
                        f"{path}: line {ln} is not key=value: {raw.strip()!r}"
                    )
                key, value = line.split("=", 1)
                pairs.append((key.strip(), value.strip()))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    return pairs


class Parser(argparse.ArgumentParser):
    """Parser whose usage errors raise ConfigurationError (exit 2 in run_command)
    instead of printing usage text and exiting; the experiment script uses it too."""

    def error(self, message):
        raise ConfigurationError(message)


class _CommandParser(Parser):
    """Subcommand parser that reads --config FILE ahead of the command line.

    Each key=value line becomes the token --key=value (underscores in the
    key read as dashes) placed before the command-line tokens, so argparse
    types and checks every value, and explicit flags, coming later, win.
    Keys are the subcommand's long option names; a switch such as add_one
    takes a true or a false word.
    """

    def parse_known_args(self, args=None, namespace=None):
        parsed, rest = super().parse_known_args(args, namespace)
        path = getattr(parsed, "config", None)
        if path is None:
            return parsed, rest
        tokens = []
        for key, value in read_config_file(path):
            flag = "--" + key.replace("_", "-")
            action = self._option_string_actions.get(flag)
            if action is None or action.dest in ("config", "help"):
                raise ConfigurationError(f"{path}: unknown config key {key!r}")
            if action.nargs != 0:
                tokens.append(f"{flag}={value}")
            elif value.lower() not in _BOOLEAN_WORDS:
                raise ConfigurationError(f"{path}: {key}={value!r} is not a true or false word")
            elif _BOOLEAN_WORDS[value.lower()]:
                tokens.append(flag)
        return super().parse_known_args([*tokens, *args], namespace)


# The AmocConfig fields only the permutation test reads; algorithm s runs none.
_TEST_FIELDS = ("R", "alpha", "add_one")


def _amoc_config(args) -> AmocConfig:
    """The flags given; AmocConfig supplies every other field.  ConfigurationError
    for a given -R whose statistics (16 bytes per draw) exceed the memory available."""
    given = {f.name: getattr(args, f.name, None) for f in fields(AmocConfig)}
    config = AmocConfig(**{name: value for name, value in given.items() if value is not None})
    available = kernel._available_memory() if given["R"] is not None else None
    if available is not None and 16 * config.R > available:
        raise ConfigurationError(f"-R {config.R} needs about {16 * config.R / 1e6:.3g} MB for the "
                                 f"permutation statistics, {available / 1e6:.3g} MB available")
    return config


def _bandwidth(raw: str) -> float | None:
    """--bandwidth value: None for 'median', else a number."""
    if raw.lower() == "median":
        return None
    try:
        return float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be 'median' or a number, got {raw!r}")


def int_list(raw: str) -> tuple[int, ...]:
    """Comma-separated integers (segment lengths, sample sizes)."""
    try:
        lengths = tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got {raw!r}")
    if not lengths:
        raise argparse.ArgumentTypeError("must not be empty")
    return lengths


def _param(pair: str) -> tuple[str, float]:
    """One --param name=value."""
    name, _, value = pair.partition("=")
    try:
        return name.strip(), float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects name=number, got {pair!r}")


# ---------------------------------------------------------------------------
# detect-*
# ---------------------------------------------------------------------------


def _boundary_p_values(trace) -> dict[int, float]:
    """p-value of the rejecting test that created each boundary, when any."""
    out = {}
    for rec in trace:
        if rec.get("op") == "test" and rec.get("reject"):
            out[rec["candidate"]] = rec["p_value"]
    return out


def _cmd_detect(args) -> int:
    algorithm = args.command.removeprefix("detect-")
    config = _amoc_config(args)
    h = args.bandwidth
    budget = check_budget(algorithm, **{name: getattr(args, name) for name in BUDGETS[algorithm]})
    if args.output is not None:
        check_writable(args.output)  # before the load and the distance pass
    data = load_csv(args.input)
    result = detect(algorithm, data, config, h, **budget)

    seg = result.segmentation
    by_boundary = _boundary_p_values(result.trace)
    doc = {
        "command": args.command,
        "n": seg.n,
        "grid_size": int(data.shape[1]),
        "config": {**{key: value for key, value in asdict(config).items() if key in args},
                   "bandwidth": "median" if h is None else h, **budget},
        "bandwidth": result.bandwidth,
        "k_hat": seg.k,
        "boundaries": list(seg.boundaries),
        "breakfractions": list(seg.breakfractions),
        "p_values": [by_boundary.get(b) for b in seg.boundaries],
        "trace": result.trace,
    }
    if args.format == "json":
        write_text(dumps_json(doc), args.output)
    else:
        rows = [("boundary", "breakfraction"), *zip(seg.boundaries, seg.breakfractions)]
        write_text(csv_text(rows), args.output)
    return 0


# ---------------------------------------------------------------------------
# simulate / oracle-curve / benchmark
# ---------------------------------------------------------------------------


def _model_spec(args) -> ModelSpec:
    if args.model is None or args.lengths is None:
        raise ConfigurationError("a model id and --lengths are required")
    given = {"seed": args.seed, "grid_size": args.grid_size}  # None: ModelSpec's default
    return ModelSpec(
        model_id=args.model,
        segment_lengths=args.lengths,
        params=dict(args.param or ()),
        **{key: value for key, value in given.items() if value is not None},
    )


def _cmd_simulate(args) -> int:
    spec = _model_spec(args)
    sidecar_path = truth_sidecar_path(args.output)
    check_writable(args.output)
    check_writable(sidecar_path)  # before the CSV, so a failure leaves no file
    sample = generate(spec)
    save_csv(sample.data, args.output)
    sidecar = {
        "model": spec.model_id,
        "n": spec.n,
        "grid_size": spec.grid_size,
        "seed": spec.seed,
        "params": {k: float(v) for k, v in sorted(spec.params.items())},
        "segment_lengths": list(spec.segment_lengths),
        "boundaries": list(sample.truth.boundaries),
        "breakfractions": list(sample.truth.breakfractions),
    }
    write_json(sidecar, sidecar_path)
    print(f"wrote {args.output} and {sidecar_path}", file=sys.stderr)
    return 0


def _cmd_oracle_curve(args) -> int:
    if args.output is not None:
        check_writable(args.output)  # before the load and the distance pass
    # Each route takes only its own flags: one of the other route's is an error.
    model_flags = {"--model": args.model, "--lengths": args.lengths, "--param": args.param,
                   "--seed": args.seed, "--grid-size": args.grid_size}
    if args.input is not None:
        given = [flag for flag, value in model_flags.items() if value is not None]
        if given:
            raise ConfigurationError(f"oracle-curve --input does not take {', '.join(given)}")
        if args.segment_lengths is None:
            raise ConfigurationError("--input requires --segment-lengths")
        data = load_csv(args.input)
        lengths = args.segment_lengths
    else:
        if args.segment_lengths is not None:
            raise ConfigurationError("oracle-curve --segment-lengths needs --input")
        spec = _model_spec(args)
        data = generate(spec).data
        lengths = spec.segment_lengths
    _, gram = prepare(data, args.bandwidth)
    star = oracle_curve(gram, lengths)
    empirical = rho_values(gram)
    rows = [("r", "rho_star", "rho"), *zip(range(1, gram.shape[0]), star, empirical)]
    write_text(csv_text(rows), args.output)
    return 0


def _cmd_benchmark(args) -> int:
    config = _amoc_config(args)
    spec = _model_spec(args)
    if args.algorithm == "s":
        unread = [name for name in _TEST_FIELDS if getattr(args, name) is not None]
        if unread:
            raise ConfigurationError(f"algorithm 's' takes no {', '.join(unread)}")
    cell = BenchmarkCell(spec, args.algorithm, config, K=args.K, K_l=args.K_l, K_u=args.K_u,
                         bandwidth=args.bandwidth, label=f"{spec.model_id}-{args.algorithm}")
    if args.output is not None:
        check_writable(f"{args.output}.json")
        check_writable(f"{args.output}.csv")
    # The benchmark seed is the model's: --seed, else ModelSpec's default.
    report = run_benchmark([cell], args.replications, seed=spec.seed, workers=args.workers)
    rows = report.to_rows()
    doc = {"seed": report.seed, "replications": report.replications, "cells": rows}
    if args.output is None:
        write_text(dumps_json(doc))
    else:
        write_json(doc, f"{args.output}.json")
        keys = list(rows[0])
        write_text(csv_text([keys, *([row[k] for k in keys] for row in rows)]),
                   f"{args.output}.csv")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _flag(*names, **kwargs):
    return names[0], (names, kwargs)


# Every flag once, keyed by its first name.  Flags without a default give
# None when absent, so AmocConfig and ModelSpec alone supply their defaults.
_FLAGS = dict((
    _flag("input", help="CSV file, one observation per row"),
    _flag("--delta", type=float, help="boundary fraction excluded at both ends"),
    _flag("-R", "--permutations", dest="R", type=int, metavar="PERMUTATIONS",
          help="permutation count"),
    _flag("--alpha", type=float, help="significance level"),
    _flag("--seed", type=int, help="random seed"),
    _flag("--add-one", action="store_true", default=None,
          help="use the (1 + #{T >= T_obs}) / (R + 1) p-value variant"),
    _flag("--bandwidth", type=_bandwidth, help="'median' (default) or a fixed positive value"),
    _flag("--config", help="key=value file supplying any flag"),
    _flag("--output", "-o", help="output path (default: stdout)"),
    _flag("--format", choices=("json", "csv"), default="json", help="output format"),
    _flag("-K", "--changepoints", dest="K", type=int,
          help="number of changepoints K (algorithm s)"),
    _flag("--lower", dest="K_l", type=int, help="lower bound K_l (ss, forward)"),
    _flag("--upper", dest="K_u", type=int, help="upper bound K_u (ss)"),
    _flag("output", help="CSV path; truth labels go to <output>.truth.json"),
    _flag("--input", help="CSV dataset (requires --segment-lengths)"),
    _flag("--segment-lengths", type=int_list, help="true segment lengths of --input"),
    _flag("--model", choices=MODEL_IDS, help="model id"),
    _flag("--lengths", type=int_list, help="comma-separated segment lengths"),
    _flag("--grid-size", type=int, help=f"grid points (default {DEFAULT_GRID_SIZE})"),
    _flag("--param", type=_param, action="append", help="model parameter, e.g. c=0.5"),
    _flag("--algorithm", choices=tuple(BUDGETS)),
    _flag("--replications", type=int, default=100),
    _flag("--workers", type=int, default=1, help="parallel replication workers"),
))

_DETECT = ("input", "--delta", "-R", "--alpha", "--seed", "--add-one", "--bandwidth",
           "--config", "--output", "--format")
_MODEL = ("--model", "--lengths", "--grid-size", "--param")

# Each subcommand: its help line, its function and, in --help order, the
# flags its code reads.  detect-s runs no permutation test, so it takes no
# -R, --alpha or --add-one; its --seed has no effect.
_COMMANDS = {
    "detect-u": ("unknown number of changepoints (permutation-gated recursion)",
                 _cmd_detect, _DETECT),
    "detect-s": ("known number of changepoints K (forced split and merge)", _cmd_detect,
                 ("input", "--delta", "--seed", "--bandwidth", "--config", "--output",
                  "--format", "-K")),
    "detect-ss": ("bounds K_l <= K <= K_u (backward elimination)", _cmd_detect,
                  (*_DETECT, "--lower", "--upper")),
    "detect-forward": ("lower bound only (forced split, then recursion)", _cmd_detect,
                       (*_DETECT, "--lower")),
    "simulate": ("draw a sample from a benchmark model", _cmd_simulate,
                 ("output", *_MODEL, "--seed", "--config")),
    "oracle-curve": ("export labeled and empirical split curves as CSV", _cmd_oracle_curve,
                     ("--input", "--segment-lengths", *_MODEL, "--seed", "--bandwidth",
                      "--config", "--output")),
    "benchmark": ("Monte Carlo success rates for one cell", _cmd_benchmark,
                  (*_MODEL, "--algorithm", "--replications", "-K", "--lower", "--upper",
                   "--workers", "--delta", "-R", "--alpha", "--seed", "--add-one",
                   "--bandwidth", "--config", "--output")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(
        prog="mmdseg",
        description="MMD-based offline changepoint detection for functional data",
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for command, (blurb, func, flags) in _COMMANDS.items():
        sub = subs.add_parser(command, help=blurb)
        for flag in flags:
            names, kwargs = _FLAGS[flag]
            sub.add_argument(*names, **kwargs)
        sub.set_defaults(func=func)
    return parser


def run_command(parser: argparse.ArgumentParser, argv=None) -> int:
    """Parse argv, run args.func(args) and print its elapsed_seconds to
    stderr.  A configuration error exits 2 and a data error (an input too
    large for memory included) exits 3, each with one JSON object on stderr."""
    try:
        args = parser.parse_args(argv)
        t0 = time.perf_counter()
        code = args.func(args)
        print(f"elapsed_seconds={time.perf_counter() - t0:.3f}", file=sys.stderr)
        return code
    except ConfigurationError as exc:
        sys.stderr.write(dumps_json({"error": str(exc), "kind": "configuration"}))
        return 2
    except DataError as exc:
        sys.stderr.write(dumps_json({"error": str(exc), "kind": "data"}))
        return 3
    except MemoryError as exc:  # input too large; numpy's message gives the size
        sys.stderr.write(dumps_json({"error": f"out of memory: {exc}", "kind": "data"}))
        return 3


def main(argv=None) -> int:
    return run_command(build_parser(), argv)


if __name__ == "__main__":
    sys.exit(main())
