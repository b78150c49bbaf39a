"""Command-line interface: run presets or config files, sweep parameters,
verify invariants.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 violated numerical contract. All outputs are deterministic:
identical inputs give byte-identical CSV, SVG and reports.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from itertools import chain
from operator import attrgetter
from pathlib import Path

import numpy as np

from .elements import RodAxis
from .errors import ConfigurationError, ContractViolation
from .oracle import oracle_rate
from .presets import (
    CONFIG_KEYS,
    PRESET_NAMES,
    ExperimentConfig,
    preset,
    run_sweep,
    with_value,
)
from .scan import (
    DEFAULT_SCAN_MAX,
    DEFAULT_SCAN_MIN,
    DEFAULT_SCAN_STEPS,
    MAX_SCAN_STEPS,
    MAX_SWEEP_ROWS,
    ScanResult,
    scan_delay,
)
from .verify import format_report, run_all_checks


def _parse_value(key: str, text: str) -> RodAxis | float | int:
    """The text of a config value, read as the type of its key's field."""
    kind = CONFIG_KEYS[key][2]
    if kind is RodAxis:
        lowered = text.strip().lower()
        if lowered in ("vertical", "v"):
            return RodAxis.VERTICAL
        if lowered in ("horizontal", "h"):
            return RodAxis.HORIZONTAL
        raise ConfigurationError(f"{key} must be 'vertical' or 'horizontal', got {text!r}")
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigurationError(f"{key} must be {noun}, got {text!r}") from None


def parse_config_file(path: str | Path) -> ExperimentConfig:
    """Flat key-value config: one ``key = value`` per line, '#' comments.

    Keys mirror the configuration field names (see README for the schema);
    an optional ``preset`` key selects the base configuration that the
    remaining keys override. Unknown keys and keys given twice are errors.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc

    entries: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigurationError(f"{path}:{lineno}: empty key or value in {raw!r}")
        if key in entries:
            raise ConfigurationError(
                f"{path}:{lineno}: key {key!r} given twice, on lines {entries[key][0]} and {lineno}"
            )
        entries[key] = (lineno, value)

    config = ExperimentConfig()
    # The preset is the base that the other keys override, so it goes first.
    for key, (lineno, value) in sorted(entries.items(), key=lambda item: item[0] != "preset"):
        try:
            if key == "preset":
                config = preset(value)
            elif key in CONFIG_KEYS:
                config = with_value(config, key, _parse_value(key, value))
            else:
                raise ConfigurationError(f"unknown key {key!r}")
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}:{lineno}: {exc}") from exc
    return config


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror or exc}") from exc
    except BaseException:
        # An interrupted write leaves no partial file behind.
        path.unlink(missing_ok=True)
        raise


def write_scan_csv(path: Path, result: ScanResult) -> None:
    rates = result.rates
    overs = rates / result.baseline if result.baseline != 0 else np.zeros_like(rates)
    rows = np.column_stack((result.delays, rates, overs))
    body = "%.9g,%.9g,%.9g\n" * len(rows) % tuple(rows.ravel().tolist())
    _write_text(path, "delay_fs,rate,rate_over_baseline\n" + body)


def write_sweep_csv(path: Path, rows) -> None:
    fields = tuple(chain.from_iterable(
        map(attrgetter("value", "visibility", "kind", "extremum", "baseline"), rows)
    ))
    body = "%.9g,%.9g,%s,%.9g,%.9g\n" * (len(fields) // 5) % fields
    _write_text(path, "axis_value,visibility,kind,extremum,baseline\n" + body)


def write_scan_svg(path: Path, result: ScanResult, title: str) -> None:
    """Minimal static plot of the scan curve; no external dependencies so
    the bytes are reproducible."""
    width, height = 640, 400
    margin = 50
    xs = result.delays
    ys = result.rates
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = 0.0, float(ys.max()) * 1.05 if ys.max() > 0 else 1.0
    px = margin + (xs - x_lo) / (x_hi - x_lo) * (width - 2 * margin)
    # The last y is the baseline's, drawn as the dashed line.
    py = height - margin - (
        (np.append(ys, result.baseline) - y_lo) / (y_hi - y_lo) * (height - 2 * margin)
    )
    points = " ".join(["%.2f,%.2f"] * len(xs)) % tuple(
        np.column_stack((px, py[:-1])).ravel().tolist()
    )
    baseline_y = "%.2f" % py[-1]
    # The title is XML text: escaped as xml.sax.saxutils.escape does, which
    # would import urllib.request, some 18 ms of start-up, to do it.
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>\n'
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>\n'
        f'<line x1="{margin}" y1="{baseline_y}" x2="{width - margin}" y2="{baseline_y}" '
        f'stroke="gray" stroke-dasharray="4 4"/>\n'
        f'<polyline points="{points}" fill="none" stroke="steelblue" stroke-width="1.5"/>\n'
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" font-size="12">'
        f"delay (fs), {x_lo:.9g} to {x_hi:.9g}</text>\n"
        f'<text x="14" y="{height // 2}" font-size="12" '
        f'transform="rotate(-90 14 {height // 2})">rate</text>\n'
        f"</svg>\n"
    )
    _write_text(path, svg)


def _load_config(args: argparse.Namespace) -> tuple[ExperimentConfig, str]:
    if args.config is not None:
        if args.preset is not None:
            raise ConfigurationError("give either a preset name or --config, not both")
        return parse_config_file(args.config), Path(args.config).stem
    if args.preset is None:
        raise ConfigurationError(
            f"missing preset name or --config; valid presets: {', '.join(PRESET_NAMES)}"
        )
    return preset(args.preset), args.preset


def _cmd_run(args: argparse.Namespace) -> int:
    config, label = _load_config(args)
    out = Path(args.out) if args.out else Path(f"{label}_scan.csv")
    # The SVG would be written over the CSV.
    if args.svg and os.path.realpath(args.svg) == os.path.realpath(out):
        raise ConfigurationError(f"--svg {args.svg} names the CSV output {out}")
    result = scan_delay(config, args.d_min, args.d_max, args.steps)
    references = oracle_rate(config, result.delays)
    worst = np.max(np.abs(result.rates - references) / np.maximum(references, 1e-12))

    write_scan_csv(out, result)
    if args.svg:
        try:
            write_scan_svg(Path(args.svg), result, label)
        except BaseException:
            # A command that fails leaves none of its outputs behind.
            out.unlink(missing_ok=True)
            raise
    print(
        f"preset={label} kind={result.kind} visibility={result.visibility:.9g} "
        f"baseline={result.baseline:.9g} extremum={result.extremum:.9g} "
        f"oracle_max_rel_delta={worst:.3e} csv={out}"
    )
    return 0


def _parse_values(raw: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in raw.split(",") if part.strip() != "")
    except ValueError:
        raise ConfigurationError(f"--values must be comma-separated numbers, got {raw!r}") from None
    if not values:
        raise ConfigurationError("--values must contain at least one number")
    return values


def _cmd_sweep(args: argparse.Namespace) -> int:
    config, label = _load_config(args)
    values = _parse_values(args.values)
    rows = run_sweep(config, args.axis, values, args.d_min, args.d_max, args.steps)
    out = Path(args.out) if args.out else Path(f"{label}_{args.axis}_sweep.csv")
    write_sweep_csv(out, rows)
    print(f"preset={label} axis={args.axis} rows={len(rows)} csv={out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_all_checks()
    report = format_report(results)
    sys.stdout.write(report)
    return 0 if all(result.passed for result in results) else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a token of a minus sign followed by a
    digit, by a point and a digit, or by ``inf`` or ``nan`` in any case, as
    a value, so that ``--values -45,45``, ``--d-min -1.5e3`` and ``--d-min
    -inf`` parse and the engine refuses what it cannot take; no option
    starts that way. argparse sets the pattern per parser in ``__init__``,
    and the subparsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _add_scan_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--d-min", type=float, default=DEFAULT_SCAN_MIN, dest="d_min",
                        help="scan start (fs)")
    parser.add_argument("--d-max", type=float, default=DEFAULT_SCAN_MAX, dest="d_max",
                        help="scan end (fs)")
    parser.add_argument("--steps", type=int, default=DEFAULT_SCAN_STEPS,
                        help=f"number of delay points (3 to {MAX_SCAN_STEPS})")
    parser.add_argument("--out", type=str, default=None, help="CSV output path")


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("preset", nargs="?", default=None,
                        help=f"preset name ({', '.join(PRESET_NAMES)})")
    parser.add_argument("--config", type=str, default=None, help="config file path")
    _add_scan_arguments(parser)
    parser.add_argument("--svg", type=str, default=None, help="also write an SVG plot")
    parser.set_defaults(handler=_cmd_run)


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("preset", nargs="?", default=None,
                        help=f"base preset name ({', '.join(PRESET_NAMES)})")
    parser.add_argument("--config", type=str, default=None, help="base config file path")
    parser.add_argument("--axis", type=str, required=True, help="parameter to sweep")
    parser.add_argument("--values", type=str, required=True,
                        help=f"comma-separated values (1 to {MAX_SWEEP_ROWS})")
    _add_scan_arguments(parser)
    parser.set_defaults(handler=_cmd_sweep)


def _add_verify_arguments(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(handler=_cmd_verify)


# Each subcommand's name, its help line and the function that adds its
# arguments to its parser.
_SUBCOMMANDS = (
    ("run", "scan one configuration and write CSV", _add_run_arguments),
    ("sweep", "scan a parameter sweep and write CSV", _add_sweep_arguments),
    ("verify", "run the invariant suite", _add_verify_arguments),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser of ``biphoton``, with the parser of only the
    subcommand ``command`` when that names one, and of every subcommand
    otherwise.

    The root parser has no option but -h, so a subcommand is always the
    first token of a command line. A parser built for that token parses the
    line as the full parser does, to the bytes of its help and its usage
    errors; a line with any other first token, or none, gets the full one.
    """
    parser = _Parser(
        prog="biphoton",
        description=(
            "Two-photon interference simulator: coincidence rates of a "
            "pulse-pumped downconversion polarization interferometer"
        ),
    )
    chosen = [entry for entry in _SUBCOMMANDS if entry[0] == command] or _SUBCOMMANDS
    # The root usage names every subcommand however many are built. On the
    # full parser argparse names them itself; a metavar there would also
    # rename the argument in the errors that only that parser gives.
    metavar = None
    if len(chosen) < len(_SUBCOMMANDS):
        metavar = "{%s}" % ",".join(name for name, _, _ in _SUBCOMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, add_arguments in chosen:
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        # The command has left none of its outputs behind. SIGINT's default
        # action then ends the process with the status the shell expects;
        # signal is imported here, as no other command needs it.
        import signal

        print("interrupted", file=sys.stderr)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.raise_signal(signal.SIGINT)
        raise


if __name__ == "__main__":
    raise SystemExit(main())
