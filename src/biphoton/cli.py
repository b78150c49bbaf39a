"""Command-line interface: run presets or config files, sweep parameters,
verify invariants.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 violated numerical contract. All outputs are deterministic:
identical inputs give byte-identical CSV, SVG and reports.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .elements import RodAxis
from .errors import ConfigurationError, ContractViolation
from .oracle import oracle_rate
from .presets import (
    CONFIG_KEYS,
    PRESET_NAMES,
    ExperimentConfig,
    SweepSpec,
    preset,
    run_sweep,
    with_value,
)
from .scan import (
    DEFAULT_SCAN_MAX,
    DEFAULT_SCAN_MIN,
    DEFAULT_SCAN_STEPS,
    MAX_SCAN_STEPS,
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
    except OSError as exc:
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

    config = preset(entries.pop("preset")[1]) if "preset" in entries else ExperimentConfig()
    for key, (lineno, value) in entries.items():
        if key not in CONFIG_KEYS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            config = with_value(config, key, _parse_value(key, value))
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}:{lineno}: {exc}") from exc
    return config


def _format_float(x: float) -> str:
    return f"{x:.9g}"


def write_scan_csv(path: Path, result: ScanResult) -> None:
    lines = ["delay_fs,rate,rate_over_baseline"]
    for d, rate in zip(result.delays, result.rates):
        over = rate / result.baseline if result.baseline != 0 else 0.0
        lines.append(f"{_format_float(d)},{_format_float(rate)},{_format_float(over)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_sweep_csv(path: Path, rows) -> None:
    lines = ["axis_value,visibility,kind,extremum,baseline"]
    for row in rows:
        lines.append(
            f"{_format_float(row.value)},{_format_float(row.visibility)},{row.kind},"
            f"{_format_float(row.extremum)},{_format_float(row.baseline)}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_scan_svg(path: Path, result: ScanResult, title: str) -> None:
    """Minimal static plot of the scan curve; no external dependencies so
    the bytes are reproducible."""
    width, height = 640, 400
    margin = 50
    xs = result.delays
    ys = result.rates
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = 0.0, float(ys.max()) * 1.05 if ys.max() > 0 else 1.0

    def sx(x: float) -> str:
        return f"{margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin):.2f}"

    def sy(y: float) -> str:
        return f"{height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin):.2f}"

    points = " ".join(f"{sx(float(x))},{sy(float(y))}" for x, y in zip(xs, ys))
    baseline_y = sy(result.baseline)
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
        f"delay (fs), {_format_float(x_lo)} to {_format_float(x_hi)}</text>\n"
        f'<text x="14" y="{height // 2}" font-size="12" '
        f'transform="rotate(-90 14 {height // 2})">rate</text>\n'
        f"</svg>\n"
    )
    path.write_text(svg, encoding="utf-8", newline="\n")


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
    result = scan_delay(config, args.d_min, args.d_max, args.steps)
    out = Path(args.out) if args.out else Path(f"{label}_scan.csv")
    write_scan_csv(out, result)

    worst = 0.0
    for d, rate in zip(result.delays, result.rates):
        reference = oracle_rate(config, float(d))
        worst = max(worst, abs(rate - reference) / max(reference, 1e-12))

    if args.svg:
        write_scan_svg(Path(args.svg), result, label)
    print(
        f"preset={label} kind={result.kind} visibility={_format_float(result.visibility)} "
        f"baseline={_format_float(result.baseline)} extremum={_format_float(result.extremum)} "
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
    spec = SweepSpec(
        base=config,
        axis=args.axis,
        values=_parse_values(args.values),
        d_min=args.d_min,
        d_max=args.d_max,
        steps=args.steps,
    )
    rows = run_sweep(spec)
    out = Path(args.out) if args.out else Path(f"{label}_{args.axis}_sweep.csv")
    write_sweep_csv(out, rows)
    print(f"preset={label} axis={args.axis} rows={len(rows)} csv={out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_all_checks()
    report = format_report(results)
    sys.stdout.write(report)
    return 0 if all(result.passed for result in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description=(
            "Two-photon interference simulator: coincidence rates of a "
            "pulse-pumped downconversion polarization interferometer"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scan_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--d-min", type=float, default=DEFAULT_SCAN_MIN, dest="d_min",
                       help="scan start (fs)")
        p.add_argument("--d-max", type=float, default=DEFAULT_SCAN_MAX, dest="d_max",
                       help="scan end (fs)")
        p.add_argument("--steps", type=int, default=DEFAULT_SCAN_STEPS,
                       help=f"number of delay points (3 to {MAX_SCAN_STEPS})")
        p.add_argument("--out", type=str, default=None, help="CSV output path")

    run_parser = sub.add_parser("run", help="scan one configuration and write CSV")
    run_parser.add_argument("preset", nargs="?", default=None,
                            help=f"preset name ({', '.join(PRESET_NAMES)})")
    run_parser.add_argument("--config", type=str, default=None, help="config file path")
    add_scan_flags(run_parser)
    run_parser.add_argument("--svg", type=str, default=None, help="also write an SVG plot")
    run_parser.set_defaults(handler=_cmd_run)

    sweep_parser = sub.add_parser("sweep", help="scan a parameter sweep and write CSV")
    sweep_parser.add_argument("preset", nargs="?", default=None,
                              help=f"base preset name ({', '.join(PRESET_NAMES)})")
    sweep_parser.add_argument("--config", type=str, default=None, help="base config file path")
    sweep_parser.add_argument("--axis", type=str, required=True, help="parameter to sweep")
    sweep_parser.add_argument("--values", type=str, required=True,
                              help="comma-separated values")
    add_scan_flags(sweep_parser)
    sweep_parser.set_defaults(handler=_cmd_sweep)

    verify_parser = sub.add_parser("verify", help="run the invariant suite")
    verify_parser.set_defaults(handler=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
