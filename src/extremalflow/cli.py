"""Command-line front end: run, sweep, bisect, verify.

Configuration lives in a flat key = value file (``#`` comments allowed)
so that every result is reproducible from a single committed file.  All
numbers in emitted artifacts carry 17 significant digits, which
round-trips doubles exactly; identical configurations therefore produce
byte-identical summaries.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

from .classifier import (
    Category,
    MonotonicityError,
    bisect_sigma_star,
    classify,
    sweep,
)
from .evolvers import DISSIPATION_FLOOR, ESCAPE_GAP, ClassifierTolerances, EventKind, StepControl
from .geometry import ProblemParams
from .solutions import InitialFamily, grim_reaper_dominating_sigma
from .verification import run_all

__all__ = ["RunConfig", "load_config", "main"]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for one invocation.

    Each field is a config key with its default; a value read from a file
    takes the type of its default: float, int (grid_n) or str.
    """

    A: float = 1.0
    a: float = 0.5
    grid_n: int = 201
    phi: str = "cos"
    sigma: float = 0.1
    scheme: str = "semi_implicit"
    cfl: float = 0.2
    t_max: float = 50.0
    sample_interval: float = 0.1
    converge: float = 1e-3
    out_dir: str = "runs/out"
    sigmas: str = ""
    bisect_lo: float = 0.1
    bisect_hi: str = "auto"
    width_tol: float = 0.01

    def params(self) -> ProblemParams:
        return ProblemParams(A=self.A, a=self.a, grid_n=self.grid_n)

    def family(self) -> InitialFamily:
        return InitialFamily(self.params(), sigma=self.sigma, phi=self.phi)

    def step_control(self) -> StepControl:
        return StepControl.for_params(
            self.params(),
            cfl=self.cfl,
            t_max=self.t_max,
            scheme=self.scheme,
            sample_interval=self.sample_interval,
        )

    def tolerances(self) -> ClassifierTolerances:
        return ClassifierTolerances(converge=self.converge, t_max=self.t_max)

    def sigma_list(self):
        raw = self.sigmas.strip()
        try:
            sigmas = [float(tok) for tok in raw.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad sigmas list: {raw!r}") from exc
        if not sigmas:
            raise ConfigError(f"sweep needs amplitudes in 'sigmas' (e.g. -1,0,0.1), got {raw!r}")
        return sigmas

    def bisect_hi_value(self) -> float:
        raw = str(self.bisect_hi).strip()
        if raw == "auto":
            return grim_reaper_dominating_sigma(self.params(), self.phi)
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"bisect_hi must be a number or 'auto', got {raw!r}") from exc


_KINDS = {f.name: type(f.default) for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    kind = _KINDS[key]
    if kind is str:
        return raw
    try:
        return kind(raw)
    except ValueError as exc:
        expects = "an integer" if kind is int else "a number"
        raise ConfigError(f"key {key!r} expects {expects}, got {raw!r}") from exc


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Parse a flat key = value file and apply command-line overrides."""
    values = {}
    if path is not None:
        if not os.path.isfile(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, raw = (part.strip() for part in text.split("=", 1))
                if key not in _KINDS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = _coerce(key, raw)
    values.update((key, val) for key, val in (overrides or {}).items() if val is not None)
    cfg = RunConfig(**values)
    try:
        cfg.params()
        cfg.step_control()
        cfg.tolerances()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _json_dump(obj, path):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_run(cfg: RunConfig, quiet: bool) -> int:
    cat, traj = classify(cfg.family(), cfg.step_control(), cfg.tolerances())
    out = cfg.out_dir
    traj.write_outputs(out)
    summary = traj.summary_dict()
    summary["category"] = cat.value
    summary["undetermined"] = cat is Category.UNDETERMINED
    _json_dump(summary, os.path.join(out, "summary.json"))
    if not quiet:
        print(
            f"sigma={cfg.sigma}: {cat.value} ({traj.event.kind.value} at "
            f"t={traj.event.t:.3g}); artifacts in {out}"
        )
    return 2 if traj.event.kind is EventKind.BLOWUP else 0


def cmd_sweep(cfg: RunConfig, quiet: bool) -> int:
    rows = sweep(cfg.family(), cfg.sigma_list(), cfg.step_control(), cfg.tolerances())
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "sweep.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sigma,category,t_event,final_sgn\n")
        for r in rows:
            fh.write(
                f"{r.sigma:.17g},{r.category.value},{r.t_event:.17g},"
                f"{r.final_sgn or ''}\n"
            )
    if not quiet:
        for r in rows:
            print(f"sigma={r.sigma:g}: {r.category.value} at t={r.t_event:.3g}")
        print(f"sweep table in {path}")
    return 0


def cmd_bisect(cfg: RunConfig, quiet: bool) -> int:
    bracket = bisect_sigma_star(
        cfg.family(),
        cfg.bisect_lo,
        cfg.bisect_hi_value(),
        cfg.width_tol,
        cfg.step_control(),
        cfg.tolerances(),
    )
    out = cfg.out_dir
    payload = bracket.to_dict()
    stop_rule = {"dissipation": DISSIPATION_FLOOR, "escape_gap": ESCAPE_GAP}
    payload["tolerances"] = {**asdict(cfg.tolerances()), **stop_rule, "width_tol": cfg.width_tol}
    _json_dump(payload, os.path.join(out, "bracket.json"))
    if not quiet:
        print(
            f"critical amplitude in [{bracket.lo:.6g}, {bracket.hi:.6g}] "
            f"(width {bracket.width:.3g}); details in {out}/bracket.json"
        )
    return 0


def cmd_verify(only: str | None, quiet: bool) -> int:
    numbers = None
    if only is not None:
        try:
            numbers = [int(tok) for tok in only.split(",") if tok.strip()]
        except ValueError:
            print(f"--only expects comma-separated criterion numbers, got {only!r}",
                  file=sys.stderr)
            return 1
        if not numbers:
            print(f"--only selects no criterion: {only!r}", file=sys.stderr)
            return 1
    results = run_all(numbers, quiet=quiet)
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extremalflow",
        description="Driven curvature flow between fixed endpoints: "
        "simulate, sweep, bracket the critical amplitude, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--config",
            required=True,
            metavar="PATH",
            help="flat key = value configuration file",
        )
        p.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory override")
        p.add_argument("--sigma", type=float, help="amplitude override")
        p.add_argument("--grid", type=int, dest="grid_n", metavar="GRID", help="grid_n override")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    p_run = sub.add_parser("run", help="evolve one amplitude and write artifacts")
    common(p_run)
    p_sweep = sub.add_parser("sweep", help="classify a list of amplitudes")
    common(p_sweep)
    p_sweep.add_argument(
        "--sigmas",
        help="comma-separated amplitudes (overrides config); use the "
        "--sigmas=-1,0,1 form when the list starts with a minus sign",
    )
    p_bisect = sub.add_parser("bisect", help="bracket the critical amplitude")
    common(p_bisect)
    p_bisect.add_argument(
        "--lo", type=float, dest="bisect_lo", metavar="LO", help="lower bracket endpoint override"
    )
    p_bisect.add_argument(
        "--hi", dest="bisect_hi", metavar="HI",
        help="upper bracket endpoint override (number or 'auto')",
    )
    p_bisect.add_argument("--width-tol", type=float, help="bracket width target override")
    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--only", help="comma-separated criterion numbers, e.g. 1,2,10")
    p_verify.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.only, args.quiet)
        # each override flag stores under its config key
        overrides = {key: val for key, val in vars(args).items() if key in _KINDS}
        cfg = load_config(args.config, overrides)
        if args.command == "run":
            return cmd_run(cfg, args.quiet)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.quiet)
        if args.command == "bisect":
            return cmd_bisect(cfg, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MonotonicityError as exc:
        print(f"diagnostic failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # invalid brackets, rejected profiles, and similar contract errors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
