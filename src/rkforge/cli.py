"""The `forge` command line: generate, validate, solve, report, bench.

All numeric output is CSV with round-trip float formatting (shortest decimal
that reparses to the same 64-bit value, locale independent).  Exit codes:
0 success, 1 runtime failure, 2 usage or validation error.  Every error path
prints one line `forge: error[<code>] <text>` to stderr.  `main` owns the
mapping from an exception to its code and exit code.  A command raises a
CliError, which carries both, only for what it alone can name: a usage
error, or a failure whose code depends on the command (a method file that
cannot be read or parsed, an invalid tableau).
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import shipped_method_path
from .codegen import format_manifest, generate_module_set, violation_lines
from .problems import PROBLEM_NAMES, benchmark_case, closure_error
from .stepcontrol import (
    ArgumentError,
    IntegrationError,
    IntegrationOptions,
    Tolerances,
    Trajectory,
    adaptive_integrate,
    fixed_integrate,
    integrate_info,
    interpreted_kernel,
)
from .tableau import TableauError, parse_method_file, strict_warnings, validate_tableau

__all__ = ["main", "kernel_seconds"]


class CliError(Exception):
    def __init__(self, code: str, message: str, exit_code: int):
        super().__init__(message)
        self.code = code
        self.exit_code = exit_code


def _usage_error(code: str, message: str) -> CliError:
    return CliError(code, message, 2)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors take the one-line error path."""

    def error(self, message):
        raise _usage_error("bad-flags", message)


def _positive_int(text: str) -> int:
    if not (text.isdecimal() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _fmt(x) -> str:
    return repr(float(x))


def _write_output(text: str, path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        # a failed write or close carries no file name; a failed open does
        exc.filename = exc.filename or path
        raise


def _load_methods(path: str):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise _usage_error("io-failure", f"cannot read {path}: {exc}") from exc
    try:
        return parse_method_file(data)
    except TableauError as exc:
        raise _usage_error("invalid-method-file", str(exc)) from exc


def _generated_registry():
    from . import generated
    return generated.METHODS


def _solver(name: str):
    registry = _generated_registry()
    try:
        return registry[name]
    except KeyError:
        known = ", ".join(sorted(registry))
        raise _usage_error("unknown-method",
                           f"no generated solver named {name!r}; available: {known}") from None


def _case(name: str):
    try:
        return benchmark_case(name)
    except ValueError as exc:
        raise _usage_error("unknown-problem",
                           f"{exc}; available: {', '.join(PROBLEM_NAMES)}") from exc


def cmd_generate(args) -> int:
    methods = _load_methods(args.methods)
    if args.strict:
        for t in methods:
            for w in strict_warnings(t):
                print(f"forge: warning[{t.name}] {w}", file=sys.stderr)
    try:
        manifest = generate_module_set(methods, args.out)
    except ValueError as exc:
        raise _usage_error("invalid-tableau", str(exc)) from exc
    _write_output(format_manifest(manifest), args.output)
    return 0


def cmd_validate(args) -> int:
    methods = _load_methods(args.methods)
    bad = False
    lines = []
    for t in methods:
        report = validate_tableau(t, strict=args.strict)
        if violations := violation_lines(t, report):
            bad = True
            lines.extend(violations)
        else:
            lines.append(f"{t.name}: ok")
        for w in report.warnings:
            lines.append(f"{t.name}: warning: {w}")
    _write_output("\n".join(lines), args.output)
    if bad:
        raise _usage_error("invalid-tableau", "method file has invalid tableaus")
    return 0


def _trajectory_csv(traj) -> str:
    n = traj.states.shape[1]
    header = "t," + ",".join(f"y{i + 1}" for i in range(n))
    # tolist() hands over Python floats with the arrays' bits, so repr prints
    # what _fmt would, without a numpy scalar per value
    table = np.column_stack((traj.times, traj.states)).tolist()
    return "\n".join([header, *(",".join(map(repr, row)) for row in table)])


def _steplog_csv(log) -> str:
    rows = ["kind,t,h,error"]
    accepted = [("accepted", t, h, repr(e)) for t, h, e
                in zip(log.accepted_t.tolist(), log.accepted_h.tolist(), log.errors.tolist())]
    rejected = [("rejected", t, h, "") for t, h
                in zip(log.rejected_t.tolist(), log.rejected_h.tolist())]
    for kind, t, h, err in sorted(accepted + rejected, key=lambda r: (r[1], r[0])):
        rows.append(f"{kind},{t!r},{h!r},{err}")
    return "\n".join(rows)


def _check_solve_flags(args):
    """Check the solve flag combinations no runtime call knows; returns the
    tolerances (None when fixed).  The runtime refuses bad values itself."""
    fixed = args.h is not None
    if fixed and (args.atol is not None or args.rtol is not None):
        raise _usage_error("bad-flags", "give either --h or --atol/--rtol, not both")
    if not fixed and (args.atol is None or args.rtol is None):
        raise _usage_error("bad-flags", "adaptive runs need both --atol and --rtol")
    if fixed and args.output_kind == "steplog":
        raise _usage_error("bad-flags", "steplog output needs an adaptive run")
    return None if fixed else Tolerances(args.atol, args.rtol)


def cmd_solve(args) -> int:
    module = _solver(args.method)
    case = _case(args.problem)
    t0 = args.t0 if args.t0 is not None else case.t_start
    t1 = args.t1 if args.t1 is not None else case.t_stop
    tol = _check_solve_flags(args)

    kernel = module.KERNEL
    options = IntegrationOptions(h0=args.h0, max_steps=args.max_steps)
    last = args.output_kind == "last"
    if args.output_kind == "steplog":
        csv = _steplog_csv(integrate_info(kernel, case.problem, tol, case.y_0, t0, t1,
                                          options=options))
    else:
        if tol is None:
            result = fixed_integrate(kernel, case.problem, args.h, case.y_0, t0, t1,
                                     last=last, options=options)
        else:
            result = adaptive_integrate(kernel, case.problem, tol, case.y_0, t0, t1,
                                        last=last, options=options)
        if last:
            t_n, y_n = result
            result = Trajectory(times=np.array([t_n]), states=np.array([y_n]))
        csv = _trajectory_csv(result)
    _write_output(csv, args.output)
    return 0


# The flags only `forge report --kind arenstorf-table` takes, with defaults.
_ARENSTORF_DEFAULTS = {"group": 1, "atol": 1e-13, "rtol": 0.0,
                       "max_steps": IntegrationOptions.max_steps}


def cmd_report(args) -> int:
    given = [name for name in _ARENSTORF_DEFAULTS if name in vars(args)]
    if given and args.kind != "arenstorf-table":
        named = ", ".join("--" + name.replace("_", "-") for name in given)
        raise _usage_error("bad-flags", f"{named}: only for --kind arenstorf-table")
    if args.kind == "arenstorf-table":
        flags = {name: getattr(args, name, default)
                 for name, default in _ARENSTORF_DEFAULTS.items()}
        case = _case(f"arenstorf:{flags['group']}")
        tol = Tolerances(flags["atol"], flags["rtol"])
        options = IntegrationOptions(max_steps=flags["max_steps"])
        header, missing = "method,status,closure_error", "missing,"

        def cells(name, module):
            try:
                _, y_n = adaptive_integrate(module.KERNEL, case.problem, tol, case.y_0,
                                            case.t_start, case.t_stop, last=True,
                                            options=options)
            except IntegrationError as exc:
                print(f"forge: warning[{name}] {exc}", file=sys.stderr)
                return "failed,", False
            return f"ok,{_fmt(closure_error(y_n, case.y_0))}", True
    else:
        # convergence study on y' = y over [0, 1]
        hs = (0.1, 0.05, 0.025, 0.0125)
        header = "method,order,slope," + ",".join(f"err_h{_fmt(h)}" for h in hs)
        missing = ",,,,,"

        def cells(name, module):
            errs = []
            for h in hs:
                _, y_n = fixed_integrate(module.KERNEL, lambda t, y: y, h,
                                         np.array([1.0]), 0.0, 1.0, last=True)
                errs.append(abs(float(y_n[0]) - np.e))
            slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
            return (f"{module.KERNEL.order},{_fmt(slope)},"
                    + ",".join(_fmt(e) for e in errs)), True

    registry = _generated_registry()
    rows, all_ok = [header], True
    for name in args.method or sorted(registry):
        module = registry.get(name)
        row, ok = (missing, False) if module is None else cells(name, module)
        rows.append(f"{name},{row}")
        all_ok = all_ok and ok
    _write_output("\n".join(rows), args.output)
    return 0 if all_ok else 1


def kernel_seconds(kernel, steps: int) -> float:
    """Seconds for `steps` fixed steps of ``kernel`` on the Brusselator case
    (h = 20/steps from t = 0), timed through ``fixed_integrate(...,
    last=True)``, the drivers' loop, after a warm-up over the first
    min(steps, 2000) of them.  A run that turns non-finite raises
    DivergenceError."""
    case = benchmark_case("brusselator")
    h = (case.t_stop - case.t_start) / steps

    def run(t_stop, n):
        start = time.perf_counter()
        fixed_integrate(kernel, case.problem, h, case.y_0, case.t_start, t_stop,
                        last=True, options=IntegrationOptions(max_steps=n))
        return time.perf_counter() - start

    warm_up = min(steps, 2000)
    run(case.t_start + warm_up * h, warm_up)
    return run(case.t_stop, steps)


def cmd_bench(args) -> int:
    module = _solver(args.method)
    from . import shipped_methods
    tableau = next((t for t in shipped_methods() if t.name == args.method), None)
    if tableau is None:
        raise _usage_error("unknown-method",
                           f"no table named {args.method!r} in the shipped method file")
    generated_s = kernel_seconds(module.KERNEL, args.steps)
    generic_s = kernel_seconds(interpreted_kernel(tableau), args.steps)
    ratio = generic_s / generated_s
    csv = ("method,steps,generated_seconds,generic_seconds,throughput_ratio\n"
           f"{args.method},{args.steps},{_fmt(generated_s)},{_fmt(generic_s)},{_fmt(ratio)}")
    _write_output(csv, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="forge",
        description="Embedded Runge-Kutta solver forge: validate method files, "
                    "generate specialized solvers, run integrations, and emit "
                    "experiment tables as CSV.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="render solver modules from a method file")
    p.add_argument("--methods", default=str(shipped_method_path()),
                   help="method JSON file (default: the shipped file)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--strict", action="store_true",
                   help="additionally check the order-2 condition (warning only)")
    p.add_argument("--output", default=None, help="write the manifest here instead of stdout")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="validate a method file")
    p.add_argument("--methods", default=str(shipped_method_path()))
    p.add_argument("--strict", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="integrate a benchmark problem")
    p.add_argument("--method", required=True)
    p.add_argument("--problem", required=True,
                   help=f"one of: {', '.join(PROBLEM_NAMES)}")
    p.add_argument("--atol", type=float, default=None)
    p.add_argument("--rtol", type=float, default=None)
    p.add_argument("--h", type=float, default=None, help="fixed step size")
    p.add_argument("--h0", type=float, default=None, help="initial adaptive step")
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--t1", type=float, default=None)
    p.add_argument("--max-steps", type=_positive_int, default=IntegrationOptions.max_steps)
    p.add_argument("--output", default=None)
    p.add_argument("--output-kind", choices=("trajectory", "last", "steplog"),
                   default="trajectory")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "report", help="emit experiment tables",
        description="Emit experiment tables as CSV. Failed or missing rows "
                    "are marked and the table is still written; the exit "
                    "code is 0 only when every row succeeded.")
    p.add_argument("--kind", choices=("arenstorf-table", "convergence"), required=True)
    p.add_argument("--method", action="append", default=None,
                   help="repeatable; default: every generated method")

    arenstorf_only = {"default": argparse.SUPPRESS, "help": "arenstorf-table only"}
    p.add_argument("--group", type=int, choices=(1, 2, 3), **arenstorf_only)
    p.add_argument("--atol", type=float, **arenstorf_only)
    p.add_argument("--rtol", type=float, **arenstorf_only)
    p.add_argument("--max-steps", type=_positive_int, **arenstorf_only)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("bench", help="generated vs generic kernel throughput")
    p.add_argument("--method", default="ERK43b")
    p.add_argument("--steps", type=_positive_int, default=10 ** 5)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        code, message, exit_code = exc.code, exc, exc.exit_code
    except ArgumentError as exc:
        code, message, exit_code = "bad-flags", exc, 2
    except IntegrationError as exc:
        code, message, exit_code = "integration-failure", exc, 1
    except OSError as exc:
        code, message, exit_code = "io-failure", exc, 1
    except ValueError as exc:
        # Not a refused argument, so this comes from the rhs: a singularity
        # or an output of the wrong shape.
        code, message, exit_code = "rhs-failure", exc, 1
    print(f"forge: error[{code}] {message}", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
