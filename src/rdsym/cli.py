"""Command-line interface: classification, class mappings, verification
and the solution catalog, with JSON on stdout.

Exit codes: 0 pass, 1 verification failure, 2 validation error, 64 usage.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import solutions as _solutions
from . import symmetry as _symmetry
from . import transforms as _transforms
from .classify import classify as _classify_equation
from .expr import EvalDomainError, ExprError, parse
from .model import (
    DoubleImagedEquation,
    ImagedEquation,
    Interval,
    RDEquation,
    ValidationError,
    VectorField,
    require_valid,
)

USAGE_EXIT = 64
VALIDATION_EXIT = 2
FAIL_EXIT = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        sys.exit(USAGE_EXIT)


def _emit(payload) -> None:
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")


def _interval(text: str) -> Interval:
    try:
        return Interval.from_json(text)
    except ValueError:
        raise ValidationError(f"bad domain {text!r}; expected 'x:lo..hi'")


def _equation(args):
    dom = _interval(args.domain)
    cls = getattr(args, "cls")
    if cls == "initial":
        if args.f is None or args.h is None:
            raise ValidationError("--f and --h are required for the initial class")
        f = parse(args.f)
        g = parse(args.g) if args.g is not None else f
        return RDEquation(f, g, parse(args.h), float(args.m), dom)
    if cls == "imaged":
        if args.H is None or args.F is None:
            raise ValidationError("--H and --F are required for the imaged class")
        return ImagedEquation(parse(args.F), parse(args.H), float(args.m), dom)
    if cls == "double":
        if args.H is None or args.G is None:
            raise ValidationError("--H and --G are required for the double class")
        return DoubleImagedEquation(parse(args.H), parse(args.G), dom)
    raise ValidationError(f"unknown class {cls!r}")


def _add_equation_flags(p, need_class=True):
    if need_class:
        p.add_argument("--class", dest="cls", required=True,
                       choices=("initial", "imaged", "double"))
    p.add_argument("--f")
    p.add_argument("--g")
    p.add_argument("--h")
    p.add_argument("--F")
    p.add_argument("--H")
    p.add_argument("--G")
    p.add_argument("--m", default="3")
    p.add_argument("--domain", default="x:0.5..2.5")


def cmd_classify(args) -> int:
    eq = require_valid(_equation(args))
    result = _classify_equation(eq)
    _emit(result.as_dict())
    return 0


def cmd_map(args) -> int:
    eq = require_valid(_equation(args))
    if args.to == "gauged":
        if not isinstance(eq, RDEquation):
            raise ValidationError("--to gauged applies to the initial class")
        new, tr = _transforms.gauge_fg(eq, float(args.x0))
    elif args.to == "imaged":
        if not isinstance(eq, RDEquation):
            raise ValidationError("--to imaged applies to the initial class")
        if eq.f != eq.g:
            eq, _ = _transforms.gauge_fg(eq, float(args.x0))
        new, tr = _transforms.to_imaged(eq)
    elif args.to == "double":
        if isinstance(eq, RDEquation):
            if eq.f != eq.g:
                eq, _ = _transforms.gauge_fg(eq, float(args.x0))
            eq, _ = _transforms.to_imaged(eq)
        if not isinstance(eq, ImagedEquation):
            raise ValidationError("--to double applies to initial or imaged equations")
        new, tr = _transforms.to_double_imaged(eq)
    else:
        raise ValidationError(f"unknown target {args.to!r}")
    _emit({"equation": new.as_dict(), "transformation": tr.as_dict()})
    return 0


def _operator(spec: str, dep: str) -> VectorField:
    parts = spec.split(";")
    if len(parts) != 3:
        raise ValidationError("operator spec must be 'tau;xi;eta'")
    return VectorField(parse(parts[0]), parse(parts[1]), parse(parts[2]), dep)


def _constants(spec: str | None) -> dict:
    out = {}
    for item in (spec or "").split(","):
        if not item.strip():
            continue
        name, _, value = item.partition("=")
        out[name.strip()] = float(value)
    return out


def cmd_verify(args) -> int:
    tol = float(args.tol)
    n = int(args.samples)
    if args.what in ("lie", "nonclassical"):
        eq = require_valid(_equation(args))
        if not args.op:
            raise ValidationError("--op 'tau;xi;eta' is required")
        reports = []
        for spec in args.op:
            q = _operator(spec, eq.dep)
            if args.what == "lie":
                rep = _symmetry.verify_lie(eq, q, n=n, tol=tol)
            else:
                rep = _symmetry.verify_nonclassical(eq, q, n=n, tol=tol)
            reports.append(rep)
        _emit({"pass": all(r.passed for r in reports),
               "reports": [r.as_dict() for r in reports]})
        return 0 if all(r.passed for r in reports) else FAIL_EXIT
    if args.what == "algebra":
        eq = require_valid(_equation(args))
        if not args.op or len(args.op) < 1:
            raise ValidationError("at least one --op is required")
        basis = [_operator(spec, eq.dep) for spec in args.op]
        rep = _symmetry.verify_algebra_closure(basis, tol=tol)
        _emit(rep)
        return 0 if rep["closed"] else FAIL_EXIT
    if args.what == "solution":
        eq = require_valid(_equation(args))
        if args.solution is None:
            raise ValidationError("--solution is required")
        nt, _, nx = (args.grid or "20x20").partition("x")
        entry = _solutions.SolutionEntry(
            name="cli", equation=eq, expr=parse(args.solution),
            constants=_constants(args.constants))
        rep = _solutions.verify_on_grid(
            entry, grid=_solutions.GridSpec(nt=int(nt), nx=int(nx)))
        passed = rep.max_rel_residual <= tol
        _emit({"pass": passed, **rep.as_dict()})
        return 0 if passed else FAIL_EXIT
    raise ValidationError(f"unknown verification kind {args.what!r}")


def cmd_catalog(args) -> int:
    entries = _solutions.catalog()
    if args.filter:
        key, _, value = args.filter.partition("=")
        if key == "m":
            entries = [e for e in entries if getattr(e.equation, "m", None) == float(value)]
        elif key == "class":
            kinds = {"initial": RDEquation, "imaged": ImagedEquation,
                     "double": DoubleImagedEquation}
            entries = [e for e in entries if isinstance(e.equation, kinds[value])]
        elif key == "name":
            entries = [e for e in entries if value in e.name]
        else:
            raise ValidationError(f"unknown filter key {key!r}")
    if args.action == "list":
        _emit([e.as_dict() for e in entries])
        return 0
    report = _solutions.verify_all(int(args.bindings), float(args.tol), entries)
    _emit(report)
    return 0 if not report["failures"] else FAIL_EXIT


def build_parser() -> _Parser:
    p = _Parser(prog="rdsym",
                description="Symmetry analysis toolkit for variable-coefficient "
                            "semilinear reaction-diffusion equations")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("classify", help="match an equation against the "
                                         "classification tables")
    _add_equation_flags(pc)
    pc.set_defaults(fn=cmd_classify)

    pm = sub.add_parser("map", help="apply one of the class mappings")
    pm.add_argument("--to", required=True, choices=("gauged", "imaged", "double"))
    pm.add_argument("--x0", default="1.0")
    _add_equation_flags(pm, need_class=False)
    pm.set_defaults(cls="initial", fn=cmd_map)

    pv = sub.add_parser("verify", help="verify operators or solutions")
    pv.add_argument("--what", required=True,
                    choices=("solution", "lie", "nonclassical", "algebra"))
    _add_equation_flags(pv)
    pv.add_argument("--op", action="append",
                    help="operator as 'tau;xi;eta' (repeatable)")
    pv.add_argument("--solution")
    pv.add_argument("--constants")
    pv.add_argument("--tol", default="1e-8")
    pv.add_argument("--samples", default="64")
    pv.add_argument("--grid", default="20x20")
    pv.set_defaults(fn=cmd_verify)

    pk = sub.add_parser("catalog", help="list or verify the solution catalog")
    pk.add_argument("action", choices=("list", "verify-all"))
    pk.add_argument("--filter")
    pk.add_argument("--tol", default="1e-7")
    pk.add_argument("--bindings", default="3")
    pk.set_defaults(fn=cmd_catalog)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the map subcommand infers the class from the supplied coefficients
    if args.command == "map" and args.F is not None:
        args.cls = "imaged"
    try:
        return args.fn(args)
    except (ValidationError, ExprError, EvalDomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
