"""Command-line surface: analyze, family, betti0, crofton."""

import argparse
import sys
from fractions import Fraction

from .crofton import crofton_matrix
from .families import (family_f, family_g, family_linear_union)
from .groebner import (CELL_BUDGET, GermEmptyError, PAIR_BUDGET,
                       ResourceLimitExceeded)
from .parser import IdealFile, ParseError, emit_report, format_ideal, parse_ideal
from .report import build_report, report_has_unbounded

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_NO_BOUND = 4


def _k_range(text):
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("expected a..b")
    try:
        return int(lo), int(hi)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _write(path, text):
    """Writes text to path, or to stdout when path is None.

    Returns False, with `error:` on stderr, when path cannot be written.
    """
    if path is None:
        sys.stdout.write(text)
        return True
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return False
    return True


def _cmd_analyze(args):
    try:
        with open(args.file) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    try:
        ideal = parse_ideal(text, source=args.file)
        report = build_report(ideal, k_range=args.k,
                              lk_exponent=args.lk_exponent,
                              assume_pure_dimensional=args.assume_pure_dimensional,
                              budget=args.budget)
    except (ParseError, ValueError, GermEmptyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceLimitExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    if not _write(args.output, emit_report(report)):
        return EXIT_PARSE
    return EXIT_NO_BOUND if report_has_unbounded(report) else EXIT_OK


def _cmd_family(args):
    try:
        if args.kind == "g":
            gens = [family_g(args.l)]
        elif args.kind == "f":
            gens = [family_f(args.n, args.l)]
        else:
            gens = family_linear_union(args.n, args.d, args.k, args.l)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    ideal = IdealFile(vars=gens[0].vars, generators=gens)
    return EXIT_OK if _write(args.output, format_ideal(ideal)) else EXIT_PARSE


def _parse_fix(text, names):
    fixed = {}
    if not text:
        return fixed
    for piece in text.split(","):
        name, sep, value = piece.partition("=")
        if not sep or name not in names:
            raise ValueError(f"bad assignment {piece!r}")
        fixed[name] = Fraction(value)
    return fixed


def _cmd_betti0(args):
    # imported here so that the other commands never load numpy
    from .numtopo import SectionSpec, component_cells, count_components
    try:
        with open(args.file) as fh:
            ideal = parse_ideal(fh.read(), source=args.file)
        if len(ideal.generators) != 1:
            raise ParseError("betti0 needs exactly one generator", 0, 0)
        fixed = _parse_fix(args.fix, ideal.vars)
        box = tuple(Fraction(v) for v in args.box.split(","))
        if len(box) != 4:
            raise ValueError("box needs xmin,xmax,ymin,ymax")
        res = args.res if args.res == "auto" else Fraction(args.res)
        spec = SectionSpec(f=ideal.generators[0], fixed_assignments=fixed,
                           box=box, resolution=res)
        if args.csv:
            result, cells = component_cells(spec, budget=args.budget)
        else:
            result = count_components(spec, budget=args.budget)
    except (OSError, ParseError, ValueError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceLimitExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    if args.csv:
        rows = "".join(f"{cx!r},{cy!r},{wx!r},{wy!r}\n" for cx, cy, wx, wy in cells)
        if not _write(args.csv, "cx,cy,wx,wy\n" + rows):
            return EXIT_PARSE
    print(result.count)
    return EXIT_OK


def _cmd_crofton(args):
    try:
        M = crofton_matrix(args.n)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    for row in M.entries:
        print(" ".join(f"{v:.12g}" for v in row))
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="germcone",
        description="Multiplicity-based bounds for germ section topology.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full bound report for an ideal file")
    p.add_argument("file")
    p.add_argument("--k", type=_k_range, default=None, metavar="a..b")
    p.add_argument("--assume-pure-dimensional", action="store_true")
    p.add_argument("--lk-exponent", choices=("default", "paper-display"),
                   default="default")
    p.add_argument("--budget", type=int, default=PAIR_BUDGET)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(run=_cmd_analyze)

    p = sub.add_parser("family", help="emit a counter-example family ideal")
    p.add_argument("kind", choices=("g", "f", "union"))
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(run=_cmd_family)

    p = sub.add_parser("betti0", help="count section components numerically")
    p.add_argument("file")
    p.add_argument("--fix", default="", metavar="var=val,...")
    p.add_argument("--box", required=True, metavar="xmin,xmax,ymin,ymax")
    p.add_argument("--res", default="auto", metavar="R|auto")
    p.add_argument("--budget", type=int, default=CELL_BUDGET)
    p.add_argument("--csv", default=None)
    p.set_defaults(run=_cmd_betti0)

    p = sub.add_parser("crofton", help="print the Crofton matrix")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_cmd_crofton)

    args = parser.parse_args(argv)
    if getattr(args, "budget", 1) <= 0:
        print("error: budget must be positive", file=sys.stderr)
        return EXIT_PARSE
    return args.run(args)


def entry():
    sys.exit(main())
