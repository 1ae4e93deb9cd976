"""Command-line workbench.

Subcommands: classify, sweep, verify-cases, graph, slice, orbit-of-flag.
Output is deterministic (fixed ordering, timing lines prefixed '#').

Exit codes: 0 success, 1 a failing verify-cases check, 2 coherence
violation in an even-size sweep, 64 usage error, 65 malformed input,
66 size guard.
"""

from __future__ import annotations

import argparse
import sys

from .errors import DegenerateFlag, MalformedInput, TooLarge
from .perms import format_perm, guard_size, parse_perm, validate_involution
from .bruhat import interval, rank
from .orbit_graph import export_dot
from .geometry import (
    monomial_claim,
    neighbor_variable,
    orbit_of_flag,
    parse_flag_file,
    slice_gram,
    slice_ideal,
    slice_vars,
    variable_weight,
)
from .poly import var_name
from .smoothness import (
    classify,
    report_record,
    report_text,
    sweep,
    sweep_records,
    sweep_text,
    verify_known_cases,
)

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_COHERENCE = 2
EXIT_USAGE = 64
EXIT_BAD_INPUT = 65
EXIT_TOO_LARGE = 66


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _involution_arg(text: str):
    return validate_involution(parse_perm(text))


def _format_weight(weight) -> str:
    parts = []
    for k, c in enumerate(weight, start=1):
        if c == 0:
            continue
        if c == 1:
            parts.append(("+" if parts else "") + f"e{k}")
        elif c == -1:
            parts.append(f"-e{k}")
        else:
            parts.append(("+" if parts and c > 0 else "") + f"{c}e{k}")
    return "".join(parts) or "0"


def _cmd_classify(args) -> int:
    pi = _involution_arg(args.perm)
    report = classify(pi)
    if args.format == "structured":
        print(report_record(report))
    else:
        sys.stdout.write(report_text(report))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    report = sweep(args.m)
    sys.stdout.write(sweep_text(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(record + "\n" for record in sweep_records(report))
    if args.m % 2 == 0 and report.pattern_singular_degree_smooth:
        return EXIT_COHERENCE
    return EXIT_OK


def _cmd_verify_cases(args) -> int:
    results = verify_known_cases()
    for r in results:
        status = "pass" if r.passed else "FAIL"
        wit = ("  [" + "; ".join(r.witnesses) + "]") if r.witnesses else ""
        print(f"({r.item}) {status} {r.label}{wit}")
    passed = all(r.passed for r in results)
    print("all checks pass" if passed else "CHECKS FAILED")
    return EXIT_OK if passed else EXIT_CHECKS_FAILED


def _cmd_graph(args) -> int:
    pi = _involution_arg(args.perm)
    dot = export_dot(interval(pi))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(dot)
    else:
        sys.stdout.write(dot)
    return EXIT_OK


def _cmd_slice(args) -> int:
    pi = _involution_arg(args.perm)
    m = len(pi)
    if m % 2:
        print(f"flagorbits slice: error: slice needs even size, got m={m}", file=sys.stderr)
        return EXIT_USAGE
    guard_size(m, "slice")
    n = m // 2
    print(f"slice for {format_perm(pi)} (n={n}, r={rank(pi)})")
    print("variables:")
    for v in slice_vars(n):
        print(f"  {var_name(v)} weight {_format_weight(variable_weight(v, n))}")
    print("gram:")
    for row in slice_gram(n):
        print("  [" + ", ".join(str(p) for p in row) + "]")
    print("ideal:")
    ideal = slice_ideal(pi, n)
    if not ideal:
        print("  (empty; every bottom-vertex neighbor lies in the interval)")
    for v, poly in ideal:
        claim = "pass" if monomial_claim(pi, v, n) else "FAIL"
        var = var_name(neighbor_variable(v, n))
        print(f"  v={format_perm(v)} var={var} minor={poly} claim={claim}")
    return EXIT_OK


def _cmd_orbit_of_flag(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        flag = parse_flag_file(fh.read())
    print(format_perm(orbit_of_flag(flag)))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="flagorbits", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one involution")
    p.add_argument("perm")
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("sweep", help="classify every involution of S_m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", help="write structured records to this path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify-cases", help="run the case-regression checklist")
    p.set_defaults(func=_cmd_verify_cases)

    p = sub.add_parser("graph", help="export the interval graph as DOT")
    p.add_argument("perm")
    p.add_argument("--dot", help="write DOT to this path instead of stdout")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("slice", help="print the symbolic slice data (even m)")
    p.add_argument("perm")
    p.set_defaults(func=_cmd_slice)

    p = sub.add_parser("orbit-of-flag", help="identify the orbit of a flag file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_orbit_of_flag)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # raised by _Parser.error / --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (MalformedInput, DegenerateFlag, UnicodeDecodeError) as exc:
        print(f"flagorbits: malformed input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except TooLarge as exc:
        print(f"flagorbits: too large: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except OSError as exc:
        print(f"flagorbits: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
