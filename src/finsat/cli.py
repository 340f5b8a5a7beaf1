"""Batch front door: parse, check, normalize, transform, decide, verify,
export.

Exit codes: 0 success/satisfiable, 1 no model up to the bound (or a false
check), 2 budget exhausted or enumeration refused, 64 usage error
(including an unreadable input file), 65 parse error, 70 internal
assertion failure or any other crash.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from typing import Optional

from .logic import (
    BudgetExceeded,
    EnumerationBudgetError,
    LogicError,
    Signature,
    VerificationFailure,
    evaluate,
)
from .parsing import (
    DocumentError,
    ParseError,
    export_factorization_dot,
    parse_formula,
    print_formula,
    read_structure,
    write_structure,
)
from .factorization import TypedPartialOrder, factorize_for, trivial_factorization
from .normal_forms import (
    basic_set_formula,
    to_basic,
    to_standard_nf,
    to_transitive_nf,
)
from .resolution import to_spread
from .solver import LOGIC_DIST, SearchBudget, decide, find_expansion, random_formula, random_structure
from .verify import pipeline_verify

EXIT_OK = 0
EXIT_NO_MODEL = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_INTERNAL = 70


def _signature(args: argparse.Namespace) -> Signature:
    unary = tuple(n for n in (args.unary or "").split(",") if n)
    binary = tuple(n for n in (args.binary or "").split(",") if n)
    return Signature(unary, binary, LOGIC_DIST[args.logic])


def _budget(args: argparse.Namespace) -> SearchBudget:
    return SearchBudget() if args.bound is None else SearchBudget(max_size=args.bound)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise LogicError(f"cannot read {path}: {e}") from e


def cmd_parse(args: argparse.Namespace) -> int:
    sig = _signature(args)
    f = parse_formula(_read(args.formula), sig)
    print(print_formula(f))
    return EXIT_OK


def cmd_check_model(args: argparse.Namespace) -> int:
    s = read_structure(_read(args.structure))
    f = parse_formula(_read(args.formula), s.sig)
    value = evaluate(s, f)
    print("true" if value else "false")
    return EXIT_OK if value else EXIT_NO_MODEL


def cmd_normalize(args: argparse.Namespace) -> int:
    sig = _signature(args)
    f = parse_formula(_read(args.formula), sig)
    if args.to == "standard":
        snf, sig1 = to_standard_nf(f, sig)
        print(f"multiplicity: {snf.multiplicity}")
        print(f"fresh unary predicates: {' '.join(sig1.unary[len(sig.unary):]) or '(none)'}")
        print(print_formula(snf.to_formula()))
        return EXIT_OK
    if args.to == "basic":
        snf, sig1 = to_standard_nf(f, sig)
        psis, sig_star = to_basic(snf.to_weak(), sig1)
        print(f"multiplicity: {snf.multiplicity}")
        print(
            f"signature: {len(sig1.unary)} + 3*{snf.multiplicity} = {len(sig_star.unary)} unary predicates"
        )
        print(f"basic formulas: {len(psis)}")
        for psi in psis:
            print(f"  {psi.kind.value}: {print_formula(psi.to_formula())}")
        return EXIT_OK
    if args.to == "transitive":
        tnf, sig1 = to_transitive_nf(f, sig)
        print(f"multiplicity: {tnf.multiplicity}")
        print(f"guards: {' '.join(p for row in tnf.guards for p in row)}")
        print(print_formula(tnf.to_formula()))
        return EXIT_OK
    if args.to == "spread":
        snf, sig1 = to_standard_nf(f, sig)
        outcome = decide(snf.to_formula(), sig1, args.logic, _budget(args))
        if outcome.kind != "sat":
            print(outcome.report or f"no model up to the bound")
            return EXIT_NO_MODEL if outcome.kind == "no_model_up_to" else EXIT_UNKNOWN
        res = to_spread(snf, outcome.model)
        print(f"multiplicity: {res.spread.multiplicity}")
        print(print_formula(res.spread.to_formula()))
        return EXIT_OK
    raise LogicError(f"unknown normal form {args.to!r}")


def cmd_decide(args: argparse.Namespace) -> int:
    sig = _signature(args)
    f = parse_formula(_read(args.formula), sig)
    outcome = decide(f, sig, args.logic, _budget(args))
    if outcome.kind == "sat":
        print(f"sat at size {outcome.size}")
        if args.format == "document":
            print(write_structure(outcome.model), end="")
        return EXIT_OK
    if outcome.kind == "no_model_up_to":
        print(outcome.report)
        return EXIT_NO_MODEL
    print(outcome.report)
    return EXIT_UNKNOWN


def cmd_verify_pipeline(args: argparse.Namespace) -> int:
    sig = _signature(args)
    f = parse_formula(_read(args.formula), sig)
    report = pipeline_verify(f, sig, args.logic, _budget(args))
    print(report.render(), end="")
    if not report.ok:
        return EXIT_INTERNAL
    if any(s.status == "unknown" for s in report.stages):
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_factorize(args: argparse.Namespace) -> int:
    s = read_structure(_read(args.structure))
    tpo = TypedPartialOrder.from_structure(s)
    if args.formula:
        sig = s.sig
        f = parse_formula(_read(args.formula), sig)
        snf, sig1 = to_standard_nf(f, sig)
        psis, sig_star = to_basic(snf.to_weak(), sig1)
        expanded = find_expansion(s, basic_set_formula(psis), sig_star, SearchBudget())
        if expanded is None:
            print("structure does not satisfy the formula under any labelling")
            return EXIT_NO_MODEL
        tpo = TypedPartialOrder.from_structure(expanded)
        fact = factorize_for(tpo, psis)
    else:
        fact = trivial_factorization(tpo)
    if args.format == "dot":
        print(export_factorization_dot(fact), end="")
    else:
        for i, block in enumerate(fact.blocks):
            mark = "*" if i in fact.extremal_blocks else " "
            print(f"block {i}{mark} [{fact.block_types[i].label()}]: {' '.join(map(str, sorted(block)))}")
        for i, j in sorted(fact.covers()):
            print(f"  {i} << {j}")
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    sig = _signature(args)
    if args.kind == "structure":
        s = random_structure(args.seed, sig, args.size)
        print(write_structure(s), end="")
    else:
        f = random_formula(args.seed, sig, depth=args.depth)
        print(print_formula(f))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="finsat",
        description="finite satisfiability workbench for two-variable logic "
        "with one transitive relation or partial order",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formula: bool = True) -> None:
        p.add_argument("--logic", choices=tuple(LOGIC_DIST), default="l2-1po-u")
        p.add_argument("--unary", default="", help="comma-separated unary predicates")
        p.add_argument("--binary", default="", help="comma-separated binary predicates")
        if formula:
            p.add_argument("formula", help="formula file ('-' for stdin)")

    p = sub.add_parser("parse", help="echo the parsed formula")
    common(p)
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("check-model", help="evaluate a structure against a formula")
    p.add_argument("formula")
    p.add_argument("structure")
    p.set_defaults(fn=cmd_check_model)

    p = sub.add_parser("normalize", help="emit a normal form")
    common(p)
    p.add_argument("--to", choices=("standard", "basic", "transitive", "spread"), required=True)
    p.add_argument("--bound", type=int)
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("decide", help="bounded satisfiability decision")
    common(p)
    p.add_argument("--bound", type=int)
    p.add_argument("--format", choices=("text", "document"), default="text")
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("verify-pipeline", help="run every transformation with checks")
    common(p)
    p.add_argument("--bound", type=int)
    p.set_defaults(fn=cmd_verify_pipeline)

    p = sub.add_parser("factorize", help="factorize a structure document")
    p.add_argument("structure")
    p.add_argument("--formula", help="optional formula file steering the factorization")
    p.add_argument("--format", choices=("text", "dot"), default="text")
    p.set_defaults(fn=cmd_factorize)

    p = sub.add_parser("gen", help="random fixtures")
    common(p, formula=False)
    p.add_argument("--kind", choices=("structure", "formula"), default="structure")
    p.add_argument("--size", type=int, default=4)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gen)
    return top


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ParseError, DocumentError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except VerificationFailure as e:
        print(f"internal check failed: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (BudgetExceeded, EnumerationBudgetError) as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return EXIT_UNKNOWN
    except LogicError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
