"""Command line front end.

Subcommands: eval, check, families, search, repro. Exit codes are part of
the interface: 0 = holds / all passed / certified, 1 = violated / failed /
counterexample found, 2 = usage or parse error, a failed or refused scan,
or an internal error, 3 = search budget exhausted, 141 = the reader closed
stdout early (128 + SIGPIPE, with nothing on stderr). ``search --workers
N`` is still parsed and checked, but changes nothing: every scan runs in
the calling process. ``check --law`` takes a registry name or law text,
printed in the order given before the ``--laws-file`` laws; ``search
--space`` selects documents mode. A law may have any number of variables:
a scan of more than ``dsl.MAX_SCAN`` assignments of one space is refused
when it starts, after the space file is read.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import dsl
from . import operators as ops
from . import search as search_mod
from .space import Space, SpaceDocumentError, Witness, parse_space


def _read_text(path: str) -> str:
    """A UTF-8 text file; a file that does not decode is named in the error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _load_space(paths: list[str]) -> Space:
    if len(paths) > 1:
        raise ValueError(f"--space takes one file, got {len(paths)}: {', '.join(paths)}")
    text = _read_text(paths[0])
    try:
        return parse_space(text)
    except SpaceDocumentError as exc:
        raise SpaceDocumentError(f"{paths[0]}: {exc}") from exc


def _parse_bindings(space: Space, texts: list[str], names: tuple[str, ...]) -> dict[str, int]:
    """Parse ``--bind`` texts, which must bind every variable in ``names``."""
    bindings: dict[str, int] = {}
    for text in texts:
        name, sep, subset = text.partition("=")
        if not sep:
            raise ValueError(f"--bind {text!r}: a binding looks like A=w1,w3")
        name = name.strip()
        if len(name) != 1 or not "A" <= name <= "Z" or name == "X":
            raise ValueError(
                f"--bind {text!r}: {name!r} is not a variable "
                "(single uppercase letter other than X)"
            )
        if name not in names:
            raise ValueError(f"--bind {text!r}: variable {name} does not occur in the expression")
        if name in bindings:
            raise ValueError(f"--bind {text!r}: variable {name} is already bound")
        try:
            bindings[name] = space.ground.parse_subset(subset)
        except SpaceDocumentError as exc:  # an unknown label or one given twice
            raise ValueError(f"--bind {text!r}: {exc}") from None
    for name in names:
        if name not in bindings:
            raise ValueError(f"unbound variable {name!r}: bind it with --bind {name}=SUBSET")
    return bindings


def _verdict_json(space: Space, witness: Witness | None) -> dict:
    return {
        "status": "Holds" if witness is None else "Violated",
        "witness": None if witness is None else witness.by_label(space.ground),
    }


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_eval(args) -> int:
    space = _load_space(args.space)
    expr = dsl.parse_expr(args.expr)
    bindings = _parse_bindings(space, args.bind, dsl.free_vars(expr))
    value = dsl.eval_expr(space, bindings, expr)
    if args.json:
        _emit_json(
            {
                "expr": args.expr,
                "bindings": {k: space.ground.labels_of(v) for k, v in bindings.items()},
                "value": space.ground.labels_of(value),
                "raw": value,
            }
        )
    elif args.raw:
        print(value)
    else:
        print(space.ground.format(value))
    return 0


def cmd_check(args) -> int:
    from . import laws  # only check needs the registry; other commands start without it

    # Every law is resolved before the space file is read, so a bad law
    # fails before any scan; ``checks`` holds the laws in the order the
    # results print, each named by its text.
    checks = list(map(laws.resolve_law, args.law))
    if args.laws_file:
        try:
            file_laws = dsl.read_laws_file(_read_text(args.laws_file))
        except dsl.DslError as exc:
            raise ValueError(f"{args.laws_file}:{exc.line}: {exc}") from exc
        if not file_laws:
            raise ValueError(f"{args.laws_file}: no law in the file")
        checks += [laws.text_law(dsl.format_law(law), law) for law in file_laws]
    if not checks:
        raise ValueError("nothing to check: pass --law or --laws-file")
    space = _load_space(args.space)
    results = [(law.name, law.check(space)) for law in checks]
    if args.json:
        _emit_json(
            [{"law": text, **_verdict_json(space, witness)} for text, witness in results]
        )
    else:
        for text, witness in results:
            if witness is None:
                print(f"Holds     {text}")
            else:
                print(f"Violated  {text}  [{witness.line(space.ground)}]")
    return 0 if all(w is None for _, w in results) else 1


def cmd_families(args) -> int:
    space = _load_space(args.space)
    family = ops.kopen_family(space, args.kind)
    if args.json:
        _emit_json([space.ground.labels_of(s) for s in family])
    else:
        for subset in family:
            print(subset if args.raw else space.ground.format(subset))
    return 0


def cmd_search(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    if args.space and args.points is not None:
        raise ValueError("--points conflicts with --space files")
    documents = [_read_text(path) for path in args.space or ()]
    if documents and args.mode:
        raise ValueError(f"--space files conflict with --mode {args.mode}")
    mode = "documents" if documents else args.mode or "exhaustive"
    task = search_mod.SearchTask(
        law_text=args.law,
        n=3 if args.points is None else args.points,
        mode=mode,
        want="all-minimal" if args.all_minimal else "first",
        budget_spaces=args.budget_spaces,
        budget_assignments=args.budget_assignments,
        documents=tuple(documents),
    )
    try:
        result = search_mod.run_search(task)
    except search_mod.DocumentError as exc:
        raise ValueError(f"{args.space[exc.index]}: {exc.error}") from exc
    sys.stdout.write(search_mod.report_json(result))
    if result.status == search_mod.STATUS_CERTIFIED:
        return 0
    if result.status == search_mod.STATUS_FOUND:
        return 1
    return 3


def cmd_repro(args) -> int:
    from . import corpus  # only repro needs it; other commands start without it

    reports = corpus.run_corpus(only=args.only)
    if args.json:
        _emit_json(
            [
                {
                    "id": r.entry_id,
                    "title": r.title,
                    "checks": r.checks,
                    "passed": r.passed,
                    "failures": list(r.failures),
                }
                for r in reports
            ]
        )
    else:
        for r in reports:
            mark = "PASS" if r.passed else "FAIL"
            print(f"{mark} {r.entry_id} ({r.checks} checks) {r.title}")
            for failure in r.failures:
                print(f"    {failure}")
        passed = sum(1 for r in reports if r.passed)
        print(f"{passed}/{len(reports)} entries passed")
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idealtop",
        description="Workbench for finite ideal topological spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a set expression on a space")
    p_eval.add_argument("expr", help="expression, e.g. 'sstar(union(A,B))'")
    p_eval.add_argument("--space", action="append", required=True, help="space-document JSON file")
    p_eval.add_argument(
        "--bind",
        action="append",
        default=[],
        metavar="VAR=SUBSET",
        help="variable binding, e.g. A=w1,w3 (repeatable; empty set: A=)",
    )
    eval_format = p_eval.add_mutually_exclusive_group()
    eval_format.add_argument("--raw", action="store_true", help="print the subset as an integer bitmask")
    eval_format.add_argument("--json", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_check = sub.add_parser("check", help="check laws on a space")
    p_check.add_argument("--space", action="append", required=True)
    p_check.add_argument(
        "--law",
        action="append",
        default=[],
        help="registry law name, e.g. additivity:sstar, or law text, e.g. "
        "'sstar(union(A,B)) == union(sstar(A),sstar(B))' (repeatable)",
    )
    p_check.add_argument("--laws-file", help="file with one law per line, # comments")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_fam = sub.add_parser("families", help="print a generalized-open family")
    p_fam.add_argument("kind", choices=sorted(ops.KINDS))
    p_fam.add_argument("--space", action="append", required=True)
    fam_format = p_fam.add_mutually_exclusive_group()
    fam_format.add_argument("--raw", action="store_true")
    fam_format.add_argument("--json", action="store_true")
    p_fam.set_defaults(func=cmd_families)

    p_search = sub.add_parser("search", help="hunt for counterexamples over enumerated spaces")
    p_search.add_argument("law", help="law text to refute or certify")
    p_search.add_argument("--points", type=int, default=None, help="ground set size (default 3)")
    p_search.add_argument(
        "--mode",
        choices=["exhaustive", "subbase"],
        default=None,
        help="enumerated space stream (default: exhaustive); conflicts with --space",
    )
    p_search.add_argument(
        "--space",
        action="append",
        metavar="FILE",
        help="space-document file (repeatable); scans these spaces in place of an enumeration",
    )
    p_search.add_argument("--all-minimal", action="store_true", help="collect all minimal violating spaces")
    p_search.add_argument("--budget-spaces", type=int, default=None)
    p_search.add_argument("--budget-assignments", type=int, default=None)
    p_search.add_argument(
        "--workers", type=int, default=1, help="accepted and ignored; scans run in this process"
    )
    p_search.set_defaults(func=cmd_search)

    p_repro = sub.add_parser("repro", help="re-run the embedded corpus")
    p_repro.add_argument("--only", help="run a single corpus entry by id")
    p_repro.add_argument("--json", action="store_true")
    p_repro.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return status
    except BrokenPipeError:
        # The reader left early (``idealtop repro | head``): exit as a tool
        # killed by SIGPIPE does, silently, and send the exit-time flush of
        # what is still buffered to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (SpaceDocumentError, dsl.DslError, ValueError, OSError, search_mod.ScanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:  # a self-check of the program failed
        print(f"error: internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
