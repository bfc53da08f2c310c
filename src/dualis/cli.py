"""Command line surface.

Verbs:
    run          execute every check in a spec document
    suite        run a built-in battery (paper-theorems | randomized)
    dualize      dual algebra of a coalgebra, or dual coalgebra of an algebra
    unitalize    adjoin a unit to an algebra from a spec document
    counitalize  adjoin a grouplike counit to a coalgebra
    semiperfect  one-sided semiperfectness of a quiver template
    coreflexive  evaluation-map bijectivity for a coalgebra

Exit codes: 0 all checks pass, 1 a check failed, 2 input error (bad file,
bad reference, malformed block, unusable flag value, a flag the verb does
not read; a file that is not UTF-8, nests past the recursion limit or holds
an integer of over 4,300 digits is bad).  --trials, --max-dim, --radius and
--bound take nonnegative integers only; a star template takes 1..1024 rays
(combinat.MAX_STAR_RAYS), and --radius is capped by combinat.check_radius.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .algebra import FinAlgebra, unitalize
from .coalgebra import counitalize, dual_algebra, dual_coalgebra
from .combinat import make_template, semiperfect_check
from .errors import DualisError, SpecParseError, UnknownCheck, UnresolvedReference
from .fields import field_from_name
from .specdoc import CHECKS, algebra_block, coalgebra_block, parse_spec
from .suite import RandomKnobs, SuiteKnobs, builtin_suite, run_document


class InputError(Exception):
    """Anything that should exit with status 2."""


def _nonnegative(text: str) -> int:
    """argparse type of the count flags; anything else exits 2 at parse time."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return n


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit the machine report instead of text")

    p = argparse.ArgumentParser(prog="dualis",
                                description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", parents=[common],
                         help="execute all checks in a spec document")
    run.add_argument("spec", help="path to a JSON spec document")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", metavar="PATH",
                     help="also write the machine report to PATH")
    run.add_argument("--timings", action="store_true",
                     help="include per-check durations (non-canonical)")

    suite = sub.add_parser("suite", parents=[common],
                           help="run a built-in battery")
    suite.add_argument("name", choices=["paper-theorems", "randomized"])
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--field", default=None, metavar="q|fp:<p>",
                       help="randomized suite: ground field")
    suite.add_argument("--out", metavar="PATH")
    suite.add_argument("--timings", action="store_true")
    suite.add_argument("--trials", type=_nonnegative, default=50,
                       help="randomized suite: trials per property")
    suite.add_argument("--max-dim", type=_nonnegative, default=4,
                       help="randomized suite: instance dimension cap")

    for verb, kinds in _OBJECT_KINDS.items():
        q = sub.add_parser(verb, parents=[common],
                           help=f"apply to a named {' or '.join(kinds)} from a spec file")
        q.add_argument("spec", help="path to a JSON spec document")
        q.add_argument("--object", required=True, dest="object_name",
                       help="name of the object block")

    sp = sub.add_parser("semiperfect", parents=[common],
                        help="semiperfectness of a quiver template")
    sp.add_argument("template", help='"line" | "ray" | "loop" | "star:<k>", 1 <= k <= 1024')
    sp.add_argument("--side", choices=["left", "right", "both"],
                    default="both")
    sp.add_argument("--radius", type=_nonnegative, default=3)
    sp.add_argument("--bound", type=_nonnegative, default=64)
    return p


def _load_doc(path: str):
    """The one reader of spec files."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {path}: {e}") from e
    return parse_spec(text)


def _emit_report(report, args) -> int:
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(report.canonical_json() + "\n")
        except OSError as e:
            raise InputError(f"cannot write {args.out}: {e}") from e
    if args.json:
        payload = report.payload(with_timings=getattr(args, "timings", False))
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(report.to_text())
    return 0 if report.passed else 1


def _cmd_run(args) -> int:
    doc = _load_doc(args.spec)
    report = run_document(doc, seed=args.seed)
    return _emit_report(report, args)


def _cmd_suite(args) -> int:
    if args.name == "randomized":
        if args.field is not None:
            try:
                field_from_name(args.field)
            except DualisError as e:
                raise InputError(str(e)) from e
        knobs = RandomKnobs(trials=args.trials, max_dim=args.max_dim,
                            field=args.field)
    else:
        knobs = SuiteKnobs()
    report = builtin_suite(args.name, seed=args.seed, knobs=knobs)
    return _emit_report(report, args)


def _dualize(X) -> dict:
    if isinstance(X, FinAlgebra):
        return coalgebra_block(dual_coalgebra(X))
    return algebra_block(dual_algebra(X))


# verb -> (kinds of its --object, fn(object) -> spec block)
_TRANSFORMS = {
    "dualize": (("algebra", "coalgebra"), _dualize),
    "unitalize": (("algebra",), lambda A: algebra_block(unitalize(A)[0])),
    "counitalize": (("coalgebra",), lambda C: coalgebra_block(counitalize(C)[0])),
}
_OBJECT_KINDS = {**{verb: kinds for verb, (kinds, _) in _TRANSFORMS.items()},
                 "coreflexive": (CHECKS["coreflexive"][0],)}


def _cmd_transform(args) -> int:
    kinds, fn = _TRANSFORMS[args.verb]
    block = fn(_load_doc(args.spec).resolve(args.object_name, kinds))
    if args.json:
        print(json.dumps(block, sort_keys=True, separators=(",", ":")))
    else:
        print(json.dumps(block, indent=2))
    return 0


def _cmd_coreflexive(args) -> int:
    C = _load_doc(args.spec).resolve(args.object_name, _OBJECT_KINDS["coreflexive"])
    ok, out = CHECKS["coreflexive"][1]((C,), {}, None)
    if args.json:
        print(json.dumps(out, sort_keys=True, separators=(",", ":")))
    else:
        print(f"{'PASS' if ok else 'FAIL'} coreflexive {args.object_name}: "
              f"kernel rank {out['kernel_rank']}, "
              f"dims {out['source_dim']} -> {out['target_dim']}")
    return 0 if ok else 1


def _cmd_semiperfect(args) -> int:
    try:
        template = make_template(args.template)
    except (DualisError, ValueError) as e:
        raise InputError(str(e)) from e
    sides = ["left", "right"] if args.side == "both" else [args.side]
    reports = [semiperfect_check(template, side, args.radius, args.bound)
               for side in sides]
    ok = all(r.status == "holds" for r in reports)
    if args.json:
        out = [{"side": r.side, "status": r.status, "radius": r.radius,
                "bound": r.bound, "vertex": r.vertex, "count": r.count}
               for r in reports]
        print(json.dumps(out, sort_keys=True, separators=(",", ":")))
    else:
        for r in reports:
            word = "PASS" if r.status == "holds" else "FAIL"
            extra = ""
            if r.vertex is not None:
                extra = f" (vertex {r.vertex}, count {r.count})"
            print(f"{word} semiperfect[{r.side}] {args.template}: "
                  f"{r.status} at radius {r.radius}, bound {r.bound}{extra}")
    return 0 if ok else 1


_COMMANDS = {
    "run": _cmd_run,
    "suite": _cmd_suite,
    **dict.fromkeys(_TRANSFORMS, _cmd_transform),
    "coreflexive": _cmd_coreflexive,
    "semiperfect": _cmd_semiperfect,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except (InputError, SpecParseError, UnknownCheck,
            UnresolvedReference) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DualisError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
