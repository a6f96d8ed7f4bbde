"""Command-line surface for the library.

Subcommands map one-to-one onto module operations: graph and generator
listings, the graded ramification cycle and its quadratic divisor, products,
integrals, pairings and the named check bundles.  JSON output (--json) is
the machine interface and re-parses into the identical internal value; the
human view is lossy and never parsed.  Exit codes:
0 success / all checks passed, 1 a check failed, 2 usage or domain error,
3 internal error (a defect, reported on stderr without a traceback).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .graphs import DomainError, automorphism_count, enumerate_stable_graphs
from .integrate import evaluate, pair_classes
from .pixton import RamificationData, hain_divisor, pixton_class, \
    pixton_mixed, q_form
from .product import multiply, multiply_mixed
from .strata import MixedClass, TautClass, generators, single
from . import verify


def _vec(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",")) if text else ()
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers,"
                                         " got %r" % text)


def _emit(payload: dict, args: argparse.Namespace, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _ram_data(args: argparse.Namespace) -> RamificationData:
    if args.a is not None:
        return RamificationData.from_a(args.g, args.n, args.k, args.a)
    if args.A is None:
        raise DomainError("one of --A or --a is required")
    return RamificationData(args.g, args.n, args.k, args.A)


def _class_arg(text: str):
    """A class payload: inline JSON or @path to a JSON file."""
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise DomainError("class payload must be a JSON object")
    if "parts" in payload:
        return MixedClass.from_payload(payload)
    return TautClass.from_payload(payload)


def _class_text(x) -> str:
    if isinstance(x, MixedClass):
        lines = []
        for d in x.degrees():
            lines.append("degree %d:" % d)
            lines.append(_class_text(x.part(d)))
        return "\n".join(lines) if lines else "0"
    terms = x.sorted_terms()
    if not terms:
        return "0"
    return "\n".join("%s  *  %s" % (str(c), s.label()) for s, c in terms)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_graphs(args) -> int:
    gs = enumerate_stable_graphs(args.g, args.n, args.codim)
    payload = {"g": args.g, "n": args.n, "codim": args.codim,
               "count": len(gs), "graphs": [G.encode() for G in gs]}
    human = "\n".join("%s   |Aut| = %d" % (G.encode(), automorphism_count(G))
                      for G in gs)
    human += "\n%d graphs" % len(gs)
    _emit(payload, args, human)
    return 0


def _cmd_generators(args) -> int:
    gens = generators(args.g, args.n, args.d)
    payload = {"g": args.g, "n": args.n, "degree": args.d,
               "count": len(gens),
               "classes": [single(args.g, args.n, s).to_payload()
                           for s in gens]}
    human = "\n".join(s.label() for s in gens) + "\n%d generators" % len(gens)
    _emit(payload, args, human)
    return 0


def _cmd_pixton(args) -> int:
    data = _ram_data(args)
    if args.deg is not None:
        cls = pixton_class(data, args.deg)
        _emit(cls.to_payload(), args, _class_text(cls))
    else:
        mix = pixton_mixed(data)
        _emit(mix.to_payload(), args, _class_text(mix))
    return 0


def _cmd_hain(args) -> int:
    data = _ram_data(args)
    cls = q_form(data) if args.doubled else hain_divisor(data)
    _emit(cls.to_payload(), args, _class_text(cls))
    return 0


def _cmd_multiply(args) -> int:
    x = _class_arg(args.x)
    y = _class_arg(args.y)
    if isinstance(x, MixedClass) or isinstance(y, MixedClass):
        if isinstance(x, TautClass):
            x = MixedClass(x.g, x.n, {x.degree: x})
        if isinstance(y, TautClass):
            y = MixedClass(y.g, y.n, {y.degree: y})
        out = multiply_mixed(x, y)
    else:
        out = multiply(x, y)
    _emit(out.to_payload(), args, _class_text(out))
    return 0


def _cmd_evaluate(args) -> int:
    x = _class_arg(args.x)
    if isinstance(x, MixedClass):
        x = x.part(3 * x.g - 3 + x.n)
    value = evaluate(x)
    _emit({"value": str(value)}, args, str(value))
    return 0


def _cmd_pair(args) -> int:
    x = _class_arg(args.x)
    y = _class_arg(args.y)
    if isinstance(x, MixedClass) or isinstance(y, MixedClass):
        raise DomainError("pairing takes pure-degree classes")
    value = pair_classes(x, y)
    _emit({"value": str(value)}, args, str(value))
    return 0


def _cmd_check(args) -> int:
    if args.bundle != "paper-section7" and (args.g is None or args.n is None):
        raise DomainError("--g and --n are required for this bundle")
    if args.bundle == "paper-section7":
        reports = verify.check_section7()
    elif args.bundle == "multiplicativity":
        if args.A is None or args.B is None:
            raise DomainError("multiplicativity needs --A and --B")
        da = RamificationData(args.g, args.n, args.ka, args.A)
        db = RamificationData(args.g, args.n, args.kb, args.B)
        reports = [verify.check_multiplicativity(da, db, args.locus)]
    elif args.bundle == "exp-identities":
        reports = [verify.check_exp_identities(_ram_data(args))]
    else:
        reports = [verify.check_gplus1(_ram_data(args))]
    ok = all(r.passed for r in reports)
    payload = {"checks": [r.to_payload(with_runtime=args.timing)
                          for r in reports],
               "passed": ok}
    lines = []
    for r in reports:
        mark = "PASS" if r.passed else "FAIL"
        extra = " (%d ms)" % r.runtime_ms if args.timing else ""
        lines.append("%-4s  %-32s %s%s" % (mark, r.name, r.verdict, extra))
        if not r.passed:
            lines.append("      witness: %s" % json.dumps(
                verify._jsonify(r.witness), sort_keys=True))
    _emit(payload, args, "\n".join(lines))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


# lets values like "-3,-1,4" reach _vec instead of parsing as option names
_VEC_TOKEN = re.compile(r"^-\d+(,-?\d+)*$")


def _allow_negative_vectors(p: argparse.ArgumentParser) -> None:
    p._negative_number_matcher = _VEC_TOKEN


def _add_type_flags(p: argparse.ArgumentParser, with_k: bool = True) -> None:
    p.add_argument("--g", type=int, required=True, help="genus")
    p.add_argument("--n", type=int, required=True, help="number of markings")
    if with_k:
        p.add_argument("--k", type=int, default=0, help="twist")
        mx = p.add_mutually_exclusive_group()
        mx.add_argument("--A", type=_vec,
                        help="comma-separated vector with sum k(2g-2+n)")
        mx.add_argument("--a", type=_vec,
                        help="shifted vector (a_i = A_i - k)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tautring",
        description="Exact tautological-ring computations on small moduli "
                    "of stable curves.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    p = sub.add_parser("graphs", help="list stable graphs up to a codimension")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--codim", type=int, required=True,
                   help="maximum number of edges")
    common(p)
    p.set_defaults(fn=_cmd_graphs)

    p = sub.add_parser("generators",
                       help="list decorated-stratum generators of a degree")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True, help="degree")
    common(p)
    p.set_defaults(fn=_cmd_generators)

    p = sub.add_parser("pixton",
                       help="graded ramification cycle (one degree or all)")
    _allow_negative_vectors(p)
    _add_type_flags(p)
    p.add_argument("--deg", type=int, default=None,
                   help="single degree; omit for the full graded class")
    common(p)
    p.set_defaults(fn=_cmd_pixton)

    p = sub.add_parser("hain", help="quadratic divisor on compact type")
    _allow_negative_vectors(p)
    _add_type_flags(p)
    p.add_argument("--doubled", action="store_true",
                   help="emit twice the divisor (the degree-1 cycle on "
                        "compact type)")
    common(p)
    p.set_defaults(fn=_cmd_hain)

    p = sub.add_parser("multiply", help="product of two classes")
    p.add_argument("x", help="class JSON or @file")
    p.add_argument("y", help="class JSON or @file")
    common(p)
    p.set_defaults(fn=_cmd_multiply)

    p = sub.add_parser("evaluate", help="integrate a top-degree class")
    p.add_argument("x", help="class JSON or @file")
    common(p)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("pair", help="intersection pairing of two classes")
    p.add_argument("x", help="class JSON or @file")
    p.add_argument("y", help="class JSON or @file")
    common(p)
    p.set_defaults(fn=_cmd_pair)

    p = sub.add_parser("check", help="run a named verification bundle")
    _allow_negative_vectors(p)
    p.add_argument("bundle", choices=["paper-section7", "multiplicativity",
                                      "exp-identities", "gplus1"])
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=0)
    mx = p.add_mutually_exclusive_group()
    mx.add_argument("--A", type=_vec)
    mx.add_argument("--a", type=_vec)
    p.add_argument("--ka", type=int, default=0, help="first twist")
    p.add_argument("--kb", type=int, default=0, help="second twist")
    p.add_argument("--B", type=_vec, help="second vector")
    p.add_argument("--locus", default="tl",
                   choices=["all", "full", "tl", "treelike", "ct",
                            "compact-type", "tree", "sm", "smooth"])
    p.add_argument("--timing", action="store_true",
                   help="include runtimes (breaks byte-determinism)")
    common(p)
    p.set_defaults(fn=_cmd_check)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # a defect, not a failed check: never exit 1
        print("error: internal: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
