"""Command-line entry point.

Commands: count, weighted, dist, oracle, check, tables, program.  Results
are always exact decimal or p/q strings; ``--approx`` adds a clearly
labeled float on the side.  Exit codes: 2 parse error, 3 capacity limit,
4 check mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import celltypes, engine, oracle, transform, weights
from .formula import ParseError, Problem, parse_problem

EXIT_PARSE = 2
EXIT_CAPACITY = 3
EXIT_MISMATCH = 4


class CheckMismatch(RuntimeError):
    pass


@dataclass
class RunReport:
    command: str
    input_digest: str
    n: int
    result: object
    ms: float
    counters: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def to_json(self, approx: bool = False) -> str:
        payload = {
            "command": self.command,
            "input": self.input_digest,
            "n": self.n,
            "result": self.result,
            "exact": True,
            "counters": self.counters,
            "ms": round(self.ms, 3),
        }
        payload.update(self.extra)
        if approx:
            payload["approx"] = _approximate(self.result)
        return json.dumps(payload, indent=2, sort_keys=True)


def _format_exact(value) -> str:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _approximate(result):
    if isinstance(result, str):
        if "/" in result:
            num, den = result.split("/")
            return float(Fraction(int(num), int(den)))
        return float(int(result))
    if isinstance(result, dict):
        return {k: _approximate(v) for k, v in result.items()}
    return float(result)


def _load(path: str) -> tuple[Problem, str]:
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()[:16]
    try:
        return parse_problem(data.decode("utf-8")), digest
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {data[exc.start]:#04x} is not UTF-8",
                         data.count(b"\n", 0, exc.start) + 1) from None


def _compiled(problem: Problem):
    program = transform.compile_problem(problem)
    tables = celltypes.build_tables(program.kernel, program.signature)
    return program, tables


def _closed_form(problem: Problem, n: int, weighted: bool, threads: int,
                 counters: engine.Counters) -> Fraction:
    program, tables = _compiled(problem.with_domain_size(n))
    spec = problem.weights if weighted else None
    return engine.evaluate(program, tables, n, spec, threads=threads,
                           counters=counters)


def _query_from_args(problem: Problem, args) -> weights.DistributionQuery:
    if args.preds:
        return weights.DistributionQuery(tuple(p.strip() for p in args.preds.split(",")))
    return weights.DistributionQuery.default(problem)


def _dist_result(dist: dict) -> dict:
    return {"(" + ",".join(map(str, key)) + ")": _format_exact(val)
            for key, val in dist.items()}


def _emit(report: RunReport, args):
    if args.json:
        print(report.to_json(approx=args.approx))
        return
    if isinstance(report.result, dict):
        for key, val in report.result.items():
            line = f"{key}: {val}"
            if args.approx:
                line += f"   (~{_approximate(val)})"
            print(line)
    else:
        print(report.result)
        if args.approx:
            print(f"~ {_approximate(report.result)}")


def _run_count(args) -> int:
    problem, digest = _load(args.file)
    program, tables = _compiled(problem)
    if args.dump_program:
        print(transform.format_program(program))
    if args.dump_tables:
        print(_tables_json(tables))
    counters = engine.Counters()
    weighted = args.cmd == "weighted"
    spec = problem.weights if weighted else None
    progress = None
    if args.progress:
        progress = lambda c: print(  # noqa: E731
            f"... {c.k_vectors} k-vectors, {c.cells} cells, {c.pruned} pruned",
            file=sys.stderr)
    start = time.perf_counter()
    value = engine.evaluate(program, tables, problem.domain_size, spec,
                            threads=args.threads, counters=counters,
                            progress=progress)
    ms = (time.perf_counter() - start) * 1000
    report = RunReport(args.cmd, digest, problem.domain_size,
                       _format_exact(value), ms, counters.as_dict())
    _emit(report, args)
    return 0


def _run_dist(args) -> int:
    problem, digest = _load(args.file)
    query = _query_from_args(problem, args)
    start = time.perf_counter()
    dist = weights.count_distribution(problem, query, threads=args.threads)
    ms = (time.perf_counter() - start) * 1000
    report = RunReport("dist", digest, problem.domain_size,
                       _dist_result(dist), ms,
                       extra={"preds": ",".join(query.preds)})
    _emit(report, args)
    return 0


def _run_oracle(args) -> int:
    problem, digest = _load(args.file)
    start = time.perf_counter()
    if args.dist:
        query = _query_from_args(problem, args)
        result = _dist_result(oracle.oracle_distribution(
            problem, query, limit=args.limit, threads=args.threads))
    else:
        result = _format_exact(oracle.oracle_count(
            problem, limit=args.limit, threads=args.threads))
    ms = (time.perf_counter() - start) * 1000
    report = RunReport("oracle", digest, problem.domain_size, result, ms)
    _emit(report, args)
    return 0


def _run_check(args) -> int:
    problem, digest = _load(args.file)
    max_n = args.max_n if args.max_n else problem.domain_size
    rows = []
    agree = True
    start = time.perf_counter()
    for n in range(1, max_n + 1):
        sized = problem.with_domain_size(n)
        counters = engine.Counters()
        closed = _closed_form(problem, n, weighted=True,
                              threads=args.threads, counters=counters)
        brute = oracle.oracle_count(sized, limit=args.limit,
                                    threads=args.threads)
        ok = closed == brute
        agree = agree and ok
        rows.append({"n": n, "closed_form": _format_exact(closed),
                     "oracle": _format_exact(brute), "agree": ok})
    ms = (time.perf_counter() - start) * 1000
    report = RunReport("check", digest, max_n, rows, ms,
                       extra={"agree": agree})
    if args.json:
        print(report.to_json())
    else:
        for row in rows:
            flag = "ok" if row["agree"] else "MISMATCH"
            print(f"n={row['n']}: closed={row['closed_form']} "
                  f"oracle={row['oracle']} {flag}")
    if not agree:
        raise CheckMismatch(f"closed form disagrees with the oracle on {args.file}")
    return 0


def _tables_json(tables: celltypes.TypeTables) -> str:
    order = tables.order
    payload = {
        "u": order.u,
        "b": order.b,
        "unary_atoms": [a.text() for a in order.unary_atoms],
        "binary_atoms": [a.text() for a in order.binary_atoms],
        "alive": list(tables.alive),
        "n_ij": {f"{i},{j}": tables.n_ij(i, j)
                 for (i, j) in sorted(tables.masks)},
        "n_ijv": {f"{i},{j}": tables.satisfying_vtypes(i, j)
                  for (i, j) in sorted(tables.masks)
                  if tables.masks[(i, j)]},
    }
    return json.dumps(payload, indent=2)


def _run_tables(args) -> int:
    problem, _digest = _load(args.file)
    _program, tables = _compiled(problem)
    print(_tables_json(tables))
    return 0


def _run_program(args) -> int:
    problem, _digest = _load(args.file)
    program = transform.compile_problem(problem)
    print(transform.format_program(program), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftcount",
        description="Exact model counting for two-variable logic with "
                    "counting quantifiers and cardinality constraints.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, oracle_opts=False, dist_opts=False):
        p.add_argument("file", help="problem file")
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--approx", action="store_true",
                       help="add a float approximation next to exact values")
        p.add_argument("--threads", type=int, default=1, metavar="N")
        if oracle_opts:
            p.add_argument("--limit", type=int, default=oracle.DEFAULT_ATOM_LIMIT,
                           help="ground-atom cap for exhaustive enumeration")
        if dist_opts:
            p.add_argument("--preds", default="",
                           help="comma-separated query predicates; prefix "
                                "! for the complement count")

    for cmd, text in (("count", "unweighted model count"),
                      ("weighted", "weighted model count")):
        p = sub.add_parser(cmd, help=text)
        common(p)
        p.add_argument("--progress", action="store_true",
                       help="report progress on standard error once a second")
        p.add_argument("--dump-tables", action="store_true")
        p.add_argument("--dump-program", action="store_true")

    p = sub.add_parser("dist", help="count distribution")
    common(p, dist_opts=True)

    p = sub.add_parser("oracle", help="brute-force reference computation")
    common(p, oracle_opts=True, dist_opts=True)
    p.add_argument("--dist", action="store_true",
                   help="compute the count distribution instead of the count")

    p = sub.add_parser("check", help="closed form against the oracle")
    common(p, oracle_opts=True)
    p.add_argument("--max-n", type=int, default=0,
                   help="check domain sizes 1..K (default: the file's n)")

    p = sub.add_parser("tables", help="dump the satisfaction tables as JSON")
    p.add_argument("file")

    p = sub.add_parser("program", help="dump the compiled program")
    p.add_argument("file")
    return parser


_HANDLERS = {
    "count": _run_count,
    "weighted": _run_count,
    "dist": _run_dist,
    "oracle": _run_oracle,
    "check": _run_check,
    "tables": _run_tables,
    "program": _run_program,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.cmd](args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except celltypes.CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except CheckMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except weights.EmptyDistributionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
