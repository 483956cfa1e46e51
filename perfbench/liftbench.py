"""Ladder benchmark for liftcount.

Three workloads, each a fixed ladder of problems and domain sizes, run
through the public library API (``parse_problem`` -> ``compile_problem``
-> ``build_tables`` -> ``evaluate``, or ``count_distribution``) in this
one process on one thread.  Every result is compared exactly against a
closed form computed here with ``math.comb`` and ``Fraction``; at start
the closed forms themselves are compared against the brute-force oracle
at n <= 3.

An untraced run reports the end-to-end metrics.  A traced run records a
span around each public call, alternates traced and untraced passes, and
reports the per-layer metrics plus the tracing overhead.  See README.md
for the workloads and what each metric should move.
"""

from __future__ import annotations

import gc
import hashlib
import inspect
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from string import Template
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

WORKLOADS = ("universal", "weighted-constrained", "counting")

CASE_BUDGET_S = 15.0     # one solve, parse through checked result
HARD_DEADLINE_S = 150.0  # after this, remaining solves are not started
SETUP_SAMPLES = 9        # fresh interpreters timed for setup_s

# Solve times are reported in reference seconds: wall seconds divided by
# how much slower than this reference time the calibration kernel ran
# just before and just after the solve.  On a shared host the CPU speed
# can drift by a third over tens of seconds; the scaling cancels most of
# that drift.
CALIBRATION_REF_S = 0.007

# One-thread numeric libraries, here and in the setup interpreters.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# Seed-drawn symmetric weights come from this set: equal bit sizes keep a
# solve's cost nearly independent of the draw.
WEIGHT_CHOICES = (Fraction(2, 3), Fraction(3, 2))
CARD_BOUND = 5           # m in the `|R| <= m` family


class CaseTimeout(Exception):
    """A solve ran past its time budget."""


class WrongValue(Exception):
    """A solve returned something other than its closed form."""


# ---------------------------------------------------------------------------
# Closed forms (independent of liftcount)
# ---------------------------------------------------------------------------

def friends_free_pairs(n: int, k: int) -> int:
    """Pairs left free by `A(x) & R(x,y) & x != y -> A(y)` when |A| = k."""
    return k * k + (n - k) * n


def friends_count(n: int) -> Fraction:
    return Fraction(sum(math.comb(n, k) << friends_free_pairs(n, k)
                        for k in range(n + 1)))


def friends_bounded(n: int, m: int, ks=None) -> Fraction:
    """Friends models with |R| <= m, and |A| in ``ks`` if given."""
    ks = range(n + 1) if ks is None else [k for k in ks if k <= n]
    return Fraction(sum(
        math.comb(n, k) * sum(math.comb(friends_free_pairs(n, k), j)
                              for j in range(m + 1))
        for k in ks))


def friends_distribution(n: int) -> dict:
    z = friends_count(n)
    return {(k,): Fraction(math.comb(n, k) << friends_free_pairs(n, k)) / z
            for k in range(n + 1)}


def smokers_count(n: int, a, b, c, d) -> Fraction:
    return sum((math.comb(n, k) * a ** k * b ** (n - k)
                * (c + d) ** (n * n - k * (n - k)) * d ** (k * (n - k))
                for k in range(n + 1)), Fraction(0))


def coins_distribution(n: int) -> dict:
    """Uniform weight on even head counts: P(j) = C(n, j) / 2^(n-1)."""
    return {(j,): Fraction(math.comb(n, j), 2 ** (n - 1)) if j % 2 == 0
            else Fraction(0) for j in range(n + 1)}


def _row_weights(n: int, comparator: str, m: int) -> list[int]:
    """Coefficient j: ways to pick a row of j successors meeting `[comparator m]`."""
    keep = {"=": lambda j: j == m, "<=": lambda j: j <= m,
            ">=": lambda j: j >= m}[comparator]
    return [math.comb(n, j) if keep(j) else 0 for j in range(n + 1)]


def counting_count(n: int, comparator: str, m: int) -> Fraction:
    """`forall x exists[comparator m] y R(x,y)`: rows are independent."""
    return Fraction(sum(_row_weights(n, comparator, m)) ** n)


def counting_distribution(n: int, comparator: str, m: int) -> dict:
    """Distribution of |R|: coefficients of (sum_j row_j t^j)^n."""
    row = _row_weights(n, comparator, m)
    poly = [1]
    for _ in range(n):
        nxt = [0] * (len(poly) + n)
        for i, p in enumerate(poly):
            if p:
                for j, r in enumerate(row):
                    nxt[i + j] += p * r
        poly = nxt
    z = sum(poly)
    return {(j,): Fraction(c, z) for j, c in enumerate(poly) if c}


# ---------------------------------------------------------------------------
# Problem families and workloads
# ---------------------------------------------------------------------------

FRIENDS = ("unary: A\nbinary: R\n"
           "formula: forall x forall y (A(x) & R(x,y) & x != y -> A(y))\n")


def _template(text: str) -> Callable[[int], str]:
    return lambda n: Template(text).substitute(n=n)


@dataclass(frozen=True)
class Family:
    """One problem template.  ``query`` set means the solve is a
    ``count_distribution`` call on those predicates, else ``evaluate``."""

    name: str
    text: Callable[[int], str]             # problem text for domain size n
    closed_form: Callable[[int], object]
    query: Optional[tuple[str, ...]] = None


@dataclass(frozen=True)
class Case:
    family: Family
    n: int

    @property
    def id(self) -> str:
        return f"{self.family.name}-n{self.n}"


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    cases: tuple[Case, ...]
    main: str                              # family whose times give scaling_exp
    probes: tuple[Case, ...] = ()          # known defects, run once, untimed
    params: tuple[tuple[str, str], ...] = ()


def _counting_family(name: str, comparator: str, m: int, dist=False) -> Family:
    template = ("domain: $n\nbinary: R\n"
                f"formula: forall x exists[{comparator}{m}] y R(x,y)\n")
    if dist:
        return Family(name, _template(template),
                      lambda n: counting_distribution(n, comparator, m), ("R",))
    return Family(name, _template(template),
                  lambda n: counting_count(n, comparator, m))


def _coins_text(n: int) -> str:
    """Coin tosses with weight 2 on every even head count up to n."""
    table = " ".join(f"({j}) -> 2;" for j in range(0, n + 1, 2))
    return f"domain: {n}\nunary: H\nformula: true\nstatweight: H {{ {table} default -> 0 }}\n"


def build_workload(name: str, seed: int) -> Workload:
    """The workload's cases.  The seed draws the symmetric weights of
    `weighted-constrained`; shapes and n ladders never depend on it."""
    rng = random.Random(seed)
    if name == "universal":
        friends = Family("friends", _template("domain: $n\n" + FRIENDS), friends_count)
        exists = Family("exists",
                        _template("domain: $n\nbinary: R\nformula: forall x exists y R(x,y)\n"),
                        lambda n: Fraction((2 ** n - 1) ** n))
        dist = Family("friends-dist", _template("domain: $n\n" + FRIENDS),
                      friends_distribution, ("A",))
        ladder = [(friends, (100, 200, 300, 400)), (exists, (80, 160, 320)),
                  (dist, (40,))]
        return Workload(name, seed, _cases(ladder), "friends")
    if name == "weighted-constrained":
        a, b, c, d = (rng.choice(WEIGHT_CHOICES) for _ in range(4))
        smokers = Family(
            "smokers",
            _template("domain: $n\nunary: S\nbinary: F\n"
                      "formula: forall x forall y (S(x) & F(x,y) -> S(y))\n"
                      f"weight: S {a} {b}\nweight: F {c} {d}\n"),
            lambda n: smokers_count(n, a, b, c, d))
        bounded = Family(f"friends-le{CARD_BOUND}",
                         _template("domain: $n\n" + FRIENDS
                                   + f"constraint: |R| <= {CARD_BOUND}\n"),
                         lambda n: friends_bounded(n, CARD_BOUND))
        balanced = Family("balanced",
                          _template("domain: $n\n" + FRIENDS
                                    + "constraint: (|A| = 2) | (|A| = 3)\n"
                                    "constraint: |R| <= 5\n"),
                          lambda n: friends_bounded(n, 5, ks=(2, 3)))
        coins = Family("coins-dist", _coins_text, coins_distribution, ("H",))
        ladder = [(smokers, (6, 8, 10, 12)), (bounded, (10, 20, 30)),
                  (balanced, (8, 16)), (coins, (200,))]
        params = tuple(zip("abcd", (str(w) for w in (a, b, c, d))))
        return Workload(name, seed, _cases(ladder), "smokers", params=params)
    if name == "counting":
        ladder = [(_counting_family("eq1", "=", 1), (4, 5, 6, 7)),
                  (_counting_family("eq2", "=", 2), (3, 4)),
                  (_counting_family("le2", "<=", 2), (2,)),
                  (_counting_family("ge2", ">=", 2), (3, 4)),
                  (_counting_family("ge2-dist", ">=", 2, dist=True), (3,))]
        probes = (Case(_counting_family("le3", "<=", 3), 2),)
        return Workload(name, seed, _cases(ladder), "eq1", probes=probes)
    raise ValueError(f"unknown workload {name!r}")


def _cases(ladder) -> tuple[Case, ...]:
    return tuple(Case(fam, n) for fam, ns in ladder for n in ns)


# ---------------------------------------------------------------------------
# Exact results: size and digest without str()
# ---------------------------------------------------------------------------

def canonical(result):
    """A count as a Fraction; a distribution without its zero entries.
    ``count_distribution`` may list structurally possible count vectors of
    probability zero, and that listing is not part of the answer."""
    if isinstance(result, dict):
        return {k: Fraction(v) for k, v in sorted(result.items()) if v}
    return Fraction(result)


def _int_bytes(v: int) -> bytes:
    return v.to_bytes(v.bit_length() // 8 + 1, "big", signed=True)


def _values(result) -> list[Fraction]:
    result = canonical(result)
    return list(result.values()) if isinstance(result, dict) else [result]


def result_bits(result) -> int:
    return sum(v.numerator.bit_length() + v.denominator.bit_length()
               for v in _values(result))


def result_digest(result) -> str:
    h = hashlib.sha256()
    if isinstance(result, dict):
        for key in canonical(result):
            h.update(b"".join(_int_bytes(k) for k in key))
    for v in _values(result):
        h.update(_int_bytes(v.numerator) + b"/" + _int_bytes(v.denominator))
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Solving, with optional spans around each public call
# ---------------------------------------------------------------------------

class Tracer:
    """Spans kept in memory: name, start, end, parent span, case, pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self._parent: Optional[int] = None
        self._case: Optional[str] = None
        self._pass = 0

    def _record(self, name, start, end, parent) -> int:
        self.spans.append({"id": len(self.spans), "name": name, "start": start,
                           "end": end, "parent": parent, "case": self._case,
                           "pass": self._pass})
        return len(self.spans) - 1

    def begin_case(self, case_id: str, pass_index: int):
        self._case, self._pass = case_id, pass_index
        self._parent = self._record("case", time.perf_counter(), None, None)

    def end_case(self, end: float, slowdown: float):
        """Close the case span; ``slowdown`` scales its spans to reference
        seconds."""
        self.spans[self._parent].update(end=end, slowdown=slowdown)
        self._parent = None

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._record(name, start, time.perf_counter(), self._parent)


def _direct(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


@dataclass
class Solve:
    value: object
    counters: Optional[object] = None      # lc.Counters of an evaluate call
    shape: Optional[tuple[int, int, int]] = None   # (u, b, live 1-types)


def solve(lc, case: Case, call=_direct) -> Solve:
    problem = call("formula.parse_problem", lc.parse_problem, case.family.text(case.n))
    if case.family.query is not None:
        query = lc.DistributionQuery(case.family.query)
        return Solve(call("weights.count_distribution", lc.count_distribution,
                          problem, query, threads=1))
    program = call("transform.compile_problem", lc.compile_problem, problem)
    tables = call("celltypes.build_tables", lc.build_tables,
                  program.kernel, program.signature)
    counters = lc.Counters()
    value = call("engine.evaluate", lc.evaluate, program, tables,
                 problem.domain_size, problem.weights, threads=1,
                 counters=counters)
    shape = (tables.order.u, tables.order.b, len(tables.alive))
    return Solve(value, counters, shape)


def calibration_kernel():
    """Fixed work that does not touch liftcount: dict updates, Fraction
    sums and big-int products, the operations liftcount spends its time on."""
    table: dict[int, int] = {}
    for i in range(12000):
        table[i & 255] = table.get(i & 255, 0) + i * i
    frac = Fraction(0)
    for i in range(1, 120):
        frac += Fraction(i, i + 1)
    big = 3 ** 30000
    for _ in range(6):
        big = (big * big) >> 47000
    return frac, big


def calibration_seconds() -> float:
    """Median of three runs of the calibration kernel, in wall seconds."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _on_alarm(_signum, _frame):
    raise CaseTimeout("time budget exceeded")


def _within(budget: float, fn):
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


# ---------------------------------------------------------------------------
# Setup: fresh interpreters import liftcount and parse the texts
# ---------------------------------------------------------------------------

_SETUP_CHILD = r"""
import json, statistics, sys, time
texts, kernel = json.loads(sys.stdin.read())
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import liftcount
for text in texts:
    liftcount.parse_problem(text)
elapsed = time.perf_counter() - t0
from fractions import Fraction
exec(kernel)
times = []
for _ in range(9):
    c0 = time.perf_counter()
    calibration_kernel()
    times.append(time.perf_counter() - c0)
print(json.dumps([elapsed, statistics.median(times)]))
"""


def setup_seconds(texts: list[str], samples: int) -> list[float]:
    """Import-and-parse time of ``samples`` fresh interpreters, in
    reference seconds.  Each interpreter runs the calibration kernel right
    after the timed part, so the scaling sees that process's speed."""
    env = {**os.environ, **THREAD_ENV}
    payload = json.dumps([texts, inspect.getsource(calibration_kernel)])
    out = []
    for i in range(samples + 1):     # the first writes bytecode caches
        done = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC)],
                              input=payload, capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=60, check=True)
        elapsed, calibration = json.loads(done.stdout)
        if i:
            out.append(elapsed * CALIBRATION_REF_S / calibration)
    return out


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

@dataclass
class CaseLog:
    times: list[float] = field(default_factory=list)   # every attempt, failed too
    failures: dict[str, int] = field(default_factory=dict)
    solved: int = 0
    last: object = None                                 # last correct result


class Runner:
    def __init__(self, lc, workload: Workload, budget: float):
        self.lc = lc
        self.wl = workload
        self.rng = random.Random(f"order-{workload.seed}")
        self.budget = budget
        self.deadline = time.perf_counter() + HARD_DEADLINE_S
        self.expected = {c.id: canonical(c.family.closed_form(c.n))
                         for c in workload.cases}
        self.mismatches: list[str] = []
        self.logs = {c.id: CaseLog() for c in workload.cases}
        self.attempted = 0
        self.failed = 0

    def _fail(self, log: CaseLog, kind: str):
        self.failed += 1
        log.failures[kind] = log.failures.get(kind, 0) + 1

    def run_pass(self, tracer: Optional[Tracer] = None, index: int = 0):
        """One pass over every case in a seed-drawn order.  Returns the
        pass's summed solve time in reference seconds, the same in wall
        seconds, and the solves that succeeded."""
        order = list(self.wl.cases)
        self.rng.shuffle(order)
        solves = []
        total = wall = 0.0
        before = calibration_seconds()
        for case in order:
            log = self.logs[case.id]
            self.attempted += 1
            left = self.deadline - time.perf_counter()
            if left <= 0:
                self._fail(log, "DeadlineReached")
                continue
            call = _direct
            if tracer is not None:
                tracer.begin_case(case.id, index)
                call = tracer.call
            t0 = time.perf_counter()
            try:
                got = _within(min(self.budget, left),
                              lambda: self._checked(case, call))
            except Exception as exc:   # any failure is recorded and counted
                self._fail(log, type(exc).__name__)
                if isinstance(exc, WrongValue):
                    self.mismatches.append(case.id)
                got = None
            t1 = time.perf_counter()
            gc.collect()
            after = calibration_seconds()
            slowdown = (before + after) / (2 * CALIBRATION_REF_S)
            before = after
            if tracer is not None:
                tracer.end_case(t1, slowdown)
            log.times.append((t1 - t0) / slowdown)
            total += log.times[-1]
            wall += t1 - t0
            if got is not None:
                log.solved += 1
                log.last = got.value
                solves.append(got)
        return total, wall, solves

    def _checked(self, case: Case, call) -> Solve:
        got = solve(self.lc, case, call)
        if canonical(got.value) != self.expected[case.id]:
            raise WrongValue(case.id)
        return got

    def oracle_checks(self) -> list[dict]:
        """Closed form vs the brute-force oracle at the smallest rung of
        each family, capped at n = 3, with the workload's own parameters."""
        lc = self.lc
        families = {}
        for case in self.wl.cases + self.wl.probes:
            families.setdefault(case.family.name, (case.family, min(case.n, 3)))
        report = []
        for fam, n in families.values():
            problem = lc.parse_problem(fam.text(n))
            if fam.query is None:
                count = lambda: lc.oracle_count(problem)
            else:
                query = lc.DistributionQuery(fam.query)
                count = lambda: lc.oracle_distribution(problem, query)
            entry = {"family": fam.name, "n": n}
            try:
                entry["ok"] = (canonical(_within(CASE_BUDGET_S, count))
                               == canonical(fam.closed_form(n)))
            except Exception as exc:   # an unverified formula fails the run
                entry.update(ok=False, error=type(exc).__name__)
            if not entry["ok"]:
                self.mismatches.append(f"oracle:{fam.name}-n{n}")
            report.append(entry)
        return report

    def probe(self) -> list[dict]:
        """Known defects: each probe runs once, untimed.  A raise is
        reported, a wrong value fails the run."""
        report = []
        for case in self.wl.probes:
            entry = {"id": case.id}
            try:
                got = _within(self.budget, lambda: solve(self.lc, case))
            except Exception as exc:   # the defect is the expected outcome
                entry["error"] = type(exc).__name__
                program = self.lc.compile_problem(self.lc.parse_problem(case.family.text(case.n)))
                order = self.lc.AtomOrder.from_signature(program.signature)
                entry["u"], entry["b"] = order.u, order.b
            else:
                entry["ok"] = (canonical(got.value)
                               == canonical(case.family.closed_form(case.n)))
                if not entry["ok"]:
                    self.mismatches.append(case.id)
            report.append(entry)
        return report

    def case_report(self) -> list[dict]:
        out = []
        for case in self.wl.cases:
            log = self.logs[case.id]
            entry = {"id": case.id, "n": case.n, "solved": log.solved,
                     "failures": log.failures}
            if log.times:
                entry["median_s"] = statistics.median(log.times)
            if log.solved:
                entry["result_bits"] = result_bits(log.last)
                entry["digest"] = result_digest(log.last)
            out.append(entry)
        return out

    def scaling_exp(self) -> float:
        """Least-squares slope of log(median solve time) on log(n) over
        the main family.  A failed attempt counts with the time it took,
        so a timeout bounds the slope from below."""
        cases = [c for c in self.wl.cases
                 if c.family.name == self.wl.main and self.logs[c.id].times]
        return statistics.linear_regression(
            [math.log(c.n) for c in cases],
            [math.log(statistics.median(self.logs[c.id].times)) for c in cases]).slope


LAYER_SPANS = {
    "formula.parse_s": "formula.parse_problem",
    "transform.compile_s": "transform.compile_problem",
    "celltypes.tables_s": "celltypes.build_tables",
    "engine.evaluate_s": "engine.evaluate",
    "weights.distribution_s": "weights.count_distribution",
}


def _layer_pass_metrics(spans: list[dict], solves: list[Solve]) -> dict:
    """Per-layer numbers of one traced pass."""
    slowdown = {s["id"]: s["slowdown"] for s in spans if s["name"] == "case"}
    m = {name: sum((s["end"] - s["start"]) / slowdown[s["parent"]]
                   for s in spans if s["name"] == span)
         for name, span in LAYER_SPANS.items()}
    ev = [s for s in solves if s.counters is not None]
    for key in ("k_vectors", "pruned", "cells"):
        m[f"engine.{key}"] = sum(getattr(s.counters, key) for s in ev)
    m["engine.pruned_per_kvec"] = (m["engine.pruned"] / m["engine.k_vectors"]
                                   if m["engine.k_vectors"] else 0.0)
    m["engine.result_bits"] = sum(result_bits(s.value) for s in solves)
    for i, key in enumerate(("max_u", "max_b", "live_1types")):
        m[f"celltypes.{key}"] = max((s.shape[i] for s in ev), default=0)
    return m


UNITS = {
    "ladder_s": "s", "scaling_exp": "1", "setup_s": "s", "peak_rss_mib": "MiB",
    "solved_share": "1",
    "engine.evaluate_s": "s", "engine.k_vectors": "count",
    "engine.pruned": "count", "engine.cells": "count",
    "engine.pruned_per_kvec": "1", "engine.result_bits": "bit",
    "celltypes.tables_s": "s", "celltypes.max_u": "count",
    "celltypes.max_b": "count", "celltypes.live_1types": "count",
    "weights.distribution_s": "s", "formula.parse_s": "s",
    "transform.compile_s": "s", "trace.overhead_s": "s",
}


def import_liftcount():
    """Import the package from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "liftcount" / "__init__.py").is_file():
        raise FileNotFoundError(f"no liftcount sources under {SRC}")
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import liftcount
    if Path(liftcount.__file__).resolve().parent != (SRC / "liftcount").resolve():
        raise ImportError(f"liftcount imported from {liftcount.__file__}")
    return liftcount


def run(lc, workload: Workload, seconds: float, trace: bool, *,
        setup_samples: int = SETUP_SAMPLES, budget: float = CASE_BUDGET_S,
        out=sys.stdout) -> dict:
    """Measure ``workload`` for ``seconds``; print a detail line to ``out``
    and return the result object (the last line the command prints)."""
    setup = None
    if not trace:
        texts = [c.family.text(c.n) for c in workload.cases]
        setup = setup_seconds(texts, setup_samples)

    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner(lc, workload, budget)
    oracle = runner.oracle_checks()
    probes = runner.probe()

    plain, traced, layer, walls = [], [], [], []
    tracer = Tracer() if trace else None
    stop = time.perf_counter() + seconds
    index = 0
    while True:
        total, wall, _solves = runner.run_pass(index=index)
        plain.append(total)
        walls.append(wall)
        index += 1
        if tracer is not None:
            first = len(tracer.spans)
            total, _wall, solves = runner.run_pass(tracer, index)
            traced.append(total)
            layer.append(_layer_pass_metrics(tracer.spans[first:], solves))
            index += 1
        if time.perf_counter() >= stop:
            break

    if trace:
        values = {name: (statistics.median if UNITS[name] == "s"
                         else statistics.median_low)([p[name] for p in layer])
                  for name in layer[0]}
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{workload.name}-seed{workload.seed}.json"
        spans_file.write_text(json.dumps(tracer.spans))
    else:
        values = {
            "ladder_s": statistics.median(plain),
            "scaling_exp": runner.scaling_exp(),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "solved_share": (runner.attempted - runner.failed) / runner.attempted,
        }

    detail = {
        "workload": workload.name, "seed": workload.seed,
        "params": dict(workload.params), "trace": int(trace),
        "passes": len(plain) + len(traced),
        "ladder_wall_s": statistics.median(walls),
        "fail_share": runner.failed / runner.attempted,
        "mismatches": runner.mismatches, "oracle_checks": oracle,
        "known_defects": probes, "cases": runner.case_report(),
    }
    print(json.dumps(detail), file=out)
    return {
        "correct": not runner.mismatches,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
    }
