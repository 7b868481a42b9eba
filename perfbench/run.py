#!/usr/bin/env python3
"""Survey benchmark for mealygroup: time to the table, query latency, and
a traced run that splits the work by layer.

    python3 perfbench/run.py --workload hanoi4-pool --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload queries --seed 1 --seconds 38 --trace 1
    python3 perfbench/run.py --smoke          # every workload and check, small sizes
    python3 perfbench/selftest.py             # a corrupted reference must fail

The package is imported from ``src/`` next to this directory, never from
an installed copy, and driven in-process through its public API and
``mealygroup.cli.main`` by one closed-loop caller.  Pool workers exist
only where a table runs with ``--jobs 2``.  Every output is checked;
failed checks count toward ``fail_frac`` and make the exit code 1.

Workloads (each exercises one layer that another bypasses):

* ``hanoi4-pool`` -- ``table --pegs 4 --max-n 8 --jobs 2 --long-run --csv
  --out F``; traced at ``--max-n 9``, the paper's whole table.  The only
  run with the fork pool and checkpoints, and the only machine with
  commuting generator pairs (three) and a large symmetry group (24).
* ``basilica-tuple`` -- ``table --automaton basilica.txt --max-n 13 --jobs 1
  --csv``; traced at 15.  The only machine outside the dies-or-stays
  shape, so the only run of the generic tuple kernel.  Serial, no
  checkpoints, identity symmetry only and no commuting generators.
* ``queries`` -- seeded ``wp`` / ``section`` / ``act`` calls on words of
  length 8, 16 and 32 over Hanoi-4 and Basilica, plus ``claim`` at its
  defaults: the only run of the closure callers and ``fixing_threshold``;
  no survey.

With ``--trace 0`` a run repeats set-up, a reference pass and the job
until ``--seconds`` have passed.  On a shared 2-vCPU virtual machine
(Intel Xeon, Python 3.11) other tenants slowed all work in phases: whole
38-second runs ran 1.6-1.7 times slower than their neighbours, in CPU
time as much as in wall time, and no figure taken inside one run could
tell such a run apart.  So the gated job times are ``wall_rel`` and
``cpu_rel``: the job's wall and CPU time divided by those of a fixed
pure-Python reference pass (``reference_pass``, no mealygroup code) run
just before and just after it, the median over the run.  A phase slows
both alike and cancels; a change to mealygroup moves only the job.  The
raw seconds (best, median, worst) are printed alongside.  The tables run
one length shorter than in the traced run, so that one run holds many
repetitions.

With ``--trace 1`` a run sets up once, runs the job under tracing, then
(for tables) again at the other ``--jobs`` value, then small probes of
the layers the job does not reach, and reports per-layer numbers.  The
spans go to ``.perfbench/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

from tracing import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BASILICA = HERE / "basilica.txt"
REFERENCE = HERE / "reference.json"

# The paper's 4-peg table, n = 1..9.
PAPER_DEPTH4 = (1, 2, 2, 3, 4, 4, 5, 5, 6)
PAPER_THETA4 = (2, 4, 8, 13, 17, 24, 31, 39, 48)


@dataclass(frozen=True)
class Table:
    source: tuple  # CLI arguments naming the machine
    max_n: int  # untraced runs
    trace_n: int  # traced runs
    smoke_n: int
    jobs: int
    to_file: bool  # --long-run --out F, which writes F.ckpt as rounds finish


TABLES = {
    "hanoi4-pool": Table(("--pegs", "4"), 8, 9, 5, 2, True),
    "basilica-tuple": Table(("--automaton", str(BASILICA)), 13, 15, 7, 1, False),
}
WORKLOADS = (*TABLES, "queries")


@dataclass(frozen=True)
class Sizes:
    smoke: bool
    query_words: int  # words per machine and length in one queries pass
    query_sets: int  # distinct seeded query sets a run cycles through
    probe_words: int  # the same, in the query probe of a traced table run
    trace_passes: int  # queries passes in a traced queries run
    probe_n: int  # max n of the table probe in a traced queries run

    def table_n(self, spec: Table, trace: bool) -> int:
        if self.smoke:
            return spec.smoke_n
        return spec.trace_n if trace else spec.max_n


FULL = Sizes(False, 50, 8, 10, 3, 7)
SMOKE = Sizes(True, 3, 1, 2, 1, 4)
QUERY_LENGTHS = (8, 16, 32)
PROBE_REPS = 9  # parse and build repetitions in a traced run
CLAIM_ARGV = ("claim", "--pegs", "4")


class Checks:
    """Output checks; ``fail_frac`` = len(failures) / attempted."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Set-up: import, machines, inputs.


def import_mealygroup():
    """Import the package from ``src/`` afresh, so that each set-up pays
    for executing its modules."""
    for name in [m for m in sys.modules if m == "mealygroup" or m.startswith("mealygroup.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("mealygroup")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"mealygroup came from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        pkg=pkg,
        cli=importlib.import_module("mealygroup.cli"),
        analysis=importlib.import_module("mealygroup.analysis"),
        automata=importlib.import_module("mealygroup.automata"),
        hanoi=importlib.import_module("mealygroup.hanoi"),
    )


@dataclass
class Context:
    mg: types.SimpleNamespace
    machines: dict = field(default_factory=dict)  # name -> Automaton
    orbits: dict = field(default_factory=dict)  # n -> orbit count of the table machine
    query_sets: list = field(default_factory=list)


def table_machine(mg, spec: Table):
    flag, value = spec.source
    if flag == "--pegs":
        return mg.hanoi.hanoi_automaton(int(value))
    return mg.automata.parse_automaton(Path(value).read_text())


def query_set(rng: random.Random, machines: dict, words: int) -> list:
    """(machine name, length, state word, input word) tuples; words avoid
    the do-nothing state, as ``claim`` samples them."""
    out = []
    for name, auto in machines.items():
        allowed = [s for s in range(len(auto.states)) if s != auto.trivial_state]
        letters = range(1, auto.alphabet_size + 1)
        for length in QUERY_LENGTHS:
            for _ in range(words):
                w = tuple(rng.choices(allowed, k=length))
                u = tuple(rng.choices(letters, k=length))
                out.append((name, length, w, u))
    return out


def set_up(workload: str, seed: int, sizes: Sizes, trace: bool) -> Context:
    ctx = Context(mg=import_mealygroup())
    mg = ctx.mg
    spec = TABLES.get(workload)
    if spec is not None:
        auto = table_machine(mg, spec)
        ctx.machines["table"] = auto
        allowed = [s for s in range(len(auto.states)) if s != auto.trivial_state]
        sigmas = mg.analysis.automaton_symmetries(auto)
        for n in range(1, sizes.table_n(spec, trace) + 1):
            ctx.orbits[n] = mg.analysis.orbit_count(allowed, sigmas, n)
    if spec is None or trace:
        machines = {
            "hanoi4": mg.hanoi.hanoi_automaton(4),
            "basilica": mg.automata.parse_automaton(BASILICA.read_text()),
        }
        words = sizes.query_words if spec is None else sizes.probe_words
        rng = random.Random(seed)
        ctx.query_sets = [query_set(rng, machines, words) for _ in range(sizes.query_sets)]
        ctx.machines.update(machines)
    return ctx


# ---------------------------------------------------------------------------
# Table runs.


def cpu_seconds():
    """(own CPU, CPU of reaped children) so far, in seconds."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


@dataclass
class TableRun:
    wall_s: float
    cpu_s: float
    csv: str
    rounds: dict  # n -> (words examined, seconds), from the progress lines
    ckpt_lines: int  # 0 without a checkpoint
    ckpt_bytes: int


def parse_progress(text: str) -> dict:
    rounds = {}
    for line in text.splitlines():
        if not line.startswith("# n="):
            continue
        fields = dict(tok.split("=", 1) for tok in line[2:].split())
        rounds[int(fields["n"])] = (int(fields["words"]), float(fields["seconds"]))
    return rounds


def run_table(ctx, name, spec, n, jobs, ref, checks, tracer) -> TableRun:
    argv = ["table", *spec.source, "--max-n", str(n), "--jobs", str(jobs), "--csv"]
    ckpt = None
    if spec.to_file:
        OUT.mkdir(exist_ok=True)
        out = OUT / f"{name}.csv"
        ckpt = Path(f"{out}.ckpt")
        # survey() resumes from a checkpoint it finds, which would make the
        # next run skip every round.
        for path in (out, ckpt):
            path.unlink(missing_ok=True)
        checks.expect(not ckpt.exists(), f"{name}: checkpoint {ckpt} present at start")
        argv += ["--long-run", "--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    own0, kids0 = cpu_seconds()
    t0 = time.perf_counter()
    with tracer.span("mealygroup.cli.main", command="table", jobs=jobs):
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = ctx.mg.cli.main(argv)
    wall = time.perf_counter() - t0
    own1, kids1 = cpu_seconds()
    text = out.read_text() if spec.to_file else stdout.getvalue()
    has_ckpt = ckpt is not None and ckpt.exists()
    run = TableRun(
        wall_s=wall,
        cpu_s=(own1 - own0) + (kids1 - kids0),
        csv=text,
        rounds=parse_progress(stderr.getvalue()),
        ckpt_lines=len(ckpt.read_text().splitlines()) if has_ckpt else 0,
        ckpt_bytes=ckpt.stat().st_size if has_ckpt else 0,
    )
    check_table(ctx, name, spec, n, code, run, ref, checks)
    return run


def check_table(ctx, name, spec, n, code, run, ref, checks) -> None:
    checks.expect(code == 0, f"{name}: table exited {code}")
    expected = "".join(ref["tables"][name].splitlines(keepends=True)[: n + 1])
    checks.expect(run.csv == expected, f"{name}: CSV differs from the reference")
    checks.expect(sorted(run.rounds) == list(range(1, n + 1)), f"{name}: missing progress rounds")
    rows = list(csv.DictReader(io.StringIO(run.csv)))
    if name == "hanoi4-pool":
        depths = tuple(int(r["depth"]) for r in rows)
        thetas = tuple(int(r["theta"]) for r in rows)
        checks.expect(depths == PAPER_DEPTH4[:n], f"{name}: depths {depths} differ from the paper")
        checks.expect(thetas == PAPER_THETA4[:n], f"{name}: thetas {thetas} differ from the paper")
        # A fresh run writes a header and one record per round.
        lines = run.ckpt_lines
        checks.expect(lines == n + 1, f"{name}: checkpoint has {lines} lines, expected {n + 1}")
    auto = ctx.machines["table"]
    an, parse = ctx.mg.analysis, ctx.mg.automata.parse_state_word
    for r in rows:
        d = an.word_depth(auto, parse(auto, r["depth_witness"]))
        t = an.section_count(auto, parse(auto, r["theta_witness"]))
        checks.expect(d == int(r["depth"]), f"{name}: n={r['n']} depth witness has depth {d}")
        checks.expect(t == int(r["theta"]), f"{name}: n={r['n']} theta witness has {t} sections")


# ---------------------------------------------------------------------------
# Query passes.


@dataclass
class QueryPass:
    wall_s: float
    cpu_s: float
    claim_s: float
    claim_code: int
    claim_csv: bytes
    samples: list  # (machine, length, w, u, closure, identity, section, image, wp seconds)


def run_queries(ctx, qset, tracer) -> QueryPass:
    an, au = ctx.mg.analysis, ctx.mg.automata
    machines = ctx.machines
    OUT.mkdir(exist_ok=True)
    claim_out = OUT / "claim.csv"
    claim_out.unlink(missing_ok=True)
    samples = []
    own0, kids0 = cpu_seconds()
    t_start = time.perf_counter()
    for name, length, w, u in qset:
        auto = machines[name]
        t0 = time.perf_counter()
        closure = an.section_closure(auto, w)
        ident = an.is_identity(auto, w)
        t1 = time.perf_counter()
        sec = au.section_word(auto, w, u)
        t2 = time.perf_counter()
        img = au.apply(auto, w, u)
        t3 = time.perf_counter()
        tracer.add("wp", t0, t1, machine=name, L=length, nodes=closure.count)
        tracer.add("mealygroup.automata.section_word", t1, t2, cells=length * length)
        tracer.add("mealygroup.automata.apply", t2, t3, cells=length * length)
        samples.append((name, length, w, u, closure, ident, sec, img, t1 - t0))
    t_claim = time.perf_counter()
    with tracer.span("mealygroup.cli.main", command="claim"):
        code = ctx.mg.cli.main([*CLAIM_ARGV, "--out", str(claim_out)])
    t_end = time.perf_counter()
    own1, kids1 = cpu_seconds()
    return QueryPass(
        wall_s=t_end - t_start,
        cpu_s=(own1 - own0) + (kids1 - kids0),
        claim_s=t_end - t_claim,
        claim_code=code,
        claim_csv=claim_out.read_bytes() if claim_out.exists() else b"",
        samples=samples,
    )


def moving_input(au, auto, w):
    """Shortest input that ``w`` changes, found by searching its sections
    breadth-first for one that moves a single letter; None if none does."""
    frontier = [((), tuple(w))]
    seen = {tuple(w)}
    while frontier:
        nxt = []
        for u, sec in frontier:
            for x, y in enumerate(au.induced_permutation(auto, sec), 1):
                if x != y:
                    return u + (x,)
            for x in range(1, auto.alphabet_size + 1):
                child = au.section_word(auto, w, u + (x,))
                if child not in seen:
                    seen.add(child)
                    nxt.append((u + (x,), child))
        frontier = nxt
    return None


def check_queries(ctx, qp: QueryPass, ref, checks) -> None:
    an, au = ctx.mg.analysis, ctx.mg.automata
    for name, length, w, u, closure, ident, sec, img, _ in qp.samples:
        auto = ctx.machines[name]
        what = f"queries: {name} word {w}"
        checks.expect(sec in closure.all_sections, f"{what}: section at {u} is outside its closure")
        if ident:
            checks.expect(img == u, f"{what}: identity verdict but {u} moves")
        else:
            v = moving_input(au, auto, w)
            checks.expect(
                v is not None and au.apply(auto, w, v) != v,
                f"{what}: non-identity verdict with no moved input",
            )
        if name == "hanoi4":
            # Every Hanoi generator is an involution, so w.reversed(w) = 1.
            back = w[::-1]
            checks.expect(an.is_identity(auto, w + back), f"{what}: w.w^-1 is not the identity")
            checks.expect(au.apply(auto, back, img) == u, f"{what}: w^-1 does not undo w on {u}")
    claim = ref["claim"]
    checks.expect(qp.claim_code == claim["exit_code"], f"claim exited {qp.claim_code}")
    digest = hashlib.sha256(qp.claim_csv).hexdigest()
    checks.expect(digest == claim["csv_sha256"], "claim CSV differs from the reference")


# ---------------------------------------------------------------------------
# Untraced runs: end-to-end metrics.


def spread(values, high=False) -> str:
    worst = min(values) if high else max(values)
    return f"best of {len(values)}; median {statistics.median(values):.6g}, worst {worst:.6g}"


def peak_rss_mb() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0


REFERENCE_ROUNDS = 20  # about 0.25 s on the machine of BASELINE.md


def reference_pass() -> tuple:
    """(wall, CPU) seconds of a fixed pure-Python job that uses nothing of
    mealygroup: breadth-first search of the 5040 permutations of 7 points,
    tuples in a set as in the closure searches, repeated.  It needs under
    a megabyte, so it does not move ``peak_rss_mb``."""
    gens = ((1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0))
    t0, c0 = time.perf_counter(), time.process_time()
    for _ in range(REFERENCE_ROUNDS):
        start = tuple(range(7))
        seen, frontier = {start}, [start]
        while frontier:
            nxt = []
            for p in frontier:
                for g in gens:
                    q = tuple([p[i] for i in g])
                    if q not in seen:
                        seen.add(q)
                        nxt.append(q)
            frontier = nxt
        if len(seen) != 5040:
            raise AssertionError(f"reference pass reached {len(seen)} permutations")
    return time.perf_counter() - t0, time.process_time() - c0


def end_to_end(workload, seed, seconds, sizes, ref, checks, report) -> dict:
    """Repeat set-up, reference pass and job until ``seconds`` have passed,
    with one more reference pass at the end.  Each job's wall and CPU time
    is divided by the mean of the reference passes on either side of it,
    and the run reports the median of those ratios."""
    tracer = NullTracer()
    deadline = time.perf_counter() + seconds
    spec = TABLES.get(workload)
    setups, walls, cpus, refs = [], [], [], []
    rates, wp, claims = [], [], []
    while True:
        # Collect the previous repetition's garbage, so that collections
        # it would trigger do not land at random inside the timed calls.
        gc.collect()
        t0 = time.perf_counter()
        ctx = set_up(workload, seed, sizes, False)
        setups.append(time.perf_counter() - t0)
        gc.collect()
        refs.append(reference_pass())
        if spec is not None:
            n = sizes.table_n(spec, False)
            run = run_table(ctx, workload, spec, n, spec.jobs, ref, checks, tracer)
            walls.append(run.wall_s)
            cpus.append(run.cpu_s)
            if n in run.rounds:
                rates.append(ctx.orbits[n] / run.rounds[n][1])
        else:
            qp = run_queries(ctx, ctx.query_sets[len(walls) % len(ctx.query_sets)], tracer)
            check_queries(ctx, qp, ref, checks)
            walls.append(qp.wall_s)
            cpus.append(qp.cpu_s)
            claims.append(qp.claim_s)
            wp.extend(s[-1] * 1e6 for s in qp.samples)
        if time.perf_counter() >= deadline:
            break
    gc.collect()
    refs.append(reference_pass())
    ref_wall = [(a[0] + b[0]) / 2 for a, b in zip(refs, refs[1:])]
    ref_cpu = [(a[1] + b[1]) / 2 for a, b in zip(refs, refs[1:])]
    wall_rel = [w / r for w, r in zip(walls, ref_wall)]
    cpu_rel = [c / r for c, r in zip(cpus, ref_cpu)]
    report("wall_s", min(walls), "s", spread(walls))
    report("cpu_s", min(cpus), "s", "own + reaped workers; " + spread(cpus))
    report("reference_s", min(r[0] for r in refs), "s", spread([r[0] for r in refs]))
    if spec is not None:
        report("orbits_per_s", max(rates), "1/s", f"n={n}, " + spread(rates, high=True))
    else:
        report("claim_s", min(claims), "s", spread(claims))
        report("query_p50_us", statistics.median(wp), "us", f"{len(wp)} wp calls")
        if len(wp) >= 1000:
            p99 = statistics.quantiles(wp, n=100)[98]
            report("query_p99_us", p99, "us", f"{len(wp)} wp calls")
        else:
            report("query_p99_us", None, "us", f"only {len(wp)} wp calls; p99 needs 1000")
    return {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)}"),
        "wall_rel": (statistics.median(wall_rel), "ratio", f"job wall / reference wall, median of {len(walls)}"),
        "cpu_rel": (statistics.median(cpu_rel), "ratio", f"job CPU / reference CPU, median of {len(cpus)}"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "max of own and workers' maxrss"),
    }


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics.


def install_tracing(tracer: Tracer, mg) -> None:
    survey = mg.cli.survey

    def traced_survey(*args, progress=None, **kwargs):
        with tracer.span("mealygroup.cli.survey") as sp:
            first = len(tracer.spans)
            own0, kids0 = cpu_seconds()
            last = [sp.start]

            def each_round(row):
                # A round runs from the end of the previous one, or of the
                # symmetry search before round 1, to this callback.
                now = time.perf_counter()
                ends = [s.end for s in tracer.spans[first:] if s.parent == sp.id]
                start = max([last[0], *ends])
                tracer.add(
                    "survey.round", start, now,
                    n=row.n, words=row.words_examined, orbits=row.orbits,
                )
                if progress is not None:
                    progress(row)
                last[0] = time.perf_counter()

            result = survey(*args, progress=each_round, **kwargs)
            own1, kids1 = cpu_seconds()
            sp.attrs.update(cpu_self=own1 - own0, cpu_children=kids1 - kids0)
            return result

    tracer.patch(mg.cli, "survey", traced_survey)
    tracer.wrap(mg.cli, "render_growth_csv", lambda a, r: {"bytes": len(r)})
    tracer.wrap(mg.analysis, "automaton_symmetries", lambda a, r: {"count": len(r)})
    tracer.wrap(
        mg.analysis,
        "fixing_threshold",
        lambda a, r: {"L": len(a[1]), "unbounded": r is None},
    )


def span_cost() -> float:
    """Seconds one traced call adds, from wrapping a no-op."""
    mod = types.ModuleType("calibration")
    mod.f = lambda: None
    plain = mod.f
    tracer = Tracer("calibration")
    tracer.wrap(mod, "f")
    calls = 2000
    costs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            plain()
        t1 = time.perf_counter()
        for _ in range(calls):
            mod.f()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def named(tracer, root, name):
    return [sp for sp in tracer.subtree(root) if sp.name == name]


def traced(workload, ctx, seed, sizes, ref, checks, record) -> dict:
    tracer = Tracer(f"{workload}-seed{seed}")
    mg = ctx.mg
    tables = {}  # jobs -> (root span, TableRun)
    install_tracing(tracer, mg)
    try:
        spec = TABLES.get(workload)
        if spec is not None:
            name, n = workload, sizes.table_n(spec, True)
        else:
            name, spec, n = "hanoi4-pool", TABLES["hanoi4-pool"], sizes.probe_n
            ctx.machines["table"] = ctx.machines["hanoi4"]
        # The workload's own --jobs first; the other value gives the
        # cross-jobs byte check and the parallel efficiency.
        for jobs in (spec.jobs, 2 if spec.jobs == 1 else 1):
            with tracer.span("table", workload=name, jobs=jobs, n=n) as root:
                tables[jobs] = (root, run_table(ctx, name, spec, n, jobs, ref, checks, tracer))
        checks.expect(tables[1][1].csv == tables[2][1].csv, f"{name}: CSV differs between --jobs 1 and 2")
        passes = 1 if workload in TABLES else sizes.trace_passes
        with tracer.span("queries", passes=passes) as qroot:
            for i in range(passes):
                qp = run_queries(ctx, ctx.query_sets[i % len(ctx.query_sets)], tracer)
                check_queries(ctx, qp, ref, checks)
        with tracer.span("setup") as sroot:
            basilica_text = BASILICA.read_text()
            for _ in range(PROBE_REPS):
                with tracer.span("mealygroup.automata.parse_automaton"):
                    mg.automata.parse_automaton(basilica_text)
                with tracer.span("mealygroup.hanoi.hanoi_automaton"):
                    mg.hanoi.hanoi_automaton(4)
    finally:
        tracer.restore()

    roots = [tables[spec.jobs][0], tables[2 if spec.jobs == 1 else 1][0], qroot, sroot]
    for root in roots:
        # Holds only if every child lies inside its parent and no two
        # children of one span overlap.
        total = sum(tracer.self_times(root).values())
        checks.expect(
            math.isclose(total, root.seconds, rel_tol=1e-9, abs_tol=1e-9),
            f"trace: self times in {root.name} sum to {total}, root lasts {root.seconds}",
        )

    m = {}
    own_root, own = tables[spec.jobs]
    sv = named(tracer, own_root, "mealygroup.cli.survey")[0]
    last = named(tracer, own_root, "survey.round")[-1]
    m["survey.last_round_s"] = (last.seconds, "s")
    m["survey.last_round_words"] = (last.attrs["words"], "count")
    m["survey.us_per_word"] = (last.seconds / last.attrs["words"] * 1e6, "us")
    m["survey.words_per_orbit"] = (last.attrs["words"] / last.attrs["orbits"], "ratio")
    pool_root = tables[2][0]
    pool_sv = named(tracer, pool_root, "mealygroup.cli.survey")[0]
    m["survey.worker_util"] = (pool_sv.attrs["cpu_children"] / (pool_sv.seconds * 2), "ratio")
    m["survey.parent_cpu_s"] = (pool_sv.attrs["cpu_self"], "s")
    serial_main = named(tracer, tables[1][0], "mealygroup.cli.main")[0]
    pool_main = named(tracer, pool_root, "mealygroup.cli.main")[0]
    m["survey.parallel_eff"] = (serial_main.seconds / (2 * pool_main.seconds), "ratio")
    sym = named(tracer, own_root, "mealygroup.analysis.automaton_symmetries")[0]
    m["symmetry.s"] = (sym.seconds, "s")
    m["symmetry.count"] = (sym.attrs["count"], "count")
    main = named(tracer, own_root, "mealygroup.cli.main")[0]
    m["cli.overhead_s"] = (main.seconds - sv.seconds, "s")
    m["cli.render_s"] = (named(tracer, own_root, "mealygroup.cli.render_growth_csv")[0].seconds, "s")
    m["cli.ckpt_bytes"] = (own.ckpt_bytes, "bytes")

    wps = named(tracer, qroot, "wp")
    for length in QUERY_LENGTHS:
        at = [sp.seconds * 1e6 for sp in wps if sp.attrs["L"] == length]
        m[f"closure.wp_us.L{length}"] = (statistics.median(at), "us")
    long = [sp for sp in wps if sp.attrs["L"] == 32]
    nodes = sum(sp.attrs["nodes"] for sp in long)
    m["closure.nodes.L32"] = (nodes / len(long), "count")
    m["closure.us_per_node.L32"] = (sum(sp.seconds for sp in long) * 1e6 / nodes, "us")
    fix = [sp for sp in named(tracer, qroot, "mealygroup.analysis.fixing_threshold") if sp.attrs["L"] == 32]
    m["threshold.fixing_us.L32"] = (statistics.median(sp.seconds * 1e6 for sp in fix), "us")
    m["threshold.unbounded"] = (sum(sp.attrs["unbounded"] for sp in fix), "count")
    for span_name, metric in (
        ("mealygroup.automata.apply", "automata.apply_ns"),
        ("mealygroup.automata.section_word", "automata.section_ns"),
    ):
        spans = named(tracer, qroot, span_name)
        cells = sum(sp.attrs["cells"] for sp in spans)
        m[metric] = (sum(sp.seconds for sp in spans) * 1e9 / cells, "ns")
    m["automata.parse_s"] = (
        statistics.median(sp.seconds for sp in named(tracer, sroot, "mealygroup.automata.parse_automaton")),
        "s",
    )
    m["hanoi.build_s"] = (
        statistics.median(sp.seconds for sp in named(tracer, sroot, "mealygroup.hanoi.hanoi_automaton")),
        "s",
    )
    traced_spans = sum(len(tracer.subtree(r)) - 1 for r in roots)
    traced_time = sum(r.seconds for r in roots)
    m["trace.overhead_frac"] = (span_cost() * traced_spans / traced_time, "ratio")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    tracer.dump(path, record)
    print(f"# spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    for sp in named(tracer, own_root, "survey.round"):
        print(f"# round n={sp.attrs['n']}: {sp.seconds:.4f} s, {sp.attrs['words']} words")
    return m


# ---------------------------------------------------------------------------
# Run record and entry point.


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mealygroup").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(args, jobs) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": jobs,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        "cpu_model": cpu_model(),
        "loadavg_start": os.getloadavg(),
    }


def measure(workload, seed, seconds, trace, sizes, ref, checks, record) -> dict:
    """Returns metric name -> (value, unit, note)."""
    if trace:
        ctx = set_up(workload, seed, sizes, True)
        metrics = traced(workload, ctx, seed, sizes, ref, checks, record)
        return {name: (value, unit, "") for name, (value, unit) in metrics.items()}

    def report(name, value, unit, note):
        shown = "n/a" if value is None else f"{value:.6g} {unit}"
        print(f"{workload:<15} {name:<22} {shown}  ({note})")

    return end_to_end(workload, seed, seconds, sizes, ref, checks, report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload and check at small sizes")
    parser.add_argument("--reference", type=Path, default=REFERENCE, help="expected outputs")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    try:
        import_mealygroup()
        ref = json.loads(args.reference.read_text())
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2

    checks = Checks()
    if args.smoke:
        for workload in WORKLOADS:
            for trace in (0, 1):
                before = len(checks.failures)
                measure(workload, args.seed, 0, trace, SMOKE, ref, checks, {"smoke": True})
                failed = len(checks.failures) - before
                print(f"smoke {workload} trace={trace}: {failed} failed checks")
        metrics = {}
    else:
        spec = TABLES.get(args.workload)
        record = run_record(args, spec.jobs if spec else 1)
        print("# run " + json.dumps(record))
        metrics = measure(args.workload, args.seed, args.seconds, args.trace, FULL, ref, checks, record)
        print(f"# loadavg_end {list(os.getloadavg())}")

    fail_frac = len(checks.failures) / max(1, checks.attempted)
    print(f"fail_frac {fail_frac:.6g} ({len(checks.failures)} of {checks.attempted} checks failed)")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<26} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
