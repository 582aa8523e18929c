"""The benchmark's workloads: their inputs, one measured pass, output checks.

Inputs and the counts recorded for them live in ``workloads.json``.  Each
workload object has the same shape:

* ``prepare()`` builds the inputs in this process (untimed);
* ``run_pass(tracer, deadline)`` does one pass of the workload's
  operations and returns a ``Pass`` with one latency per operation, in the
  same operation order on every pass; the package is called through its
  module attributes, so an installed tracer sees every call;
* ``check(p)`` verifies the outputs of a pass and raises ``CheckFailed``.

Checks never run inside a timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = json.loads((Path(__file__).resolve().parent / "workloads.json").read_text())
CHILD_TIMEOUT_S = 120


class CheckFailed(Exception):
    """An output of the program differs from what it must be."""


@dataclass
class Pass:
    latencies_ns: list[int]
    refused: int = 0
    outputs: object = None
    peak_rss_kb: int = 0  # of the child processes, for workloads that spawn them


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str]) -> tuple[int, bytes, bytes, int, int]:
    """Run a child to completion: (exit code, stdout, stderr, wall ns, max RSS kB).

    The child is reaped with ``wait4`` so its own peak RSS is known.  The
    children here write little to stderr, so reading stdout first cannot
    block; a timer kills a child that hangs.
    """
    t0 = perf_counter_ns()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = perf_counter_ns() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, wall, usage.ru_maxrss


SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import {module}
from quivercrystal import ar_quiver, crystal_ops, dynkin
for spec in sys.argv[1:]:
    ar = ar_quiver.build_ar(dynkin.parse_quiver(spec))
    if ar.is_special():
        for i in range(1, ar.rank + 1):
            crystal_ops.hom_poset(ar, i)
print(repr(time.perf_counter() - t0))
"""


def fresh_setup_s(module: str, quivers: list[str]) -> float:
    """Set-up time in a fresh interpreter: import, parse, build_ar, every vertex poset."""
    code, out, err, _, _ = spawn([sys.executable, "-c", SETUP_CODE.format(module=module), *quivers])
    if code != 0:
        raise CheckFailed(f"set-up child failed with exit {code}: {err.decode(errors='replace')}")
    return float(out)


def _qc():
    """The package, imported only once run.py has put ``src`` on the path."""
    import quivercrystal.cli  # the package itself imports every other module
    return quivercrystal


def count_antichains(quivers: list[str]) -> int:
    """Nonempty antichains over every vertex poset of the special quivers."""
    qc = _qc()
    total = 0
    for spec in quivers:
        ar = qc.ar_quiver.build_ar(qc.dynkin.parse_quiver(spec))
        if ar.is_special():
            total += sum(len(qc.crystal_ops.antichains(qc.crystal_ops.hom_poset(ar, i)))
                         for i in range(1, ar.rank + 1))
    return total


class Bfs:
    """generate -> to_json -> check_axioms -> graph_from_json on one quiver."""

    setup_module = "quivercrystal"
    min_passes = 3
    stops_at_deadline = False

    def __init__(self, name: str, spec: dict, seed: int, smoke: bool):
        # The graph is fixed by quiver and depth; the seed selects nothing here.
        self.name = name
        self.spec = spec
        self.quivers = [spec["quiver"]]
        self.depth = spec["smoke"]["depth"] if smoke else spec["depth"]
        self.expect = None if smoke else (spec["vertices"], spec["edges"])
        self.first_export: str | None = None

    def prepare(self) -> None:
        qc = _qc()
        self.ar = qc.ar_quiver.build_ar(qc.dynkin.parse_quiver(self.spec["quiver"]))
        for i in range(1, self.ar.rank + 1):
            qc.crystal_ops.hom_poset(self.ar, i)

    def run_pass(self, tracer=None, deadline=None) -> Pass:
        """One pipeline pass; its one latency is the whole pipeline."""
        qc = _qc()
        if tracer:
            tracer.op_id = 1
        t0 = perf_counter_ns()
        g = qc.crystal_graph.generate(self.ar, self.depth)
        export = g.to_json()
        if tracer:
            tracer.op_id = 2
        report = qc.crystal_graph.check_axioms(g)
        if tracer:
            tracer.op_id = 3
        back = qc.crystal_graph.graph_from_json(export)
        wall = perf_counter_ns() - t0
        return Pass([wall], outputs=(g, export, report, back))

    def check(self, p: Pass) -> None:
        qc = _qc()
        g, export, report, back = p.outputs
        if not report.ok:
            raise CheckFailed(f"{self.name}: check_axioms: {report}")
        if self.first_export is not None:
            # Same program, same input: the export must repeat byte for byte.
            if export != self.first_export:
                raise CheckFailed(f"{self.name}: export differs from the first pass")
            if back.vertices != g.vertices or sorted(back.edges) != sorted(g.edges):
                raise CheckFailed(f"{self.name}: imported graph differs from the generated one")
            return
        if self.expect and (len(g.vertices), len(g.edges)) != tuple(self.expect):
            raise CheckFailed(f"{self.name}: {len(g.vertices)} vertices, {len(g.edges)} edges; "
                              f"expected {self.expect[0]}, {self.expect[1]}")
        if back.to_json() != export:
            raise CheckFailed(f"{self.name}: graph_from_json(export).to_json() != export")
        # Level d holds every class of total dimension d, so each dimension
        # vector occurs as often as it has Kostant partitions.
        per_dim = Counter(qc.ModuleClass(k).dimension_vector(self.ar) for k in g.vertices)
        for beta, n in per_dim.items():
            want = qc.crystal_graph.kostant_count(self.ar.quiver, beta)
            if n != want:
                raise CheckFailed(f"{self.name}: {n} vertices of dimension {beta}, Kostant count {want}")
        self.first_export = export


class Geom:
    """(class, vertex) calls: epsilon_i, then build_pm + min_epsilon, compared."""

    setup_module = "quivercrystal"
    min_passes = 2
    stops_at_deadline = True

    def __init__(self, name: str, spec: dict, seed: int, smoke: bool):
        self.name = name
        self.spec = spec
        self.seed = seed
        self.quivers = spec["quivers"]
        self.per_kind = spec["smoke"]["classes_per_kind"] if smoke else spec["classes_per_kind"]
        self.expect_calls = None if smoke else spec["calls"]
        self.refused: int | None = None

    def prepare(self) -> None:
        qc = _qc()
        rng = random.Random(self.seed)
        top = self.spec["max_mult"]
        self.calls = []
        for spec in self.quivers:
            ar = qc.ar_quiver.build_ar(qc.dynkin.parse_quiver(spec))
            posets = {i: qc.crystal_ops.hom_poset(ar, i) for i in range(1, ar.rank + 1)}
            classes = []
            for _ in range(self.per_kind):
                # The generator of `check --samples`: few summands, multiplicity <= top.
                mults = [0] * len(ar)
                for _ in range(rng.randrange(self.spec["sparse_max_summands"] + 1)):
                    xid = rng.randrange(len(ar))
                    if mults[xid] < top:
                        mults[xid] += 1
                classes.append(qc.ModuleClass(tuple(mults)))
            for _ in range(self.per_kind):
                # Dense: every multiplicity uniform in 0..top.
                classes.append(qc.ModuleClass(tuple(rng.randrange(top + 1) for _ in range(len(ar)))))
            self.calls.extend((ar, posets[i], m, i) for m in classes for i in posets)
        # Seeded order, so a pass cut short at the deadline is a fair sample.
        rng.shuffle(self.calls)
        if self.expect_calls is not None and len(self.calls) != self.expect_calls:
            raise CheckFailed(f"{self.name}: {len(self.calls)} calls, recorded {self.expect_calls}")

    def run_pass(self, tracer=None, deadline=None) -> Pass:
        """Every call once, or the calls made before ``deadline`` passes."""
        qc = _qc()
        lat, results, refused = [], [], 0
        for k, (ar, poset, m, i) in enumerate(self.calls):
            if deadline is not None and perf_counter() > deadline:
                break
            if tracer:
                tracer.op_id = k
            t0 = perf_counter_ns()
            eps = qc.crystal_ops.epsilon_i(ar, m, i)
            try:
                geom = qc.pm_graph.min_epsilon(qc.pm_graph.build_pm(ar, poset, m))
            except qc.ResourceLimitError:
                geom = None
                refused += 1
            lat.append(perf_counter_ns() - t0)
            results.append((eps, geom))
        return Pass(lat, refused=refused, outputs=results)

    def check(self, p: Pass) -> None:
        for k, (eps, geom) in enumerate(p.outputs):
            if geom is not None and geom != eps:
                _, _, m, i = self.calls[k]
                raise CheckFailed(f"{self.name}: min_epsilon {geom} != epsilon_{i} {eps} for {m.mults}")
        if len(p.outputs) < len(self.calls):
            return  # a pass cut short at the end of the run
        if self.refused is None:
            self.refused = p.refused
        elif p.refused != self.refused:
            raise CheckFailed(f"{self.name}: refusals changed between passes of one input")


class Cli:
    """Fresh `python -m quivercrystal` invocations, one at a time."""

    setup_module = "quivercrystal.cli"
    min_passes = 10
    stops_at_deadline = False

    def __init__(self, name: str, spec: dict, seed: int, smoke: bool):
        self.name = name
        self.entries = spec["entries"]
        self.by_name = {e["name"]: e for e in self.entries}
        # The slowest entry runs twice a round, so the 90th percentile lands
        # inside its samples instead of on the edge between two commands.
        self.round = self.entries + [self.by_name[spec["repeat_per_round"]]]
        self.quivers = sorted({e["argv"][e["argv"].index("--quiver") + 1]
                               for e in self.entries if "--quiver" in e["argv"]})
        self.rng = random.Random(seed)
        if smoke:
            self.min_passes = 1
        elif len(self.round) != spec["calls_per_pass"]:
            raise CheckFailed(f"{name}: {len(self.round)} invocations a round, "
                              f"recorded {spec['calls_per_pass']}")

    def prepare(self) -> None:
        # One untimed import writes the bytecode caches every later child reads.
        code, _, err, _, _ = spawn([sys.executable, "-c", "import quivercrystal.cli"])
        if code != 0:
            raise CheckFailed(f"cannot import quivercrystal.cli: {err.decode(errors='replace')}")

    def run_pass(self, tracer=None, deadline=None) -> Pass:
        """One round of the mix in fresh processes, run in a seeded order.

        Latencies and outputs are returned in the fixed order of ``self.round``.
        """
        order = list(range(len(self.round)))
        self.rng.shuffle(order)
        lat, outputs, rss, refused = [0] * len(order), [None] * len(order), 0, 0
        for slot in order:
            e = self.round[slot]
            code, out, err, wall, maxrss = spawn(
                [sys.executable, "-m", "quivercrystal", *e["argv"]])
            lat[slot] = wall
            rss = max(rss, maxrss)
            refused += code == 3
            outputs[slot] = (e, code, out, err)
        return Pass(lat, refused=refused, outputs=outputs, peak_rss_kb=rss)

    def run_inproc(self, tracer=None) -> Pass:
        """Each entry once through ``cli.run(argv)`` in this process, output captured."""
        qc = _qc()
        lat, outputs = [], []
        for k, e in enumerate(self.entries):
            if tracer:
                tracer.op_id = k
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter_ns()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = qc.cli.run(list(e["argv"]))
            lat.append(perf_counter_ns() - t0)
            outputs.append((e, code, out.getvalue().encode(), err.getvalue().encode()))
        return Pass(lat, outputs=outputs)

    def check(self, p: Pass) -> None:
        for e, code, out, err in p.outputs:
            if code != e["exit"]:
                raise CheckFailed(f"{self.name}: {e['name']} exited {code}, expected {e['exit']}: "
                                  f"{err.decode(errors='replace')[-500:]}")
            if hashlib.sha256(out).hexdigest() != e["stdout_sha256"]:
                raise CheckFailed(f"{self.name}: {e['name']} stdout differs from the reference")


KINDS = {"bfs": Bfs, "geom": Geom, "cli": Cli}


def make(name: str, seed: int, smoke: bool):
    spec = SPEC[name]
    return KINDS[spec["kind"]](name, spec, seed, smoke)


def self_peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
