"""Benchmark of the quivercrystal package.

    python3 perfbench/run.py --workload bfs-d4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is loaded from
``src/``.  ``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a traced run (see README.md).  Every line before
the last is for people; the last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 when every output check passed, 1 when one failed, 2 on a usage
error or when the package is missing.  ``--smoke`` runs every workload at a
tiny size in both modes and checks that every metric named in
BENCHMARK.json is emitted.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import ROOT, SPEC, SRC, CheckFailed  # noqa: E402

OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 9

END_TO_END = [
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("answered_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

# Span names reported as <name>_calls, <name>_s (total) and <name>_self_s.
TIMED_SPANS = [
    "dynkin.parse_quiver", "dynkin.positive_roots", "dynkin.coroot_pairing",
    "ar_quiver.build_ar", "ar_quiver.hom_dim", "ar_quiver.module_to_json",
    "ar_quiver.module_from_json", "ar_quiver.tau_inv_class",
    "crystal_ops.epsilon_i", "crystal_ops.phi_i", "crystal_ops.f_tilde",
    "crystal_ops.e_tilde", "crystal_ops.weight_of",
    "pm_graph.build_pm", "pm_graph.min_epsilon",
    "crystal_graph.generate", "crystal_graph.to_json", "crystal_graph.check_axioms",
    "crystal_graph.graph_from_json",
]
COUNTS = [
    ("crystal_ops.context_build_s", "s"),
    ("crystal_ops.score_passes", "count"),
    ("crystal_ops.distinct_pair_ratio", "ratio"),
    ("crystal_ops.antichains", "count"),
    ("pm_graph.refused", "count"),
    ("pm_graph.expanded_nodes", "count"),
    ("pm_graph.red_nodes", "count"),
    ("pm_graph.white_nodes", "count"),
    ("pm_graph.search_space_log10_p99", "log10"),
    ("crystal_graph.vertices", "count"),
    ("crystal_graph.edges", "count"),
    ("crystal_graph.levels", "count"),
    ("crystal_graph.max_level_size", "count"),
]
CLI_ENTRIES = [e["name"] for e in SPEC["cli-mix"]["entries"]]


def per_layer_names() -> list[tuple[str, str]]:
    names = []
    for span in TIMED_SPANS:
        names += [(f"{span}_calls", "count"), (f"{span}_s", "s"), (f"{span}_self_s", "s")]
    names += COUNTS
    names += [("cli.interpreter_start_ms", "ms"), ("cli.import_ms", "ms")]
    for entry in CLI_ENTRIES:
        names += [(f"cli.{entry}_ms", "ms"), (f"cli.{entry}_inproc_ms", "ms")]
    names += [("trace.overhead_s", "s"), ("trace.spans", "count")]
    return names


def pct(values, q: int) -> float:
    """The q-th percentile, interpolated between the closest ranks."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_passes(seconds: float, min_passes: int, body, between=None,
               stops_at_deadline: bool = False) -> int:
    """Call ``body(deadline)`` at least ``min_passes`` times, then while time is
    left.  A body that ``stops_at_deadline`` cuts its last pass short; for
    the others a pass starts only if the longest one so far would end in
    time.  ``between()`` runs after each pass, inside the same window."""
    start = perf_counter()
    deadline = start + seconds
    n, longest = 0, 0.0
    while n < min_passes or perf_counter() + (0 if stops_at_deadline else longest) < deadline:
        gc.collect()
        t0 = perf_counter()
        body(None if n < min_passes else deadline)
        n += 1
        if between:
            between()
        longest = max(longest, perf_counter() - t0)
    return n


def measure(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    """End-to-end metrics, tracing off.

    Every pass repeats the same operations.  An operation's latency is its
    mean over the passes: the host's speed switches between phases every few
    seconds, and a mean moves smoothly with the share of time spent in each,
    where a percentile of a narrow distribution jumps from one phase to the
    other.  The percentiles are then taken across operations.
    """
    w = workloads.make(name, seed, smoke)
    reps = 1 if smoke else SETUP_REPEATS
    setups: list[float] = []
    start = perf_counter()

    def setup_when_due():
        # Set-up samples are spread evenly over the run, like the passes.
        if len(setups) < reps and perf_counter() - start >= len(setups) * seconds / reps:
            setups.append(workloads.fresh_setup_s(w.setup_module, w.quivers))

    setup_when_due()
    w.prepare()
    per_op: list[list[int]] = []
    attempted, refused, child_rss = 0, 0, 0

    def body(deadline):
        nonlocal attempted, refused, child_rss, per_op
        p = w.run_pass(deadline=deadline)
        w.check(p)
        if not per_op:
            per_op = [[] for _ in p.latencies_ns]
        for samples, t in zip(per_op, p.latencies_ns):
            samples.append(t)
        attempted += len(p.latencies_ns)
        refused += p.refused
        child_rss = max(child_rss, p.peak_rss_kb)

    run_passes(seconds, 1 if smoke else w.min_passes, body, setup_when_due,
               w.stops_at_deadline)
    while len(setups) < reps:
        setups.append(workloads.fresh_setup_s(w.setup_module, w.quivers))
    lat = [statistics.fmean(samples) for samples in per_op]
    rss_kb = child_rss if isinstance(w, workloads.Cli) else workloads.self_peak_rss_kb()
    values = {
        "latency_p50_ms": pct(lat, 50) / 1e6,
        "latency_p90_ms": pct(lat, 90) / 1e6,
        "answered_share": (attempted - refused) / attempted,
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": statistics.median(setups),
    }
    return {"attempted": attempted, "values": values,
            "info": {"operations": len(per_op), "passes": len(per_op[0]),
                     "refused": refused, "setup_runs": setups}}


def trace(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    """Per-layer metrics: untraced and traced passes alternate until time is up."""
    from tracing import Tracer

    w = workloads.make(name, seed, smoke)
    is_cli = isinstance(w, workloads.Cli)
    pass_fn = w.run_inproc if is_cli else w.run_pass
    tracer = Tracer()
    with tracer:
        w.prepare()
    setup_agg, setup_counts = tracer.aggregate(), tracer.counts
    untraced, traced, pass_aggs = [], [], []
    first = None
    cli_wall: dict[str, list[int]] = {e: [] for e in CLI_ENTRIES}
    cli_inproc: dict[str, list[int]] = {e: [] for e in CLI_ENTRIES}
    attempted = 0
    extras = cli_start_import(smoke) if is_cli else {}

    def body(deadline):
        nonlocal first, attempted
        if is_cli:
            p = w.run_pass()
            w.check(p)
            for (e, *_), t in zip(p.outputs, p.latencies_ns):
                cli_wall[e["name"]].append(t)
            attempted += len(p.latencies_ns)
        t0 = perf_counter()
        p = pass_fn()
        untraced.append(perf_counter() - t0)
        w.check(p)
        if is_cli:
            for (e, *_), t in zip(p.outputs, p.latencies_ns):
                cli_inproc[e["name"]].append(t)
        tracer.reset()
        with tracer:
            t0 = perf_counter()
            p = pass_fn(tracer)
            traced.append(perf_counter() - t0)
        pass_aggs.append(tracer.aggregate())
        if first is None:
            first = tracer.counts
        w.check(p)
        attempted += 2 * len(p.latencies_ns)

    run_passes(seconds, 1, body)
    tracer.write(OUT_DIR / f"{name}-seed{seed}.spans.json")

    n = len(pass_aggs)
    values: dict[str, float] = {}
    for span in TIMED_SPANS:
        calls, total, own = setup_agg[span]
        first_calls = pass_aggs[0][span][0]
        values[f"{span}_calls"] = calls + first_calls
        values[f"{span}_s"] = (total + sum(a[span][1] for a in pass_aggs) / n) / 1e9
        values[f"{span}_self_s"] = (own + sum(a[span][2] for a in pass_aggs) / n) / 1e9
    passes = tracer.score_passes(pass_aggs[0])
    antichains = workloads.count_antichains(w.quivers)
    if not smoke and antichains != SPEC[name]["antichains"]:
        raise CheckFailed(f"{name}: {antichains} antichains, recorded {SPEC[name]['antichains']}")
    values.update({
        "crystal_ops.context_build_s": (setup_counts.context_build_ns + first.context_build_ns) / 1e9,
        "crystal_ops.score_passes": passes,
        "crystal_ops.distinct_pair_ratio": len(first.score_pairs) / passes if passes else 0.0,
        "crystal_ops.antichains": antichains,
        "pm_graph.refused": first.refused,
        "pm_graph.expanded_nodes": first.expanded_nodes,
        "pm_graph.red_nodes": first.red_nodes,
        "pm_graph.white_nodes": first.white_nodes,
        "pm_graph.search_space_log10_p99": pct(first.search_log10, 99) if first.search_log10 else 0.0,
        "crystal_graph.vertices": first.vertices,
        "crystal_graph.edges": first.edges,
        "crystal_graph.levels": first.levels,
        "crystal_graph.max_level_size": first.max_level_size,
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        "trace.spans": len(tracer.start),
    })
    values["cli.interpreter_start_ms"] = extras.get("start_ms", 0.0)
    values["cli.import_ms"] = extras.get("import_ms", 0.0)
    for e in CLI_ENTRIES:
        values[f"cli.{e}_ms"] = statistics.median(cli_wall[e]) / 1e6 if cli_wall[e] else 0.0
        values[f"cli.{e}_inproc_ms"] = statistics.median(cli_inproc[e]) / 1e6 if cli_inproc[e] else 0.0
    return {"attempted": attempted, "values": values,
            "info": {"traced_passes": n, "traced_s": traced, "untraced_s": untraced,
                     "errors": {f"{k[0]}:{k[1]}": v for k, v in tracer.errors.items()}}}


def cli_start_import(smoke: bool) -> dict:
    """Median interpreter start and the extra time to import the CLI module."""
    reps = 1 if smoke else SETUP_REPEATS
    start, imp = [], []
    for _ in range(reps):
        for argv, acc in ((["-c", "pass"], start), (["-c", "import quivercrystal.cli"], imp)):
            code, _, err, wall, _ = workloads.spawn([sys.executable, *argv])
            if code != 0:
                raise CheckFailed(f"{argv} exited {code}: {err.decode(errors='replace')}")
            acc.append(wall)
    s, i = statistics.median(start), statistics.median(imp)
    return {"start_ms": s / 1e6, "import_ms": (i - s) / 1e6}


def git_rev() -> str:
    """The checked-out commit, read from .git without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def run_one(name: str, seed: int, seconds: float, traced: bool, smoke: bool = False) -> tuple[dict, dict]:
    """(result line, environment) for one run."""
    env = environment()
    units = dict(per_layer_names() if traced else END_TO_END)
    try:
        r = (trace if traced else measure)(name, seed, seconds, smoke)
        correct, failed, err = True, 0, None
    except CheckFailed as exc:
        r, correct, failed, err = None, False, 1, str(exc)
    except Exception as exc:  # the program raised where it must answer
        from quivercrystal.errors import QuiverCrystalError
        if not isinstance(exc, QuiverCrystalError):
            raise
        r, correct, failed, err = None, False, 1, f"{type(exc).__name__}: {exc}"
    env["loadavg_1m_end"] = os.getloadavg()[0]
    if err:
        env["error"] = err
    values = r["values"] if r else {}
    result = {
        "correct": correct,
        "attempted": r["attempted"] if r else 1,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    if r:
        env["info"] = r["info"]
    return result, env


def smoke() -> int:
    """Every workload at a tiny size, both modes; every declared metric must appear."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    ok = [w["name"] for w in bench["workloads"]] == list(SPEC)
    if not ok:
        print("BENCHMARK.json workloads differ from workloads.json", file=sys.stderr)
    for name in SPEC:
        for traced in (False, True):
            result, env = run_one(name, 1, 0, traced, smoke=True)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            good = result["correct"] and got == declared[traced]
            ok &= good
            print(f"smoke {name} trace={int(traced)}: {'ok' if good else 'FAIL'}"
                  + ("" if good else f" {env.get('error', '')} missing="
                     f"{sorted(set(declared[traced]) - set(got))} extra={sorted(set(got) - set(declared[traced]))}"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(SPEC))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "quivercrystal" / "__init__.py").is_file():
        print(f"no package source under {SRC}; run from a quivercrystal checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import quivercrystal.cli  # noqa: F401  (also writes bytecode before any child starts)

    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    result, env = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    for k, m in result["metrics"].items():
        print(f"{args.workload} {k} = {m['value']:.6g} {m['unit']}")
    print("env " + json.dumps({k: v for k, v in env.items() if k != "info"}, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "env": env}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
