"""Compile-front-end benchmark for qroute.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run sets the device up, generates its input circuits from the seed, and
compiles them round-robin in one thread (a closed loop with one client) until
S seconds of compile time are measured.  Every compile's outputs are checked
outside the timed region; a failed check or an exception is a failed compile,
and a run with any failure reports ``"correct": false``.
Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, and prints the
raw wall-clock ones too; set-up time is measured in several fresh
interpreters (see ``setup_s``).  ``--trace 1`` records spans around every call into qroute,
writes them to ``perfbench/traces/`` and reports the per-layer metrics derived
from them.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import frontend
from frontend import N_INPUTS, ROOT, WORKLOADS, NoTracer, Tracer

HERE = Path(__file__).resolve().parent
INVARIANTS = HERE / "invariants.json"
TRACE_DIR = HERE / "traces"
SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MAX_REPORTED_FAILURES = 5
# Printed in the report but not gated: their run-to-run spread on a shared
# two-core host exceeds any bound BENCHMARK.json may set (see reference_s).
WALL_CLOCK_UNITS = {"compile_s_p50": "s", "gates_per_s": "1/s", "setup_wall_s": "s"}
# What reference_s takes on a two-vCPU x86-64 host with CPython 3.11; the
# unit in which setup_s states set-up time (see setup_s).
NOMINAL_REFERENCE_S = 0.03


def probe_setup(spec: str) -> list[dict]:
    """Set-up span durations from SETUP_PROBES fresh interpreters, in turn."""
    probes = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), spec],
                             capture_output=True, text=True, timeout=150, check=True)
        probes.append(json.loads(out.stdout.splitlines()[-1]))
    return probes


_REF_ROWS = [(i % 61, (i * 7) % 59) for i in range(3000)]


def reference_s() -> float:
    """Time a fixed pure-Python computation that shares no code with qroute.

    The host's speed drifts by a tenth or more over tens of seconds, so raw
    wall-clock medians of identical work differ from run to run by more than
    any useful bound.  Timed just before and just after each compile, this
    mix of integer arithmetic and dict/list churn slows down with the host, so
    in the ratio
    ``compile_rel_p50`` most drift cancels while a change to qroute shows in
    full.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    last: dict[int, int] = {}
    succ: list[list[int]] = [[] for _ in _REF_ROWS]
    for i, pair in enumerate(_REF_ROWS):
        for q in pair:
            if q in last:
                succ[last[q]].append(i)
            last[q] = i
    sorted(_REF_ROWS, key=lambda r: (r[1], r[0]))
    return perf_counter() - t0


def setup_s(probes: list[dict]) -> float:
    """Set-up time in seconds of a host whose reference loop takes NOMINAL_REFERENCE_S.

    Each probe's set-up time is divided by the reference loop timed in the
    same interpreter around it, which cancels most of the host's drift, as in
    ``compile_rel_p50``; the median ratio is then scaled to seconds.
    """
    return statistics.median(p["setup"] / p["reference"] for p in probes) * NOMINAL_REFERENCE_S


def load_invariants() -> dict:
    return json.loads(INVARIANTS.read_text()) if INVARIANTS.is_file() else {}


def span_cost_s(rounds: int = 5, spans: int = 2000) -> float:
    """Median cost of recording one empty span, in seconds."""
    costs = []
    for _ in range(rounds):
        tr = Tracer()
        t0 = perf_counter()
        for _ in range(spans):
            with tr.span("probe"):
                pass
        costs.append((perf_counter() - t0) / spans)
    return statistics.median(costs)


def result_counts(res) -> Counter:
    return Counter({
        "qasm.gates": len(res.circuit.gates),
        "circuit.layers": len(res.layers),
        "circuit.lb_steps": res.lb_steps,
        "matching.calls": len(res.placements),
        "matching.gates": sum(len(p.pairs) for p in res.placements),
        "matching.cost": sum(p.cost for p in res.placements),
        "perm.tokens": sum(len(p.pp.dom()) for p in res.placements),
        "perm.displaced": sum(s != t for p in res.placements for s, t in p.pp.items()),
    })


def span_seconds(spans: list) -> tuple[dict, float]:
    """Total seconds per span name, and the self time of ``compile`` spans."""
    total: dict[str, int] = defaultdict(int)
    covered: dict[int, int] = defaultdict(int)
    for name, start, end, parent in spans:
        total[name] += end - start
        if parent is not None:
            covered[parent] += end - start
    self_ns = sum(end - start - covered[i] for i, (name, start, end, _) in enumerate(spans)
                  if name == "compile")
    return {k: v / 1e9 for k, v in total.items()}, self_ns / 1e9


def measure(w: frontend.Workload, seed: int, seconds: float, trace: bool,
            recorded: list | None = None) -> dict:
    """One run of workload ``w``: its outcome, metrics and what the report prints.

    ``recorded`` holds the invariants of each pool input; by default those
    stored in invariants.json for ``w``.  An input without them fails.
    """
    frontend.use_source_tree()
    import checks  # loads numpy, so only after the thread limits are in place

    probes = [] if trace else probe_setup(w.spec)
    setup_tracer = Tracer()
    dev = frontend.device_setup(w.spec, setup_tracer)
    failures: list[str] = []
    try:
        checks.check_device(dev)
        device_ok = True
    except checks.CheckError as exc:
        device_ok = False
        failures.append(f"device check: {exc}")
    if w.n_qubits // 2 > len(dev.slots):
        raise SystemExit(f"perfbench: {w.name} can need {w.n_qubits // 2} slots, "
                         f"{w.spec} has {len(dev.slots)}")
    inputs = frontend.make_inputs(w, seed)
    if recorded is None:
        recorded = load_invariants().get(w.name, [])
    invariants: list[list | None] = [None] * N_INPUTS

    def verify(res, idx: int) -> None:
        """Check every output once per input; after that, the digest suffices."""
        pool_idx, source, _ = inputs[idx]
        if invariants[idx] is None:
            checks.check_compile(res, source, dev)
        got = res.invariants()
        checks.check_invariants(got, recorded[pool_idx] if pool_idx < len(recorded) else None)
        invariants[idx] = got

    failed = 0

    def fail() -> None:
        nonlocal failed
        failed += 1
        if len(failures) < MAX_REPORTED_FAILURES:
            failures.append(traceback.format_exc(limit=4))

    tracer = Tracer() if trace else NoTracer()
    compile_s: list[float] = []
    relative: list[float] = []
    gates_done = 0
    counts: Counter = Counter()
    attempted = 0
    busy = 0.0
    while attempted < N_INPUTS or busy < seconds:
        idx = attempted % N_INPUTS
        attempted += 1
        before = reference_s()
        t0 = perf_counter()
        try:
            res = frontend.compile_once(inputs[idx][2], dev, tracer)
        except Exception:
            busy += perf_counter() - t0
            fail()
            continue
        dt = perf_counter() - t0
        ref = (before + reference_s()) / 2
        busy += dt
        try:
            verify(res, idx)
        except Exception:
            fail()
        compile_s.append(dt)
        relative.append(dt / ref)
        gates_done += len(res.circuit.gates)
        counts += result_counts(res)
    if not compile_s:
        sys.stderr.write("".join(failures))
        raise SystemExit("perfbench: no compile completed")

    if trace:
        per_compile = len(compile_s)
        totals, self_s = span_seconds(tracer.spans)
        # Tracing adds a fixed cost per span; timing traced against untraced
        # compiles instead would measure mostly the host's drift.
        span_s = span_cost_s() * len(tracer.spans)
        setup, _ = span_seconds(setup_tracer.spans)
        metrics = {
            "qasm.parse_s": totals["qasm.parse"] / per_compile,
            "qasm.emit_s": totals["qasm.emit"] / per_compile,
            "qasm.gates": counts["qasm.gates"] / per_compile,
            "circuit.layers_s": totals["circuit.layers"] / per_compile,
            "circuit.metrics_s": totals["circuit.metrics"] / per_compile,
            "circuit.layers": counts["circuit.layers"] / per_compile,
            "circuit.lb_steps": counts["circuit.lb_steps"] / per_compile,
            "graphs.build_s": setup["graphs.build"],
            "graphs.distances_s": setup["graphs.distances"],
            "graphs.dist_mb": dev.dist.nbytes / 2**20,
            "graphs.vertices": dev.graph.n,
            "matching.slots_s": setup["matching.slots"],
            "matching.build_s": totals["matching.build"] / per_compile,
            "matching.solve_s": totals["matching.solve"] / per_compile,
            "matching.calls": counts["matching.calls"] / per_compile,
            "matching.size_mean": counts["matching.gates"] / counts["matching.calls"],
            "matching.cost": counts["matching.cost"] / per_compile,
            "perm.s": totals["perm"] / per_compile,
            "perm.tokens": counts["perm.tokens"] / per_compile,
            "perm.displaced_frac": counts["perm.displaced"] / counts["perm.tokens"],
            "bench.self_s": self_s / per_compile,
            "trace.overhead_frac": span_s / (sum(compile_s) - span_s),
        }
        shares = {**{k: v / totals["compile"] for k, v in totals.items()},
                  **{k: v / setup["setup"] for k, v in setup.items()}}
    else:
        metrics = {
            "compile_s_p50": statistics.median(compile_s),
            "compile_rel_p50": statistics.median(relative),
            "gates_per_s": gates_done / sum(compile_s),
            "setup_s": setup_s(probes),
            "setup_wall_s": statistics.median(p["setup"] for p in probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        shares = {}

    import numpy
    import scipy
    return {
        "correct": device_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": len(compile_s),
        "invariants": invariants,
        "env": f"python {platform.python_version()}, numpy {numpy.__version__}, "
               f"scipy {scipy.__version__}, nproc {len(os.sched_getaffinity(0))}",
        "failures": failures,
        "spans": {"setup": setup_tracer.spans, "compile": tracer.spans},
        "shares": shares,
    }


def write_spans(path: Path, spans: dict) -> None:
    """One JSON line per span; ``parent`` indexes the spans of the same group."""
    path.parent.mkdir(exist_ok=True)
    with path.open("w") as fh:
        for group, records in spans.items():
            for name, start, end, parent in records:
                fh.write(json.dumps({"group": group, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="non-negative input seed")
    ap.add_argument("--seconds", type=float, required=True, help="compile time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]

    out = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    if args.trace:
        write_spans(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl", out["spans"])
    sys.stderr.write("".join(f + "\n" for f in out["failures"]))
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: {out['env']}")
    print(f"compiles attempted {out['attempted']}, failed {out['failed']}, "
          f"fail_rate {out['failed'] / out['attempted']:.4g} failed/attempted, "
          f"samples {out['samples']}")
    totals = [sum(col) for col in zip(*(row[:-1] for row in filter(None, out["invariants"])))]
    print(f"invariant counts over all inputs, checked against the recorded ones: "
          f"{dict(zip(frontend.INVARIANTS, totals))}")
    if out["shares"]:
        print("share of a compile or of set-up, by span: " + ", ".join(
            f"{k} {v:.3f}" for k, v in out["shares"].items() if k not in ("compile", "setup")))
    units = {m["name"]: m["unit"] for m in declared}
    metrics = {name: {"value": out["metrics"][name], "unit": unit} for name, unit in units.items()}
    for name, value in out["metrics"].items():
        print(f"  {name:<22} {value:.6g} {units.get(name) or WALL_CLOCK_UNITS[name]}")
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    main()
