"""Regenerate perfbench/invariants.json from the current qroute sources.

Usage: python3 perfbench/record_invariants.py

For each workload it compiles every circuit of the input pool once, checks
the outputs, and stores the values of ``CompileResult.invariants`` per pool
index.  Two worker processes share the work.  run.py fails any compile whose
values differ from these, or whose input has none.  A change that keeps the
compile front end correct keeps them exactly; re-record only when a change is
meant to alter them.
"""
import json
import multiprocessing
import os
import sys

import frontend
from run import INVARIANTS, THREAD_VARS

for var in THREAD_VARS:
    os.environ[var] = "1"

CHUNK = 64


def record_rows(w: frontend.Workload, indices) -> list[list]:
    """Invariants of the given pool inputs of workload ``w``, checked."""
    frontend.use_source_tree()
    import checks

    dev = frontend.device_setup(w.spec, frontend.NoTracer())
    checks.check_device(dev)
    rows = []
    for i in indices:
        source, text = frontend.make_input(w, i)
        res = frontend.compile_once(text, dev, frontend.NoTracer())
        checks.check_compile(res, source, dev)
        rows.append(res.invariants())
    return rows


def record_chunk(name: str, start: int) -> list[list]:
    rows = record_rows(frontend.WORKLOADS[name], range(start, start + CHUNK))
    print(name, start, file=sys.stderr)
    return rows


def record() -> dict:
    jobs = [(name, start) for name in frontend.WORKLOADS for start in range(0, frontend.POOL, CHUNK)]
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        chunks = pool.starmap(record_chunk, jobs)
    table: dict = {name: [] for name in frontend.WORKLOADS}
    for (name, _), rows in zip(jobs, chunks):
        table[name] += rows
    return table


def dump(table: dict) -> str:
    """JSON with one line per pool input, so a diff names the input."""
    parts = [f' "fields": {json.dumps(frontend.INVARIANTS)}']
    for name, rows in table.items():
        lines = ",\n".join(f"  {json.dumps(row)}" for row in rows)
        parts.append(f' "{name}": [\n{lines}\n ]')
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    INVARIANTS.write_text(dump(record()))
