"""The compile front end as the benchmark drives it, with optional spans.

A compile is the sequence of public ``qroute`` calls that a transformer makes
for one input circuit: parse, layer, score, place each front layer's
two-qubit gates with a min-weight perfect matching, build the routing
request, emit.  Logical qubit i sits on vertex i throughout.

Spans are recorded from here, around each call into a ``qroute`` module, and
never from inside the library.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Inputs per run, compiled round-robin.  The matching work of one circuit
# differs from the next by up to a quarter on grid1024, so a run spreads its
# time over many circuits to keep its medians steady from seed to seed.
N_INPUTS = 16
# A run's inputs are drawn from a fixed pool of circuits per workload, each
# with its outputs recorded in invariants.json, so that every seed is checked.
POOL = 256


def use_source_tree() -> None:
    """Import ``qroute`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "qroute" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qroute sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Workload:
    """A device spec and the shape of the random circuits compiled on it."""
    name: str
    spec: str
    n_qubits: int
    n_layers: int


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("deep16", "grid:4x4", 16, 60),
    Workload("grid1024", "grid:32x32", 64, 10),
    Workload("modular256", "modular:16x16", 64, 10),
)}


class Tracer:
    """Keeps spans in memory as [name, start_ns, end_ns, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter_ns(), 0, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter_ns()
            self._open.pop()


class NoTracer:
    """Records nothing; used for the untraced, end-to-end run."""
    spans = ()
    _null = nullcontext()

    def span(self, name: str):
        return self._null


@dataclass
class Device:
    graph: object
    dist: object
    slots: list[tuple[int, int]]


def device_setup(spec: str, tr) -> Device:
    """Import qroute and prepare the device, as a CLI call would."""
    with tr.span("setup"):
        with tr.span("import"):
            from qroute import circuit, graphs, matching, perm, qasm  # noqa: F401
        with tr.span("graphs.build"):
            g = graphs.build_architecture(spec)
        with tr.span("graphs.distances"):
            dist = g.distances()
        with tr.span("matching.slots"):
            slots = matching.maximal_matching(g)
    return Device(g, dist, slots)


def make_input(w: Workload, index: int):
    """Circuit ``index`` of the workload's pool and its QASM text."""
    from qroute import circuit, qasm
    c = circuit.random_circuit(w.n_qubits, w.n_layers, seed=index)
    return c, qasm.emit_qasm(c)


def make_inputs(w: Workload, seed: int):
    """The run's inputs as (pool index, circuit, QASM text), from ``seed`` alone."""
    return [(i, *make_input(w, i)) for i in random.Random(seed).sample(range(POOL), N_INPUTS)]


# The recorded outputs of one compile: counts, then a digest of everything it emits.
INVARIANTS = ("circuit.layers", "matching.calls", "matching.cost", "lb_steps", "digest")


@dataclass
class Placement:
    pairs: list[tuple[int, int]]       # the layer's two-qubit gates (a, b)
    matching: list[tuple[int, int]]    # (gate index, slot index)
    cost: int
    pp: object                         # the PartialPermutation built from it


@dataclass
class CompileResult:
    circuit: object
    layers: list
    metrics: object
    placements: list[Placement]
    emitted: str
    lb_steps: int

    def invariants(self) -> list:
        """The values named by INVARIANTS, which any correct front end reproduces.

        The digest covers the layers, each placement's matching and routing
        request, and the emitted text, so a rewrite that picks another of
        several optimal matchings, or reorders a layer, changes it.
        """
        outputs = [[layer.gates for layer in self.layers],
                   [[p.matching, p.pp.key()] for p in self.placements],
                   self.emitted]
        digest = hashlib.sha256(json.dumps(outputs, default=int).encode()).hexdigest()[:16]
        return [len(self.layers), len(self.placements),
                sum(p.cost for p in self.placements), self.lb_steps, digest]


def compile_once(text: str, dev: Device, tr) -> CompileResult:
    # Imported here: loading this module must not load numpy or qroute, whose
    # import device_setup times.
    import numpy as np
    from qroute import circuit, matching, perm, qasm

    D, slots = dev.dist, dev.slots
    with tr.span("compile"):
        with tr.span("qasm.parse"):
            c, _, _ = qasm.parse_qasm(text)
        with tr.span("circuit.layers"):
            lays = circuit.layers(c)
        with tr.span("circuit.metrics"):
            metrics = circuit.weighted_metrics(c)
        placements: list[Placement] = []
        lb_steps = 0
        for layer in lays:
            pairs = layer.tg()
            k = len(pairs)
            if k == 0:
                continue
            if k > len(slots):
                raise ValueError(f"front layer of {k} gates exceeds {len(slots)} slots")
            a, b = np.array(pairs).T
            x, y = np.array(slots[:k]).T
            # A matching step brings two tokens at most 2 hops closer, so a
            # gate at distance d needs ceil((d - 1) / 2) = d // 2 steps.
            lb_steps += int(D[a, b].max()) // 2
            straight = D[a][:, x] + D[b][:, y]
            crossed = D[a][:, y] + D[b][:, x]
            cost = np.minimum(straight, crossed)
            with tr.span("matching.build"):
                wb = matching.WeightedBipartiteGraph(
                    k, k, [(i, j, w) for i, row in enumerate(cost.tolist())
                           for j, w in enumerate(row)])
            with tr.span("matching.solve"):
                pm = matching.min_weight_perfect_matching(wb)
            mapping = {}
            for i, j in pm:
                if straight[i, j] <= crossed[i, j]:
                    mapping[int(a[i])], mapping[int(b[i])] = slots[j]
                else:
                    mapping[int(b[i])], mapping[int(a[i])] = slots[j]
            with tr.span("perm"):
                pp = perm.PartialPermutation.from_mapping(dev.graph.n, mapping)
            placements.append(Placement(pairs, pm, int(sum(cost[i, j] for i, j in pm)), pp))
        with tr.span("qasm.emit"):
            emitted = qasm.emit_qasm(c)
    return CompileResult(c, lays, metrics, placements, emitted, lb_steps)
