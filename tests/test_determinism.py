"""Outputs do not depend on the interpreter's string-hash seed.

One script prints, for each graph, its kind, its slots and one lex-min
placement, then a digest of an emitted circuit, then digests of a circuit
routed on ``path:8`` and ``complete:8`` by each placer/permuter pair, emitted
with its initial and final maps, then a digest of ``route`` over every
request on ``path:5`` and ``complete:5``.  Two interpreters run it
with different ``PYTHONHASHSEED`` values, and their outputs must match.
"""
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = """
import hashlib
import itertools

import numpy as np

from qroute.circuit import layers, random_circuit
from qroute.graphs import build_architecture, complete_graph, parse_hier_file, path_graph
from qroute.matching import maximal_matching, min_weight_perfect_matching
from qroute.perm import PartialPermutation
from qroute.permuters import chain, route
from qroute.placement import matching_placer, naive_placer
from qroute.qasm import emit_qasm
from qroute.transform import transform

graphs = [build_architecture(spec) for spec in ["path:7", "complete:6", "grid:5x6", "modular:4x3"]]
graphs.append(parse_hier_file("n1 3\\nn2 4\\nv 0 1 0 1\\ne1 0 1\\ne1 1 2\\n"
                              "e2 0 1\\ne2 0 2\\ne2 1 2\\ne2 2 3\\n"))
for g in graphs:
    slots = maximal_matching(g)
    pairs = next(layer.tg() for layer in layers(random_circuit(g.n, 2, seed=g.n)) if layer.tg())
    (a, b), (x, y) = np.array(pairs[:len(slots)]).T, np.array(slots[:len(pairs)]).T
    d = g.distances().astype(np.int64)
    cost = np.minimum(d[a][:, x] + d[b][:, y], d[a][:, y] + d[b][:, x])
    print(g.kind, slots, min_weight_perfect_matching(cost))
print(hashlib.sha256(emit_qasm(random_circuit(8, 5, seed=1)).encode()).hexdigest())
for spec in ["path:8", "complete:8"]:
    for pair in [(matching_placer, route), (naive_placer, chain)]:
        routed = transform(random_circuit(8, 5, seed=2), build_architecture(spec), *pair)
        print(spec, hashlib.sha256(emit_qasm(*routed).encode()).hexdigest())
routes = []
for graph in [path_graph(5), complete_graph(5)]:
    for k in range(6):
        for sources in itertools.combinations(range(5), k):
            for targets in itertools.permutations(range(5), k):
                forward = [None] * 5
                for s, t in zip(sources, targets):
                    forward[s] = t
                routes.append(route(graph, PartialPermutation(5, forward)))
print("route", hashlib.sha256(repr(routes).encode()).hexdigest())
"""


def run(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


def test_outputs_equal_across_hash_seeds():
    first, second = run("0"), run("1")
    assert first.count("\n") == 11
    assert first == second
