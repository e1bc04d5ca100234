"""Correctness checks on the device and on every compile's outputs.

The checks recompute what they compare against with code of their own
(closed-form distances, scalar cost loops, scipy's assignment solver), so a
defect in ``qroute`` cannot hide behind itself.  Each raises ``CheckError``.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment


class CheckError(Exception):
    pass


def _require(ok, what: str) -> None:
    if not ok:
        raise CheckError(what)


def closed_form_distances(g) -> np.ndarray:
    """Hop distances of a ``grid`` or ``modular`` product, vertex (i, j) = i*n2 + j."""
    n1, n2 = g.factor1.n, g.factor2.n
    i, j = np.divmod(np.arange(n1 * n2), n2)
    if g.kind == "grid":
        return np.abs(i[:, None] - i[None, :]) + np.abs(j[:, None] - j[None, :])
    if g.kind == "modular":
        # Modules are complete graphs joined at position 0 through a complete
        # graph of modules: walk to the communicator, cross, walk out.
        inside = (j[:, None] != j[None, :]).astype(int)
        across = (j[:, None] != 0).astype(int) + 1 + (j[None, :] != 0)
        return np.where(i[:, None] == i[None, :], inside, across)
    raise CheckError(f"no closed form for kind {g.kind!r}")


def check_device(dev) -> None:
    D, g = dev.dist, dev.graph
    _require(D.shape == (g.n, g.n), "distance matrix has the wrong shape")
    _require(np.array_equal(D, D.T), "distance matrix is not symmetric")
    _require(not np.diagonal(D).any(), "distance matrix has a nonzero diagonal")
    u, v = np.array(sorted(g.edges)).T
    _require((D[u, v] == 1).all(), "an edge is not at distance 1")
    _require(np.array_equal(D, closed_form_distances(g)),
             f"distances differ from the closed form for {g.kind}")
    used = [q for s in dev.slots for q in s]
    _require(len(used) == len(set(used)), "slots are not a matching")
    _require(all(g.has_edge(x, y) for x, y in dev.slots), "a slot is not an edge")


def check_compile(res, source, dev) -> None:
    """Every output of one compile of the circuit ``source``."""
    from qroute import circuit, qasm

    c = res.circuit
    _require(c == source, "parsed circuit differs from the generated one")
    _require(qasm.parse_qasm(res.emitted)[0] == c, "emit -> parse does not round-trip")

    seen = sorted(i for layer in res.layers for i in layer.gates)
    _require(seen == list(range(len(c.gates))), "layers do not partition the gates")
    for layer in res.layers:
        qubits = [q for i in layer.gates for q in c.gates[i].qubits]
        _require(len(qubits) == len(set(qubits)), "a layer reuses a qubit")
    depth = circuit.weighted_metrics(c, circuit.GateWeights(1, 1, 1)).weighted_depth
    _require(len(res.layers) == depth, "layer count differs from the unit-weight depth")
    # Each gate must sit in its ASAP layer: one past the latest layer that
    # used any of its qubits before it.
    layer_of = {i: n for n, layer in enumerate(res.layers) for i in layer.gates}
    ready = [0] * c.n_qubits
    for i, gate in enumerate(c.gates):
        level = max(ready[q] for q in gate.qubits)
        _require(layer_of[i] == level, f"gate {i} is in layer {layer_of[i]}, not its ASAP layer {level}")
        for q in gate.qubits:
            ready[q] = level + 1

    front = [layer.tg() for layer in res.layers if layer.two_qubit]
    _require([p.pairs for p in res.placements] == front,
             "placements do not follow the front layers")
    D = dev.dist
    for p in res.placements:
        k = len(p.pairs)
        slots = dev.slots[:k]
        cost = np.array([[min(int(D[a, x]) + int(D[b, y]), int(D[a, y]) + int(D[b, x]))
                          for x, y in slots] for a, b in p.pairs])
        rows = sorted(i for i, _ in p.matching)
        cols = sorted(j for _, j in p.matching)
        _require(rows == list(range(k)) and cols == list(range(k)),
                 "placement is not a perfect matching")
        r, s = linear_sum_assignment(cost)
        optimum = int(cost[r, s].sum())
        _require(p.cost == optimum == sum(int(cost[i, j]) for i, j in p.matching),
                 f"placement cost {p.cost} is not the optimum {optimum}")
        for i, j in p.matching:
            (a, b), (x, y) = p.pairs[i], slots[j]
            _require(dev.graph.has_edge(x, y), f"slot ({x}, {y}) is not an edge")
            _require({p.pp(a), p.pp(b)} == {x, y}, "routing request misses its slot")
            _require(int(D[a, p.pp(a)]) + int(D[b, p.pp(b)]) == cost[i, j],
                     "routing request does not take the cheaper orientation")
        _require(len(list(p.pp.items())) == 2 * k, "routing request has stray tokens")


def check_invariants(got: list, recorded: list | None) -> None:
    """Compare one compile's invariants with those recorded for its input."""
    _require(recorded is not None, "no invariants are recorded for this input")
    _require(got == recorded, f"invariants {got} differ from recorded {recorded}")
