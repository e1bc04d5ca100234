"""Quantum circuits as ordered gate lists with implied DAG semantics.

Qubits are named by strings at the interface; gates store dense qubit
indices.  The dependency DAG follows list order restricted to shared qubits.
A gate is an immutable 3-tuple ``(name, qubits, params)``: a tuple subclass
whose fields are read by unpacking or by name.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .perm import read_count

# The gate set: name -> (parameter count, qubit count).
GATE_ARITY = {"u": (3, 1), "h": (0, 1), "x": (0, 1), "rz": (1, 1),
              "cx": (0, 2), "swap": (0, 2)}


class _GateFields(NamedTuple):
    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()


class Gate(_GateFields):
    """A gate of ``GATE_ARITY`` on distinct integer qubits: the tuple ``(name, qubits, params)``.

    Its parameters are finite real numbers, as many as ``GATE_ARITY`` gives
    its name, so every gate can be emitted as text ``parse_qasm`` reads back.
    ``qubits`` and ``params`` given as other iterables are stored as tuples;
    tuples are stored as given.

    The field order is part of the interface: ``for name, qs, params in
    circuit.gates`` reads every field of every gate.  A loop that needs one or
    two fields reads them by name instead: CPython unpacks only exact tuples
    on its fast path, so unpacking a subclass costs more than two attribute
    reads.  Gates are immutable, hashable and compare as the tuples they are.
    Equal gates may be one object: a circuit the library builds holds one
    ``qubits`` tuple per distinct operand list and one ``Gate`` per distinct
    parameterless gate, so compare gates with ``==``, never with ``is``.
    ``Gate(...)``, ``_make``, ``_replace``, ``copy`` and ``pickle`` all go
    through the checks in ``__new__``.
    """
    __slots__ = ()

    def __new__(cls, name: str, qubits: tuple[int, ...], params: tuple[float, ...] = ()):
        if type(qubits) is not tuple:
            qubits = tuple(qubits)
        if type(params) is not tuple:
            params = tuple(params)
        arity = GATE_ARITY.get(name)
        if arity is None:
            raise ValueError(f"unknown gate {name!r}")
        if arity != (len(params), len(qubits)):
            raise ValueError(f"{name} acts on {len(qubits)} qubits with {len(params)} parameters; "
                             f"it takes {arity[1]} qubits and {arity[0]} parameters")
        for q in qubits:  # what operator.index accepts, except bool
            if isinstance(q, bool) or not hasattr(q, "__index__"):
                raise ValueError(f"{name} qubit {q!r} is not an integer")
        if len(qubits) == 2 and qubits[0] == qubits[1]:
            raise ValueError(f"{name} acts twice on qubit {qubits[0]}")
        try:
            finite = all(map(math.isfinite, params))
        except TypeError:  # not a real number
            finite = False
        if not finite:
            raise ValueError(f"{name} parameters {params!r} are not finite real numbers")
        return tuple.__new__(cls, (name, qubits, params))

    @classmethod
    def _make(cls, iterable) -> Gate:
        return cls(*iterable)


@dataclass(frozen=True)
class GateWeights:
    """Cost model for weighted size/depth: 1-qubit, CNOT, SWAP."""
    one_qubit: int = 1
    cnot: int = 10
    swap: int = 30


DEFAULT_WEIGHTS = GateWeights()


@dataclass(slots=True)
class FrontLayer:
    """Gates with no unexecuted predecessors.

    ``two_qubit`` lists (gate index, (q1, q2)) for the two-qubit members; the
    pair is the gate's own ``qubits`` tuple.
    """
    gates: list[int]
    two_qubit: list[tuple[int, tuple[int, int]]]

    def tg(self) -> list[tuple[int, int]]:
        return [pair for _, pair in self.two_qubit]


class Circuit:
    def __init__(self, qubits: list[str], gates: list[Gate] | None = None):
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate qubit names")
        self.qubits: list[str] = list(qubits)
        self.gates: list[Gate] = []
        for g in gates or []:
            self.append(g)

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    def append(self, gate: Gate) -> None:
        for q in gate.qubits:
            if not (0 <= q < self.n_qubits):
                raise ValueError(f"qubit index {q} out of range")
        self.gates.append(gate)

    def __len__(self) -> int:
        return len(self.gates)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Circuit) and self.qubits == other.qubits
                and self.gates == other.gates)


def layers(circuit: Circuit) -> list[FrontLayer]:
    """Partition gates into layers; the count is the circuit depth.

    Each gate sits in the layer of its ASAP level: one past the deepest
    earlier gate sharing a qubit (per-qubit running max, as in
    :func:`weighted_metrics`).  Layer ``k`` is therefore the front layer,
    the gates with no unexecuted predecessor, once layers ``0..k-1`` are
    executed, with its gates in ascending gate index.  One pass:
    O(gates + qubits).
    """
    ready = [0] * circuit.n_qubits
    out: list[FrontLayer] = []
    for i, g in enumerate(circuit.gates):
        qs = g.qubits
        if len(qs) == 1:
            a = qs[0]
            level = ready[a]
            if level == len(out):
                out.append(FrontLayer([], []))
            out[level].gates.append(i)
            ready[a] = level + 1
        else:
            a, b = qs
            level = ready[a] if ready[a] >= ready[b] else ready[b]
            if level == len(out):
                out.append(FrontLayer([], []))
            fl = out[level]
            fl.gates.append(i)
            fl.two_qubit.append((i, qs))
            ready[a] = ready[b] = level + 1
    return out


@dataclass
class Metrics:
    weighted_size: int
    weighted_depth: int
    counts: dict[str, int] = field(default_factory=dict)


def weighted_metrics(circuit: Circuit, weights: GateWeights = DEFAULT_WEIGHTS) -> Metrics:
    """Weighted size (sum of gate weights) and weighted depth (max-weight DAG
    path, via per-qubit running maxima).

    A one-qubit gate weighs ``weights.one_qubit``, a ``swap`` ``weights.swap``
    and any other two-qubit gate ``weights.cnot``; ``counts`` is gates per name.
    """
    one, cnot, swap = weights.one_qubit, weights.cnot, weights.swap
    size = 0
    depth = [0] * circuit.n_qubits
    counts: dict[str, int] = {}
    for g in circuit.gates:
        qs = g.qubits
        name = g.name
        counts[name] = counts.get(name, 0) + 1
        if len(qs) == 1:
            size += one
            depth[qs[0]] += one
        else:
            w = swap if name == "swap" else cnot
            size += w
            a, b = qs
            depth[a] = depth[b] = (depth[a] if depth[a] >= depth[b] else depth[b]) + w
    return Metrics(size, max(depth, default=0), counts)


def random_circuit(n_qubits: int, n_layers: int = 20, seed: int | None = None) -> Circuit:
    """Random benchmark circuit: per layer, qubits are binned into uniformly
    random pairs and each pair receives a 3-CNOT two-qubit block with random
    angles (one qubit idles when the count is odd).

    Angles are Python floats.  The ``u`` gates on a qubit share one ``(q,)``
    tuple, and a block's three CNOTs are one ``Gate`` object.
    """
    n_qubits, n_layers = read_count(n_qubits, "n_qubits"), read_count(n_layers, "n_layers")
    if n_qubits < 2:
        raise ValueError("need at least 2 qubits")
    rng = np.random.default_rng(seed)
    circ = Circuit([f"q[{i}]" for i in range(n_qubits)])
    singles = [(q,) for q in range(n_qubits)]

    def u(q: int) -> Gate:
        return Gate("u", singles[q], tuple(rng.uniform(0.0, 2 * math.pi, size=3).tolist()))

    for _ in range(n_layers):
        order = [int(x) for x in rng.permutation(n_qubits)]
        for k in range(n_qubits // 2):
            a, b = order[2 * k], order[2 * k + 1]
            cx = Gate("cx", (a, b))
            circ.append(u(a))
            circ.append(u(b))
            for _ in range(3):
                circ.append(cx)
                circ.append(u(a))
                circ.append(u(b))
    return circ
