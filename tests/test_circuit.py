"""Circuit DAG semantics, layering, metrics, random generation."""
import copy
import pickle
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qroute.circuit import (Circuit, FrontLayer, Gate, GateWeights, layers,
                            random_circuit, weighted_metrics)
from qroute.qasm import emit_qasm, parse_qasm

from oracles import longest_weighted_path


def circ(n, gates):
    c = Circuit([f"q[{i}]" for i in range(n)])
    for g in gates:
        c.append(g)
    return c


def cx(a, b):
    return Gate("cx", (a, b))


def weight(w, g):
    """The cost model's weight of one gate, written out apart from weighted_metrics."""
    if len(g.qubits) == 1:
        return w.one_qubit
    return w.swap if g.name == "swap" else w.cnot


def front_layer(circuit, executed):
    """Reference front layer: the gates left with no unexecuted predecessor,
    by one scan in gate order.  ``executed`` must be dependency-closed."""
    blocked = set()
    layer, two_q = [], []
    for i, g in enumerate(circuit.gates):
        if i in executed:
            continue
        if any(q in blocked for q in g.qubits):
            blocked.update(g.qubits)
            continue
        layer.append(i)
        if len(g.qubits) == 2:
            two_q.append((i, (g.qubits[0], g.qubits[1])))
        blocked.update(g.qubits)
    return FrontLayer(layer, two_q)


def rescan_layers(c):
    """Reference layering: peel front layers off one rescan at a time."""
    executed, out = set(), []
    while len(executed) < len(c.gates):
        fl = front_layer(c, executed)
        out.append((fl.gates, fl.two_qubit))
        executed.update(fl.gates)
    return out


@st.composite
def circuits(draw):
    """Circuits of up to 40 h/u/cx/swap gates, each ``u`` with three finite
    angles; any qubit may stay idle."""
    n = draw(st.integers(min_value=2, max_value=7))
    qubit = st.integers(0, n - 1)
    angle = st.floats(allow_nan=False, allow_infinity=False)
    h = st.builds(lambda q: Gate("h", (q,)), qubit)
    u = st.builds(lambda q, ps: Gate("u", (q,), ps), qubit, st.tuples(angle, angle, angle))
    two = st.builds(lambda name, qs: Gate(name, tuple(qs)), st.sampled_from(["cx", "swap"]),
                    st.lists(qubit, min_size=2, max_size=2, unique=True))
    return circ(n, draw(st.lists(h | u | two, max_size=40)))


class TestGate:
    @pytest.mark.parametrize("qubits", [(), (0, 1, 2)])
    def test_rejects_arity_outside_one_or_two(self, qubits):
        with pytest.raises(ValueError, match="acts on"):
            Gate("cx", qubits)

    @pytest.mark.parametrize("qubits", [(0, 0), (0, 0, 1)])
    def test_rejects_repeated_qubit(self, qubits):
        with pytest.raises(ValueError):
            Gate("cx", qubits)

    @pytest.mark.parametrize("qubits", [(0.5,), ("0",), (True,), (np.float64(1),),
                                        (True, 0), (0, 1.0), (np.bool_(False), 1)])
    def test_rejects_non_integer_qubits(self, qubits):
        name = "h" if len(qubits) == 1 else "cx"
        with pytest.raises(ValueError, match="is not an integer"):
            Gate(name, qubits)
        with pytest.raises(ValueError, match="is not an integer"):
            Gate(name, (0, 1)[:len(qubits)])._replace(qubits=qubits)

    def test_keeps_integer_qubits_as_given(self):
        qs = (np.int64(2), 0)
        assert Gate("cx", qs).qubits is qs
        assert circ(3, [Gate("cx", qs)]).gates == [cx(2, 0)]

    def test_stores_other_iterables_as_tuples(self):
        g = Gate("rz", [0], [0.5])
        assert g == Gate("rz", (0,), (0.5,)) and hash(g) == hash(Gate("rz", (0,), (0.5,)))
        assert type(g.qubits) is tuple and type(g.params) is tuple
        qs, ps = (1,), (0.25,)
        g = Gate("rz", qs, ps)
        assert g.qubits is qs and g.params is ps

    @pytest.mark.parametrize("name,qubits,params,message", [
        ("bogus", (0,), (), "unknown gate 'bogus'"),
        ("CX", (0, 1), (), "unknown gate 'CX'"),
        ("h", (0, 1), (), "h acts on 2 qubits with 0 parameters; it takes 1 qubits and 0 parameters"),
        ("cx", (0,), (), "cx acts on 1 qubits with 0 parameters; it takes 2 qubits"),
        ("rz", (0,), (), "rz acts on 1 qubits with 0 parameters; it takes 1 qubits and 1 parameters"),
        ("u", (0,), (0.5,), "it takes 1 qubits and 3 parameters"),
        ("h", (0,), (0.5,), "h acts on 1 qubits with 1 parameters"),
        ("rz", (0,), (float("nan"),), "not finite real numbers"),
        ("rz", (0,), (float("-inf"),), "not finite real numbers"),
        ("rz", (0,), ("abc",), "not finite real numbers"),
        ("rz", (0,), (1j,), "not finite real numbers"),
        ("u", (0,), (0.5, np.float64("inf"), 1.0), "not finite real numbers"),
    ])
    def test_rejects_what_emit_qasm_cannot_write(self, name, qubits, params, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Gate(name, qubits, params)
        with pytest.raises(ValueError, match=re.escape(message)):
            Gate("cx", (0, 1))._replace(name=name, qubits=qubits, params=params)

    @pytest.mark.parametrize("params", [(1,), (np.float64(0.5),), (np.int32(-2),)])
    def test_accepts_finite_real_parameters(self, params):
        c = circ(1, [Gate("rz", (0,), params)])
        assert parse_qasm(emit_qasm(c))[0] == c

    def test_unpacks_in_field_order(self):
        name, qubits, params = Gate("u", (2,), (0.5, 1.0, 1.5))
        assert (name, qubits, params) == ("u", (2,), (0.5, 1.0, 1.5))
        assert Gate._fields == ("name", "qubits", "params")
        assert tuple(Gate("cx", (0, 1))) == ("cx", (0, 1), ())

    def test_fields_cannot_be_assigned(self):
        g = Gate("h", (0,))
        with pytest.raises(AttributeError):
            g.qubits = (1,)
        with pytest.raises(AttributeError):
            g.extra = 1

    def test_equal_fields_give_equal_gates_and_hashes(self):
        a, b = Gate("rz", (1,), (0.25,)), Gate("rz", (1,), (0.25,))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Gate("rz", (1,), (0.5,)) and a != Gate("rz", (0,), (0.25,))

    def test_repr(self):
        assert repr(Gate("cx", (0, 1))) == "Gate(name='cx', qubits=(0, 1), params=())"

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda g: pickle.loads(pickle.dumps(g))])
    def test_copy_and_pickle_round_trip(self, clone):
        g = Gate("u", (3,), (0.5, 1.0, 1.5))
        again = clone(g)
        assert again == g and type(again) is Gate

    def test_every_constructor_path_checks(self):
        data = pickle.dumps(Gate("cx", (0, 1)), protocol=pickle.HIGHEST_PROTOCOL)
        forged = data.replace(b"K\x00K\x01\x86", b"K\x01K\x01\x86")  # qubits (1, 1)
        assert forged != data
        with pytest.raises(ValueError, match="acts twice on qubit 1"):
            pickle.loads(forged)
        with pytest.raises(ValueError, match="acts on 3 qubits"):
            Gate("cx", (0, 1))._replace(qubits=(0, 1, 2))
        with pytest.raises(ValueError, match="acts on 0 qubits"):
            Gate._make(("h", ()))


class TestFrontLayer:
    def test_dependency_blocks_second_gate(self):
        c = circ(5, [cx(0, 1), cx(1, 2), cx(3, 4)])
        fl = front_layer(c, set())
        assert fl.gates == [0, 2]
        assert fl.tg() == [(0, 1), (3, 4)]

    def test_empty_circuit(self):
        fl = front_layer(circ(2, []), set())
        assert fl.gates == [] and fl.two_qubit == []

    def test_single_qubit_layer_has_empty_tg(self):
        c = circ(2, [Gate("h", (0,)), Gate("x", (1,))])
        fl = front_layer(c, set())
        assert fl.gates == [0, 1] and fl.tg() == []

    def test_executed_gates_unlock_successors(self):
        c = circ(3, [cx(0, 1), cx(1, 2)])
        assert front_layer(c, {0}).gates == [1]

    def test_layers_carry_no_instance_dict(self):
        fl = layers(circ(2, [cx(0, 1)]))[0]
        assert not hasattr(fl, "__dict__")
        with pytest.raises(AttributeError):
            fl.extra = 1


class TestLayers:
    def test_chain(self):
        c = circ(2, [cx(0, 1), cx(0, 1)])
        assert [fl.gates for fl in layers(c)] == [[0], [1]]

    def test_disjoint_gates_single_layer(self):
        c = circ(6, [cx(0, 1), cx(2, 3), cx(4, 5)])
        assert len(layers(c)) == 1

    def test_layer_concatenation_is_topological(self):
        c = random_circuit(5, n_layers=4, seed=3)
        order = [i for fl in layers(c) for i in fl.gates]
        assert sorted(order) == list(range(len(c.gates)))
        pos = {i: k for k, i in enumerate(order)}
        last = {}
        for i, g in enumerate(c.gates):
            for q in g.qubits:
                if q in last:
                    assert pos[last[q]] < pos[i]
                last[q] = i

    def test_empty_circuit(self):
        assert layers(circ(3, [])) == []

    @given(circuits())
    def test_matches_front_layer_rescan(self, c):
        assert [(fl.gates, fl.two_qubit) for fl in layers(c)] == rescan_layers(c)
        assert len(layers(c)) == weighted_metrics(c, GateWeights(1, 1, 1)).weighted_depth


class TestWeightedMetrics:
    def test_single_chain(self):
        c = circ(3, [Gate("u", (0,), (0.0, 0.0, 0.0)), cx(0, 1), Gate("swap", (1, 2))])
        m = weighted_metrics(c)
        assert m.weighted_size == 41 and m.weighted_depth == 41

    def test_empty(self):
        m = weighted_metrics(circ(2, []))
        assert m.weighted_size == 0 and m.weighted_depth == 0

    def test_parallel_gates(self):
        m = weighted_metrics(circ(4, [cx(0, 1), cx(2, 3)]))
        assert m.weighted_size == 20 and m.weighted_depth == 10

    def test_custom_weights(self):
        m = weighted_metrics(circ(2, [cx(0, 1)]), GateWeights(1, 7, 21))
        assert m.weighted_size == 7

    def test_depth_invariant_under_disjoint_reordering(self):
        a = circ(4, [cx(0, 1), cx(2, 3), Gate("h", (0,))])
        b = circ(4, [cx(2, 3), cx(0, 1), Gate("h", (0,))])
        assert weighted_metrics(a).weighted_depth == weighted_metrics(b).weighted_depth

    def test_against_longest_path_oracle(self):
        rng = random.Random(5)
        w = GateWeights()
        for _ in range(40):
            n = rng.randint(2, 6)
            gates = []
            for _ in range(rng.randint(0, 50)):
                if rng.random() < 0.5:
                    gates.append(Gate("h", (rng.randrange(n),)))
                else:
                    a, b = rng.sample(range(n), 2)
                    gates.append(Gate("cx" if rng.random() < 0.7 else "swap", (a, b)))
            c = circ(n, gates)
            m = weighted_metrics(c)
            oracle = longest_weighted_path([g.qubits for g in gates],
                                           [weight(w, g) for g in gates])
            assert m.weighted_depth == oracle
            assert m.weighted_depth <= m.weighted_size

    @given(circuits(), st.builds(GateWeights, st.integers(0, 50), st.integers(0, 50),
                                 st.integers(0, 50)))
    def test_any_weights_match_oracle(self, c, w):
        m = weighted_metrics(c, w)
        assert m.weighted_depth == longest_weighted_path([g.qubits for g in c.gates],
                                                         [weight(w, g) for g in c.gates])
        assert m.weighted_size == sum(weight(w, g) for g in c.gates)
        assert m.counts == Counter(g.name for g in c.gates)


class TestRandomCircuit:
    def test_block_structure(self):
        c = random_circuit(4, n_layers=1, seed=0)
        m = weighted_metrics(c)
        assert m.counts["cx"] == 6           # 2 blocks x 3 CNOTs
        assert m.counts["u"] == 16         # 2 blocks x 8 u gates

    def test_determinism(self):
        assert random_circuit(6, seed=42) == random_circuit(6, seed=42)
        assert random_circuit(6, seed=42) != random_circuit(6, seed=43)

    def test_odd_qubit_idles(self):
        c = random_circuit(5, n_layers=1, seed=1)
        touched = {q for g in c.gates for q in g.qubits}
        assert len(touched) == 4

    def test_layer_count_bounds(self):
        c = random_circuit(6, n_layers=20, seed=9)
        depth = len(layers(c))
        assert 20 * 4 <= depth <= 20 * 7

    def test_angles_are_python_floats(self):
        c = random_circuit(16, 60, seed=0)
        assert {type(p) for g in c.gates for p in g.params} == {float}

    def test_operands_and_cnots_are_shared(self):
        c = random_circuit(4, n_layers=2, seed=0)
        assert len({id(g.qubits) for g in c.gates if len(g.qubits) == 1}) == 4
        cnots = [g for g in c.gates if g.name == "cx"]
        assert len(cnots) == 12 and len({id(g) for g in cnots}) == 4

    def test_too_few_qubits(self):
        with pytest.raises(ValueError):
            random_circuit(1)

    @pytest.mark.parametrize("args,message", [
        ((4, -1), "n_layers must be non-negative"),
        ((4, 2.5), "n_layers 2.5 is not an integer"),
        ((4, "3"), "n_layers '3' is not an integer"),
        ((-1, 3), "n_qubits must be non-negative"),
        ((4.0, 3), r"n_qubits 4\.0 is not an integer"),
    ])
    def test_counts_must_be_non_negative_integers(self, args, message):
        with pytest.raises(ValueError, match=message):
            random_circuit(*args)

    def test_counts_accept_numpy_integers(self):
        assert random_circuit(np.int64(4), np.int32(2), seed=0) == random_circuit(4, 2, seed=0)
        assert random_circuit(4, 0).gates == []
