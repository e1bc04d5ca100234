"""QASM subset round-tripping and error reporting."""
import copy
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qroute.circuit import Circuit, Gate, random_circuit
from qroute.qasm import MAX_QUBITS, QasmError, emit_qasm, parse_qasm

from oracles import reference_emit_qasm, reference_parse_qasm
from test_circuit import circuits


class TestParse:
    def test_minimal(self):
        c, ini, fin = parse_qasm("qreg q[2]; cx q[0],q[1];")
        assert c.n_qubits == 2
        assert c.gates == [Gate("cx", (0, 1))]
        assert ini is None and fin is None

    def test_whitespace_and_comments(self):
        text = """
        // a comment
        qreg q[ 3 ];
          u( 0.5 , 1.0, 1.5 )  q[0] ;   // trailing
        rz(2.5) q[2];
        swap q[1] , q[2];
        """
        c, _, _ = parse_qasm(text)
        assert [g.name for g in c.gates] == ["u", "rz", "swap"]
        assert c.gates[0].params == (0.5, 1.0, 1.5)

    def test_unknown_gate_reports_line(self):
        with pytest.raises(QasmError) as exc:
            parse_qasm("qreg q[2];\nccx q[0],q[1];")
        assert exc.value.lineno == 2

    def test_out_of_range_qubit(self):
        with pytest.raises(QasmError):
            parse_qasm("qreg q[2]; cx q[0],q[5];")

    def test_duplicate_operand(self):
        with pytest.raises(QasmError):
            parse_qasm("qreg q[2]; cx q[0],q[0];")

    def test_duplicate_qreg(self):
        with pytest.raises(QasmError, match="line 3: duplicate qreg"):
            parse_qasm("qreg q[2];\nh q[0];\nqreg q[2];")

    def test_missing_header(self):
        with pytest.raises(QasmError):
            parse_qasm("cx q[0],q[1];")

    @pytest.mark.parametrize("stmt", ["h q[2];", "rz(abc) q[0];", "u(1,2,) q[0];",
                                      "h q[0]garbage;", "cx q[0] q[1];",
                                      "hq[0];", "rz(nan) q[0];", "rz(inf) q[0];",
                                      "u(1e999,0,0) q[0];", "qreg q[99999999999];",
                                      pytest.param(f"cx q[0],q[{'9' * 5000}];",
                                                   id="qubit index too long for int()"),
                                      pytest.param(f"// initial: q[0] -> v[{'9' * 5000}]",
                                                   id="vertex index too long for int()")])
    def test_malformed_statement_reports_line(self, stmt):
        with pytest.raises(QasmError) as exc:
            parse_qasm(f"qreg q[2];\nh q[1];\n{stmt}")
        assert exc.value.lineno == 3

    def test_register_cap(self):
        assert parse_qasm(f"qreg q[{MAX_QUBITS}];")[0].n_qubits == MAX_QUBITS
        for size in (str(MAX_QUBITS + 1), "9" * 5000):  # the latter is too long for int()
            with pytest.raises(QasmError, match="line 2: qreg size exceeds"):
                parse_qasm(f"// header\nqreg q[{size}];")

    def test_openqasm2_header_lines_are_skipped(self):
        text = ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
                'cx q[0],q[1]; include  "qelib1.inc";')
        assert parse_qasm(text)[0].gates == [Gate("cx", (0, 1))]

    @pytest.mark.parametrize("stmt", ["creg c[2];", "measure q[0] -> c[0];",
                                      "barrier q[0],q[1];", "reset q[0];", "h q[0]; reset q[1];"])
    def test_unsupported_statement_reports_line(self, stmt):
        with pytest.raises(QasmError, match=r"line 3: unsupported statement"):
            parse_qasm(f"qreg q[2];\nh q[1];\n{stmt}")

    def test_unsupported_statement_before_header(self):
        with pytest.raises(QasmError, match=r"line 2: unsupported statement 'creg'"):
            parse_qasm("OPENQASM 2.0;\ncreg c[2];\nqreg q[2];")

    def test_junk_after_qreg(self):
        with pytest.raises(QasmError):
            parse_qasm("qreg q[2] junk;")

    def test_mapping_comments(self):
        text = ("// initial: q[0] -> v[2]\n"
                "qreg q[3];\nh q[0];\n"
                "// final: q[0] -> v[1]\n")
        _, ini, fin = parse_qasm(text)
        assert ini == {"q[0]": 2} and fin == {"q[0]": 1}

    def test_mapping_vertex_too_long_for_int(self):
        text = f"qreg q[3];\nh q[0];\n// final: q[0] -> v[{'9' * 5000}]\n"
        with pytest.raises(QasmError, match="line 3: vertex index of 5000 digits"):
            parse_qasm(text)


class TestRoundTrip:
    def test_random_circuits(self):
        for seed in range(5):
            c = random_circuit(5, n_layers=3, seed=seed)
            again, _, _ = parse_qasm(emit_qasm(c))
            assert again == c

    @given(circuits())
    def test_generated_circuits(self, c):
        again, _, _ = parse_qasm(emit_qasm(c))
        assert again == c

    def test_mappings_survive(self):
        c = Circuit(["q[0]", "q[1]"], [Gate("cx", (0, 1))])
        ini = {"q[0]": 1, "q[1]": 0}
        fin = {"q[0]": 0, "q[1]": 1}
        text = emit_qasm(c, ini, fin)
        c2, ini2, fin2 = parse_qasm(text)
        assert c2 == c and ini2 == ini and fin2 == fin

    def test_mapping_entries_round_trip_or_are_refused(self):
        c = Circuit(["a", "b"], [Gate("cx", (0, 1))])
        ini = {"a": True, "b": np.int64(3), "q[0]->v": 2**70}
        fin = {"a": 0, "x//y": 5}
        _, ini2, fin2 = parse_qasm(emit_qasm(c, ini, fin))
        assert ini2 == {"a": 1, "b": 3, "q[0]->v": 2**70} and fin2 == fin
        for bad, message in [({"a": -1}, "final vertex of 'a' must be non-negative"),
                             ({"a": 1.5}, "final vertex of 'a' 1.5 is not an integer"),
                             ({"a": "2"}, "final vertex of 'a' '2' is not an integer"),
                             ({"q 0": 0}, "final map qubit name 'q 0' is empty or holds"),
                             ({"": 0}, "final map qubit name '' is empty or holds"),
                             ({"a\n": 0}, "final map qubit name 'a\\n' is empty or holds")]:
            with pytest.raises(ValueError, match=re.escape(message)):
                emit_qasm(c, None, bad)


class TestSharing:
    """Equal operand tuples and parameterless gates are one object per parse."""

    def test_repeated_parameterless_gate_is_one_object(self):
        c, _, _ = parse_qasm("qreg q[3];\ncx q[0],q[1];\nh q[2];\ncx q[0], q[1];\nCX q[0],q[1];")
        a, _, b, d = c.gates
        assert a is b is d and a == Gate("cx", (0, 1))
        assert c.gates[1] is not a

    def test_gates_on_one_qubit_share_the_operand_tuple(self):
        c, _, _ = parse_qasm("qreg q[2];\nh q[0];\nu(0.5,1,1.5) q[0];\nrz(2) q[0];\nh q[1];")
        h, u, rz, h1 = c.gates
        assert h.qubits is u.qubits is rz.qubits and h.qubits == (0,)
        assert h1.qubits == (1,) and h1 is not h

    def test_gates_with_parameters_stay_distinct(self):
        c, _, _ = parse_qasm("qreg q[1];\nrz(0.5) q[0];\nrz(0.5) q[0];")
        a, b = c.gates
        assert a == b and a is not b and a.qubits is b.qubits

    def test_each_parse_has_its_own_table(self):
        text = "qreg q[2];\ncx q[0],q[1];"
        first, second = parse_qasm(text)[0].gates[0], parse_qasm(text)[0].gates[0]
        assert first == second and first is not second and first.qubits is not second.qubits

    @pytest.mark.parametrize("stmt,message", [
        ("cx q[0],q[5];", "line 4: qubit index 5 out of range"),
        ("cx q[1],q[1];", "line 4: cx operands must differ"),
        ("cx(0.5) q[0],q[1];", "line 4: cx expects 0 parameters"),
        ("h q[0],q[1];", "line 4: h expects 1 qubit arguments"),
        ("rz(nan) q[0];", "line 4: parameters 'nan' are not finite"),
        ("ccx q[0],q[1];", "line 4: unknown gate 'ccx'"),
        ("rz(abc) q[0];", "line 4: bad parameters 'abc'"),
        ("rz q[0];", "line 4: rz expects 1 parameters"),
        ("reset q[0];", "line 4: unsupported statement 'reset'"),
        pytest.param(f"h q[{'9' * 5000}];", "line 4: qubit index of 5000 digits is too long",
                     id="qubit index too long for int()"),
        ("h q[0]garbage;", "line 4: cannot parse 'h q[0]garbage'"),
        ("cx q[0];", "line 4: cx expects 2 qubit arguments"),
    ])
    def test_rejects_after_shared_gates_as_before(self, stmt, message):
        text = f"qreg q[2];\ncx q[0],q[1];\nh q[0];\n{stmt}\ncx q[0],q[1];"
        with pytest.raises(QasmError, match=re.escape(message)) as exc:
            parse_qasm(text)
        assert exc.value.lineno == 4

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda c: pickle.loads(pickle.dumps(c))])
    def test_circuit_with_shared_gates_round_trips(self, clone):
        c, _, _ = parse_qasm(emit_qasm(random_circuit(6, n_layers=3, seed=2)))
        again = clone(c)
        assert again == c and all(type(g) is Gate for g in again.gates)
        assert emit_qasm(again) == emit_qasm(c)

    def test_generated_and_parsed_gates_print_alike(self):
        c = random_circuit(16, 60, seed=0)
        parsed, _, _ = parse_qasm(emit_qasm(c))
        assert parsed == c
        assert [repr(g) for g in c.gates] == [repr(g) for g in parsed.gates]



class TestRepeatedLines:
    """A repeated parameterless gate line gives its first Gate without a new
    match, and repeated one-operand digits give their first tuple.  Variants
    of a line and lines with parameters are covered in TestSharing."""

    def test_copies_of_one_line_are_one_gate(self):
        c, _, _ = parse_qasm("qreg q[3];\n" + "cx q[0],q[2];\n" * 50)
        assert len(c.gates) == 50 and c.gates[0] == Gate("cx", (0, 2))
        assert all(g is c.gates[0] for g in c.gates)

    def test_repeated_line_still_records_its_mapping(self):
        text = ("qreg q[2];\ncx q[0],q[1]; // initial: q[0] -> v[3]\n"
                "cx q[0],q[1]; // initial: q[1] -> v[4]\n"
                "cx q[0],q[1]; // final: q[0] -> v[5]\n")
        c, ini, fin = parse_qasm(text)
        assert len(c.gates) == 3 and c.gates[0] is c.gates[1] is c.gates[2]
        assert ini == {"q[0]": 3, "q[1]": 4} and fin == {"q[0]": 5}

    def test_bad_line_after_repeats_names_its_own_line(self):
        text = "qreg q[3];\n" + "cx q[0],q[2];\n" * 3 + "cx q[0],q[3];\ncx q[0],q[2];\n"
        with pytest.raises(QasmError, match=re.escape("line 5: qubit index 3 out of range")):
            parse_qasm(text)

    def test_digit_variants_share_one_tuple(self):
        c, _, _ = parse_qasm("qreg q[3];\nu(1,2,3) q[1];\nrz(1) q[01];\nrz(1) q[1];\n"
                             "cx q[1],q[2];\nswap q[001],q[2];")
        u, rz, rz1, cx, swap = c.gates
        assert u.qubits is rz.qubits is rz1.qubits and u.qubits == (1,)
        assert cx.qubits is swap.qubits and cx.qubits == (1, 2)


_TOKENS = ["qreg q[3];", "qreg", "qreg q[", "]", "99999999999", "q[0]", "q[1]",
           "q[5]", "h", "x", "rz", "u", "cx", "swap", "ccx", "(", ")", ",", ";",
           " ", "\t", "\n", "//", "0.5", "-2", "1e3", "1e999", "nan", "inf", "abc",
           "garbage", "\u0663", "\u00e9",
           "// initial: q[0] -> v[2]", "// final: q[1] -> v[0]",
           "OPENQASM 2.0;", 'include "qelib1.inc";', "OPENQASM", "2.0", "include",
           '"qelib1.inc"', "creg c[2];", "creg", "measure", "barrier", "reset", "->", "c[0]"]
_FUZZ_TEXT = st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join)


@settings(max_examples=400)
@given(_FUZZ_TEXT)
@example("qreg q[3];rz(abc) q[0];")
@example("qreg q[3];u(1,2,) q[0];")
def test_parse_raises_only_qasm_error(text):
    try:
        parse_qasm(text)
    except QasmError:
        pass


_QREG_SIZE = re.compile(r"qreg\s+q\s*\[\s*(\d+)")


def _outcome(parse, text):
    """(result, error line): line inf when parse accepts the text."""
    try:
        return parse(text), math.inf
    except QasmError as e:
        return None, e.lineno


@settings(max_examples=400)
@given(_FUZZ_TEXT)
@example("qreg q[3];\nrz(nan) q[0];\nccx q[0];")
@example("qreg q[3];u(1e999,0,0) q[1];")
@example("qreg q[3]; H q[0]; CX q[0] , q[ 2 ] ;;")
@example('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nh q[0];')
@example("qreg q[3];\nh q[0];\nmeasure q[0] -> c[0];")
@example("creg c[2];\nqreg q[3];")
def test_parse_matches_reference(text):
    """The library rejects what the reference rejects, on the same line, and
    parses what it accepts into the same result, except that it also rejects
    non-finite parameters and registers over MAX_QUBITS."""
    got, line = _outcome(parse_qasm, text)
    if any(int(size) > MAX_QUBITS for size in _QREG_SIZE.findall(text)):
        # The reference would build the whole register; check the cap alone.
        assert got is None or got[0].n_qubits <= MAX_QUBITS
        return
    expected, ref_line = _outcome(reference_parse_qasm, text)
    assert line <= ref_line
    if line == math.inf:
        assert got == expected
    elif line < ref_line:
        # Only the finite-parameter rule, which the reference lacks, can fire
        # first: the reference accepts the text up to that line, with a
        # non-finite parameter in it.
        prefix, _, _ = reference_parse_qasm("\n".join(text.splitlines()[:line]))
        assert not all(math.isfinite(p) for g in prefix.gates for p in g.params)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(0, 4), st.integers(0, 2**32 - 1),
       st.sampled_from([np.float64, float, int, bool, np.float32, np.int64]))
@example(5, 2, 1, int)
@example(5, 2, 1, bool)
@example(5, 2, 1, np.float32)
@example(5, 2, 1, np.int64)
def test_emit_and_parse_match_reference(n, n_layers, seed, param_type):
    c = random_circuit(n, n_layers, seed=seed)  # float parameters, then retyped
    c.gates = [Gate(g.name, g.qubits, tuple(map(param_type, g.params))) for g in c.gates]
    ini = {f"q[{i}]": (i * 7) % n for i in range(n)}
    text = emit_qasm(c, ini, None)
    assert text == reference_emit_qasm(c, ini, None)
    parsed = parse_qasm(text)
    assert parsed == reference_parse_qasm(text) == (c, ini, None)
    assert emit_qasm(parsed[0]) == reference_emit_qasm(parsed[0])
