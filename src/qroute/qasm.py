"""Minimal QASM-subset I/O.

Grammar: a ``qreg q[N];`` header, then statements ``u(f,f,f) q[i];``,
``h q[i];``, ``x q[i];``, ``rz(f) q[i];``, ``cx q[i],q[j];``,
``swap q[i],q[j];``.  ``//`` comments are ignored; whitespace is free-form.
Emitted circuits can carry initial/final qubit-to-vertex mapping comments,
which :func:`parse_qasm` returns when present.
"""
from __future__ import annotations

import re

from .circuit import Circuit, Gate

_QREG = re.compile(r"qreg\s+q\s*\[\s*(\d+)\s*\]")
_STMT = re.compile(r"^(?P<name>[a-zA-Z]+)\s*(?:\((?P<params>[^)]*)\))?\s*(?P<args>[^;]*)$")
_ARG = re.compile(r"q\s*\[\s*(\d+)\s*\]")
_MAPPING = re.compile(r"//\s*(initial|final):\s*(\S+)\s*->\s*v\[(\d+)\]")

_GATE_ARITY = {"u": (3, 1), "h": (0, 1), "x": (0, 1), "rz": (1, 1),
               "cx": (0, 2), "swap": (0, 2)}


class QasmError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def parse_qasm(text: str) -> tuple[Circuit, dict[str, int] | None, dict[str, int] | None]:
    """Parse the subset; returns (circuit, initial_map, final_map).

    The mappings are None unless the text carries ``// initial:`` /
    ``// final:`` comment lines.
    """
    initial: dict[str, int] = {}
    final: dict[str, int] = {}
    circuit: Circuit | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _MAPPING.search(raw)
        if m:
            (initial if m.group(1) == "initial" else final)[m.group(2)] = int(m.group(3))
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        for stmt in filter(None, (s.strip() for s in line.split(";"))):
            if stmt.startswith("qreg"):
                qm = _QREG.fullmatch(stmt)
                if not qm:
                    raise QasmError(lineno, f"bad qreg statement {stmt!r}")
                if circuit is not None:
                    raise QasmError(lineno, "duplicate qreg")
                circuit = Circuit([f"q[{i}]" for i in range(int(qm.group(1)))])
                continue
            if circuit is None:
                raise QasmError(lineno, "statement before qreg header")
            sm = _STMT.match(stmt)
            if not sm:
                raise QasmError(lineno, f"cannot parse {stmt!r}")
            name = sm.group("name").lower()
            if name not in _GATE_ARITY:
                raise QasmError(lineno, f"unknown gate {name!r}")
            n_params, n_args = _GATE_ARITY[name]
            raw_params = sm.group("params")
            try:
                params = tuple(float(p) for p in raw_params.split(",")) if raw_params else ()
            except ValueError:
                raise QasmError(lineno, f"bad parameters {raw_params!r}") from None
            if len(params) != n_params:
                raise QasmError(lineno, f"{name} expects {n_params} parameters")
            args = [_ARG.fullmatch(a.strip()) for a in sm.group("args").split(",")]
            if not all(args):
                raise QasmError(lineno, f"bad qubit arguments {sm.group('args')!r}")
            if len(args) != n_args:
                raise QasmError(lineno, f"{name} expects {n_args} qubit arguments")
            qubits = tuple(int(a.group(1)) for a in args)
            for q in qubits:
                if q >= circuit.n_qubits:
                    raise QasmError(lineno, f"qubit index {q} out of range")
            if n_args == 2 and qubits[0] == qubits[1]:
                raise QasmError(lineno, f"{name} operands must differ")
            circuit.append(Gate(name, qubits, params))
    if circuit is None:
        raise QasmError(0, "missing qreg header")
    return circuit, (initial or None), (final or None)


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_qasm(circuit: Circuit, initial_map: dict[str, int] | None = None,
              final_map: dict[str, int] | None = None) -> str:
    """Emit the subset; optionally record qubit-to-vertex mappings as
    comments (initial before the header, final at the end)."""
    lines: list[str] = []
    for q, v in (initial_map or {}).items():
        lines.append(f"// initial: {q} -> v[{v}]")
    lines.append(f"qreg q[{circuit.n_qubits}];")
    for g in circuit.gates:
        params = f"({','.join(_fmt(p) for p in g.params)})" if g.params else ""
        args = ",".join(f"q[{q}]" for q in g.qubits)
        lines.append(f"{g.name}{params} {args};")
    for q, v in (final_map or {}).items():
        lines.append(f"// final: {q} -> v[{v}]")
    return "\n".join(lines) + "\n"
