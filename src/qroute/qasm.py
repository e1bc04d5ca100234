"""Minimal QASM-subset I/O.

Grammar: a ``qreg q[N];`` header, then statements ``u(f,f,f) q[i];``,
``h q[i];``, ``x q[i];``, ``rz(f) q[i];``, ``cx q[i],q[j];``,
``swap q[i],q[j];``.  ``//`` comments are ignored; whitespace is free-form.
The OpenQASM 2 lines ``OPENQASM 2.0;`` and ``include "qelib1.inc";`` are
skipped wherever they stand; ``creg``, ``measure``, ``barrier`` and ``reset``
are rejected as unsupported statements.
The register holds at most ``MAX_QUBITS`` qubits, and gate parameters must be
finite (``nan``, ``inf`` and literals that overflow to infinity are rejected).
Emitted circuits can carry initial/final qubit-to-vertex mapping comments,
which :func:`parse_qasm` returns when present.
Malformed input raises a :class:`QasmError` naming its line.  A statement of
the gate form above that fails a check is named by its first failed check; any
other statement by its leading word, or else as ``cannot parse '<stmt>'``.
"""
from __future__ import annotations

import math
import re
from collections.abc import Callable
from string import ascii_letters
from typing import NoReturn

from .circuit import GATE_ARITY, Circuit, Gate
from .perm import read_count

# The register size is checked before any per-qubit list is built.
MAX_QUBITS = 1 << 16

_QREG = re.compile(r"qreg\s+q\s*\[\s*(\d+)\s*\]")
# The OpenQASM 2 version and include statements, which are skipped.
_HEADER = re.compile(r'OPENQASM\s+2\.0|include\s+"qelib1\.inc"')
# One gate statement, optionally closed by its ';': the name, the parameter
# text and one or two qubit indices.  The name is the whole run of letters, so
# ``hq[0]`` cannot split into ``h q[0]`` (a possessive ``++`` would need
# Python 3.11).  Nothing but the closing ';' can match a ';', so a line it
# accepts holds exactly this statement.  Names starting with ``qreg`` are the
# header's.
_GATE = re.compile(r"\s*(?!qreg)([a-zA-Z]+)(?![a-zA-Z])\s*(?:\(([^);]*)\))?"
                   r"\s*q\s*\[\s*(\d+)\s*\]\s*(?:,\s*q\s*\[\s*(\d+)\s*\]\s*)?;?\s*")
_MAPPING = re.compile(r"//\s*(initial|final):\s*(\S+)\s*->\s*v\[(\d+)\]")

# OpenQASM 2 statements outside the subset, named as such when they appear.
_UNSUPPORTED = frozenset({"creg", "measure", "barrier", "reset"})


class QasmError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def parse_qasm(text: str) -> tuple[Circuit, dict[str, int] | None, dict[str, int] | None]:
    """Parse the subset; returns (circuit, initial_map, final_map).

    The mappings are None unless the text carries ``// initial:`` /
    ``// final:`` comment lines.  The circuit holds one ``qubits`` tuple per
    distinct operand list and one ``Gate`` per distinct parameterless gate.
    A gate line whose code part repeats an earlier parameterless gate line
    appends that line's ``Gate`` without matching or checking it again, and
    the index digits of a one-operand statement seen before give their tuple
    without converting or range-checking them.
    """
    # Tables that live for this call only (a rejected line ends it).
    # ``share`` maps each operand tuple and parameterless gate to its first
    # instance; ``singles`` maps the index digits of each one-operand list
    # to its tuple; ``known`` maps the code part of each parameterless gate
    # line to its Gate.  Two-operand gates have no parameters, so a repeated
    # two-operand line is found in ``known``: digits are looked up only for
    # one-operand lists, whose lines with parameters never repeat whole.
    share = {}.setdefault
    singles: dict[str, tuple[int]] = {}
    known: dict[str, Gate] = {}
    initial: dict[str, int] = {}
    final: dict[str, int] = {}
    circuit: Circuit | None = None
    # Bound once the qreg header is read; both are None until then.
    append = None
    n_qubits: int | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "//" in line:
            m = _MAPPING.search(line)
            if m:
                vertex = _index(m.group(3), lineno, "vertex")
                (initial if m.group(1) == "initial" else final)[m.group(2)] = vertex
            line = line.split("//", 1)[0]
        if (g := known.get(line)) is not None:
            append(g)
            continue
        # The usual line holds one gate statement and needs no ';' split.
        if append is not None and (m := _GATE.fullmatch(line)):
            g = _gate(m, lineno, n_qubits, singles, share)
            if not g.params:
                known[line] = g
            append(g)
            continue
        for stmt in filter(None, (s.strip() for s in line.split(";"))):
            if stmt.startswith("qreg"):
                size = _qreg_size(stmt, lineno)
                if circuit is not None:
                    raise QasmError(lineno, "duplicate qreg")
                circuit = Circuit([f"q[{i}]" for i in range(size)])
                append, n_qubits = circuit.gates.append, size
                continue
            if _HEADER.fullmatch(stmt):
                continue
            if append is None or (m := _GATE.fullmatch(stmt)) is None:
                _reject(stmt, lineno, n_qubits)
            append(_gate(m, lineno, n_qubits, singles, share))
    if circuit is None:
        raise QasmError(0, "missing qreg header")
    return circuit, (initial or None), (final or None)


def _qreg_size(stmt: str, lineno: int) -> int:
    qm = _QREG.fullmatch(stmt)
    if not qm:
        raise QasmError(lineno, f"bad qreg statement {stmt!r}")
    try:
        size = int(qm.group(1))
    except ValueError:  # more digits than int() converts
        size = MAX_QUBITS + 1
    if size > MAX_QUBITS:
        raise QasmError(lineno, f"qreg size exceeds {MAX_QUBITS} qubits")
    return size


def _gate(m: re.Match, lineno: int, n_qubits: int, singles: dict[str, tuple[int]],
          share: Callable[[tuple, tuple], tuple]) -> Gate:
    """The gate a _GATE match denotes, or the QasmError of its first failed check.

    The checks run in this order: name, parameters, finite parameters,
    parameter count, index length, qubit count, range, distinct operands.
    ``singles`` maps the index digits of each one-operand list seen so far
    to its tuple, which has passed the range check, and ``share`` is the
    ``setdefault`` of the caller's table: it returns the first instance of an
    equal operand tuple or parameterless gate.
    """
    name, raw_params, a, b = m.groups()
    name = name.lower()
    if (arity := GATE_ARITY.get(name)) is None:
        _reject(name, lineno, n_qubits)
    n_params, n_args = arity
    params = ()
    if raw_params:
        try:
            params = tuple(map(float, raw_params.split(",")))
        except ValueError:
            raise QasmError(lineno, f"bad parameters {raw_params!r}") from None
        if not all(map(math.isfinite, params)):
            raise QasmError(lineno, f"parameters {raw_params!r} are not finite")
    if len(params) != n_params:
        raise QasmError(lineno, f"{name} expects {n_params} parameters")
    fresh = b is not None or (qubits := singles.get(a)) is None
    if fresh:
        qubits = ((_index(a, lineno, "qubit"),) if b is None
                  else (_index(a, lineno, "qubit"), _index(b, lineno, "qubit")))
    if len(qubits) != n_args:
        raise QasmError(lineno, f"{name} expects {n_args} qubit arguments")
    if fresh:
        for q in qubits:
            if q >= n_qubits:
                raise QasmError(lineno, f"qubit index {q} out of range")
        if b is not None and qubits[0] == qubits[1]:
            raise QasmError(lineno, f"{name} operands must differ")
        qubits = share(qubits, qubits)
        if b is None:
            singles[a] = qubits
    # The checks above include Gate's own, so the tuple is built without them.
    g = tuple.__new__(Gate, (name, qubits, params))
    return g if params else share(g, g)


def _reject(stmt: str, lineno: int, n_qubits: int | None) -> NoReturn:
    """Raise the QasmError that names a statement by its leading word.

    ``stmt`` is a statement _GATE cannot match, or the name of a match that
    is not a gate.  ``n_qubits`` is None before the qreg header.
    """
    name = stmt[:len(stmt) - len(stmt.lstrip(ascii_letters))].lower()
    if name in _UNSUPPORTED:
        raise QasmError(lineno, f"unsupported statement {name!r}")
    if n_qubits is None:
        raise QasmError(lineno, "statement before qreg header")
    if name and name not in GATE_ARITY:
        raise QasmError(lineno, f"unknown gate {name!r}")
    raise QasmError(lineno, f"cannot parse {stmt!r}")


def _index(digits: str, lineno: int, what: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise QasmError(lineno, f"{what} index of {len(digits)} digits is too long") from None


def emit_qasm(circuit: Circuit, initial_map: dict[str, int] | None = None,
              final_map: dict[str, int] | None = None) -> str:
    """Emit the subset; optionally record qubit-to-vertex mappings as
    comments (initial before the header, final at the end).  Qubit i is
    always written ``q[i]``, whatever ``circuit.qubits`` holds, so custom
    qubit names do not survive a round trip.  A map's vertices are read by
    :func:`~qroute.perm.read_count`, and a qubit name that is empty or holds
    whitespace, which :func:`parse_qasm` cannot read back, raises ValueError."""
    lines = _mapping_lines("initial", initial_map)
    lines.append(f"qreg q[{circuit.n_qubits}];")
    names = [f"q[{i}]" for i in range(circuit.n_qubits)]
    for name, qs, params in circuit.gates:
        args = names[qs[0]] if len(qs) == 1 else f"{names[qs[0]]},{names[qs[1]]}"
        if not params:
            lines.append(f"{name} {args};")
        elif len(params) == 3:
            p0, p1, p2 = params
            lines.append(f"{name}({float(p0)!r},{float(p1)!r},{float(p2)!r}) {args};")
        else:
            lines.append(f"{name}({','.join(map(repr, map(float, params)))}) {args};")
    lines += _mapping_lines("final", final_map)
    return "\n".join(lines) + "\n"


def _mapping_lines(kind: str, mapping: dict[str, int] | None) -> list[str]:
    """The ``// initial:`` or ``// final:`` lines of a qubit-to-vertex map, each
    vertex written as the int that read_count returns for it."""
    lines = []
    for q, v in (mapping or {}).items():
        if str(q).split() != [str(q)]:
            raise ValueError(f"{kind} map qubit name {str(q)!r} is empty or holds whitespace")
        lines.append(f"// {kind}: {q} -> v[{read_count(v, f'{kind} vertex of {q!r}')}]")
    return lines
