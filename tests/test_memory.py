"""Memory a built circuit retains, measured with tracemalloc.

The bounds are per gate, for the 5,280-gate ``random_circuit(16, 60)``.  A
circuit that gives every gate its own operand tuple, its own parameterless
``Gate`` and numpy scalar angles retains about 230 B per gate when generated
and 281 B per gate when parsed; sharing brings these to about 172 and 206 B.
"""
import gc
import tracemalloc

import pytest

from qroute.circuit import random_circuit
from qroute.qasm import emit_qasm, parse_qasm


def retained_bytes(build):
    """What ``build()`` returns, and the bytes still allocated while it is held."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        gc.collect()
        return built, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def deep16_text():
    # Generating once first also leaves no first-call allocation to the measured calls.
    return emit_qasm(random_circuit(16, 60, seed=0))


def test_parsed_circuit_retains_at_most_240_bytes_per_gate(deep16_text):
    (circuit, _, _), size = retained_bytes(lambda: parse_qasm(deep16_text))
    assert len(circuit) == 5280
    assert size / len(circuit) <= 240


def test_generated_circuit_retains_at_most_200_bytes_per_gate(deep16_text):
    circuit, size = retained_bytes(lambda: random_circuit(16, 60, seed=0))
    assert len(circuit) == 5280
    assert size / len(circuit) <= 200
