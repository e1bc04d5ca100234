"""Tests of the benchmark itself, on toy-sized versions of its workloads."""
import dataclasses

import pytest

import checks
import frontend
import record_invariants
import run

TOY = {
    "deep16": frontend.Workload("deep16-toy", "grid:2x3", 4, 3),
    "grid1024": frontend.Workload("grid1024-toy", "grid:4x4", 8, 2),
    "modular256": frontend.Workload("modular256-toy", "modular:3x3", 6, 2),
}


def toy_device(spec):
    frontend.use_source_tree()
    return frontend.device_setup(spec, frontend.NoTracer())


def toy_run(w, seed, trace, recorded=None):
    if recorded is None:
        recorded = record_invariants.record_rows(w, range(frontend.POOL))
    return run.measure(w, seed=seed, seconds=0, trace=trace, recorded=recorded)


def toy_compile(w):
    dev = toy_device(w.spec)
    _, source, text = frontend.make_inputs(w, 0)[0]
    return frontend.compile_once(text, dev, frontend.NoTracer()), source, dev


def test_toys_cover_every_workload_kind():
    assert TOY.keys() == frontend.WORKLOADS.keys()
    for name, toy in TOY.items():
        assert toy.spec.split(":")[0] == frontend.WORKLOADS[name].spec.split(":")[0]


@pytest.mark.parametrize("name", sorted(TOY))
def test_traced_smoke_run_passes_every_check(name):
    out = toy_run(TOY[name], seed=3, trace=True)
    assert out["correct"], out["failures"]
    assert out["attempted"] == frontend.N_INPUTS and out["failed"] == 0
    m = out["metrics"]
    assert m["matching.calls"] >= 1 and m["circuit.layers"] >= 1
    assert 0 < m["trace.overhead_frac"] < 1
    assert m["perm.tokens"] == 2 * m["matching.size_mean"] * m["matching.calls"]
    assert all(inv is not None for inv in out["invariants"])


def test_untraced_smoke_run_reports_end_to_end_metrics():
    out = toy_run(TOY["modular256"], seed=0, trace=False)
    assert out["correct"], out["failures"]
    assert out["samples"] == frontend.N_INPUTS
    assert all(v > 0 for v in out["metrics"].values())


def test_same_seed_gives_identical_invariants():
    a = toy_run(TOY["grid1024"], seed=5, trace=True)["invariants"]
    b = toy_run(TOY["grid1024"], seed=5, trace=True)["invariants"]
    assert a == b


def test_input_without_recorded_invariants_fails():
    out = toy_run(TOY["deep16"], seed=1, trace=False, recorded=[])
    assert not out["correct"] and out["failed"] == out["attempted"]
    assert "no invariants are recorded" in out["failures"][0]


def test_another_optimal_placement_changes_the_digest():
    res, source, dev = toy_compile(TOY["modular256"])
    before = res.invariants()
    p = next(p for p in res.placements if len(p.matching) > 1)
    p.matching = [(i, j) for i, j in reversed(p.matching)]
    after = res.invariants()
    assert after[:-1] == before[:-1] and after[-1] != before[-1]
    with pytest.raises(checks.CheckError, match="differ from recorded"):
        checks.check_invariants(after, before)


def test_device_check_rejects_a_wrong_distance():
    dev = toy_device("modular:3x3")
    checks.check_device(dev)
    bad = dev.dist.copy()
    bad[0, 4] = bad[4, 0] = 3
    with pytest.raises(checks.CheckError, match="closed form"):
        checks.check_device(dataclasses.replace(dev, dist=bad))


def test_compile_check_rejects_a_suboptimal_placement():
    res, source, dev = toy_compile(TOY["grid1024"])
    checks.check_compile(res, source, dev)
    res.placements[0].cost += 1
    with pytest.raises(checks.CheckError, match="optimum"):
        checks.check_compile(res, source, dev)


def test_compile_check_rejects_a_gate_outside_its_asap_layer():
    from qroute import circuit, qasm
    source = circuit.Circuit([f"q[{i}]" for i in range(3)], [
        circuit.Gate("h", (0,)), circuit.Gate("h", (1,)), circuit.Gate("cx", (1, 2))])
    dev = toy_device("grid:2x3")
    res = frontend.compile_once(qasm.emit_qasm(source), dev, frontend.NoTracer())
    checks.check_compile(res, source, dev)
    # Gate 0 may also run in the second layer: a valid schedule, but not ASAP.
    res.layers[0].gates.remove(0)
    res.layers[1].gates.append(0)
    with pytest.raises(checks.CheckError, match="ASAP"):
        checks.check_compile(res, source, dev)


def test_recorded_invariants_cover_every_pool_input():
    table = run.load_invariants()
    assert table.pop("fields") == list(frontend.INVARIANTS)
    assert table.keys() == frontend.WORKLOADS.keys()
    for rows in table.values():
        assert len(rows) == frontend.POOL
        assert all(len(row) == len(frontend.INVARIANTS) for row in rows)


def test_missing_sources_are_refused(monkeypatch, tmp_path):
    monkeypatch.setattr(frontend, "SRC", tmp_path)
    with pytest.raises(SystemExit):
        frontend.use_source_tree()
