"""Self-tests of the benchmark: tail rule, oracles, seeding, patch hygiene.

Run with `python3 -m pytest perfbench -q` from the root of a checkout.
"""
import json
import shutil

import numpy as np
import pytest

from perfbench import run

run.use_checkout()

import ripplesim  # noqa: E402
import ripplesim.sim  # noqa: E402
from ripplesim import cli, solve_load_voltages, solve_network  # noqa: E402
from synth import random_grid, random_water_network  # noqa: E402

from perfbench import oracles, stats, tracing, workloads  # noqa: E402


def test_tail_takes_highest_percentile_with_ten_beyond():
    assert stats.tail(range(1, 201), cap=95) == (190, 95.0, 10)
    # one sample short of p95's ten: falls back to p90 and says so
    assert stats.tail(range(1, 200), cap=95) == (180, 90.0, 19)
    # the cap keeps the percentile fixed when more samples arrive
    assert stats.tail(range(1, 1001), cap=95)[1] == 95.0
    assert stats.tail(range(1, 1001))[1] == 99.0
    assert stats.tail([3, 1, 2]) == (3, 100.0, 0)


def test_hd_median_is_a_symmetric_weighted_median():
    assert stats.hd_median([7.0]) == 7.0
    assert stats.hd_median([1.0, 2.0]) == pytest.approx(1.5)
    assert stats.hd_median(range(1, 102)) == pytest.approx(51.0)
    # a far outlier barely moves it
    assert stats.hd_median(list(range(1, 101)) + [1e6]) == pytest.approx(
        51.0, abs=0.01)


def test_same_seed_same_instances_other_seed_other_instances():
    def corpus_key(seed):
        return [(s.plant.sensitivity.tobytes(), s.u0.tobytes(),
                 s.comm_graph.edges)
                for s in workloads.Corpus(seed, None).instances]

    def sweep_key(seed):
        out = []
        for kind, n, args in workloads.SolveSweep(seed, None).instances:
            arrays = args[:2] if kind == "power" else args[:1]
            graph = args[2].graph if kind == "power" else args[1].graph
            out.append((kind, n, b"".join(a.tobytes() for a in arrays),
                        graph.edges))
        return out

    assert corpus_key(2024) == corpus_key(2024)
    assert corpus_key(2024) != corpus_key(2025)
    assert sweep_key(2024) == sweep_key(2024)
    assert sweep_key(2024) != sweep_key(2025)


@pytest.fixture(scope="module")
def corpus():
    w = workloads.Corpus(run.RECORD["corpus"]["population_seed"], None)
    w.load_reference()
    # a plant whose run beacons, so every invariant has something to check
    for i, sc in enumerate(w.instances):
        outcome, records = ripplesim.run(sc)
        if any(r.messages for r in records) and len(records) < 500:
            return w, i, outcome, records
    raise AssertionError("no beaconing plant in the corpus")


def test_corpus_oracle_accepts_the_program_and_rejects_perturbations(corpus):
    w, i, outcome, records = corpus
    sc = w.instances[i]
    assert w.check(i, outcome, records) == []
    u = np.stack([r.u for r in records])
    b = np.stack([r.beacons for r in records])
    m = np.array([r.messages for r in records])

    def problems(u=u, b=b, m=m):
        return oracles.trace_invariants(sc.u0, u, b, m, sc.plant.u_upper,
                                        w.degree[i])

    assert problems() == []
    lowered = u.copy()
    lowered[-1, 0] = u[-2, 0] - 1e-3
    assert problems(u=lowered)
    raised = u.copy()
    raised[-1, 0] = sc.plant.u_upper[0] + 1e-3
    assert problems(u=raised)
    k = int(np.argmin(u[0] - sc.plant.u_upper))
    stray = b.copy()
    stray[0, k] = 0.5
    assert problems(b=stray)
    assert problems(m=m + 1)
    ref = w.reference[i]
    assert oracles.corpus_reference(outcome.status, outcome.rounds + 1,
                                    records[-1].u, ref, sc.eps_eq)
    assert oracles.corpus_reference("stalled", outcome.rounds,
                                    records[-1].u, ref, sc.eps_eq)
    assert oracles.corpus_reference(outcome.status, outcome.rounds,
                                    records[-1].u + 1e-6, ref, sc.eps_eq)


def test_cli_oracle_rejects_perturbed_output(tmp_path, capsys):
    w = workloads.Restoration(0, tmp_path)
    w.load_reference()
    out = tmp_path / "pjm5"
    code = cli.main(["simulate", "pjm5", "--output-dir", str(out)])
    expect = w.expect[0]
    assert oracles.cli_output(code, out, expect) == []
    assert oracles.cli_output(1, out, expect)

    def perturbed(edit_summary=None, edit_trace=None):
        bad = tmp_path / "bad"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(out, bad)
        if edit_summary:
            doc = json.loads((bad / "summary.json").read_text())
            edit_summary(doc)
            (bad / "summary.json").write_text(json.dumps(doc))
        if edit_trace:
            lines = (bad / "trace.csv").read_text().splitlines()
            (bad / "trace.csv").write_text("\n".join(edit_trace(lines)) + "\n")
        return oracles.cli_output(0, bad, expect)

    assert perturbed(lambda d: d["outcome"].update(status="stalled"))
    assert perturbed(lambda d: d.update(
        terminal_y=[y - 1.0 for y in d["terminal_y"]]))
    assert perturbed(edit_trace=lambda lines: lines[:-1])

    def decrease_first_control(lines):
        row = lines[-1].split(",")
        row[1] = repr(float(row[1]) - 0.1)
        return lines[:-1] + [",".join(row)]

    assert perturbed(edit_trace=decrease_first_control)


def test_solution_oracles_reject_perturbed_solutions():
    rng = np.random.default_rng(5)
    grid, q_load, v_gen = random_grid(rng, 12)
    sol = solve_load_voltages(q_load, v_gen, grid)
    assert oracles.power_solution(q_load, v_gen, grid, sol) == []
    v = sol.v_load.copy()
    v[0] += 1e-4
    bad = type(sol)(v_load=v, q_gen=sol.q_gen, i_load=sol.i_load,
                    iterations=sol.iterations, residual=sol.residual)
    assert oracles.power_solution(q_load, v_gen, grid, bad)

    model, u0 = random_water_network(np.random.default_rng(5), 15)
    sol = solve_network(u0, model)
    assert oracles.water_solution(u0, model, sol) == []
    flows = sol.flows.copy()
    flows[0] += 1e-3
    assert oracles.water_solution(u0, model, type(sol)(
        pressures=sol.pressures, flows=flows, residual=0.0, iterations=0))
    pressures = sol.pressures.copy()
    pressures[-1] += 1e-3
    assert oracles.water_solution(u0, model, type(sol)(
        pressures=pressures, flows=sol.flows, residual=0.0, iterations=0))


def test_traced_pass_records_spans_and_restores_originals():
    tracer = tracing.Tracer()
    tracer.check_originals()
    original = ripplesim.sim.protocol_round
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.patched():
            assert ripplesim.sim.protocol_round is not original
            with pytest.raises(tracing.HygieneError):
                tracer.check_originals()
            sc = ripplesim.load_scenario("twobus")
            tracer.call("sim.run", ripplesim.sim.run, sc)
            raise RuntimeError("boom")
    assert ripplesim.sim.protocol_round is original
    tracer.check_originals()
    spans = tracer.arrays()
    names = [tracer.names[k] for k in spans["kind"]]
    assert "sim.run" in names and "protocol.protocol_round" in names
    assert all(spans["end"] >= spans["start"])


def test_benchmark_json_names_every_reported_metric():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.RECORD)
    assert {m["name"] for m in doc["end_to_end"]} == \
        set(run.UNITS) - {"failed_frac"}
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.UNITS
