"""The three workloads: their instance populations, operations and checks.

A workload's instance population is fixed by its population seed (see
workloads.json); the run seed only orders the operations within each pass.
Every operation returns an OpResult. A failure is a raised error, a
non-zero exit code or an oracle mismatch; only a solver error the program
raises on purpose (a SolverError on a single plant solve) leaves the run
correct, because it is a reported outcome, not a wrong answer.
"""
import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ripplesim.cli
import ripplesim.power
import ripplesim.sim
import ripplesim.water
from ripplesim import Graph, Scenario, SolverError, load_scenario
from synth import (random_connected_graph, random_grid,
                   random_monotone_linear_plant, random_water_network)

from perfbench import oracles

HERE = Path(__file__).resolve().parent
CORPUS_SIZE = 200
GRID_SIZES = tuple(range(20, 201, 20))
GRID_PER_SIZE = 8
WATER_SIZES = (20, 50, 80, 100, 120, 160, 200)
WATER_PER_SIZE = 4


@dataclass
class OpResult:
    started: float
    seconds: float
    failed: bool = False
    correct: bool = True
    detail: str = ""
    counts: dict = field(default_factory=dict)
    instance: int = -1
    rescaled: float = 0.0


class Corpus:
    """The 200 affine acceptance plants; one op is run plus the trace audit."""

    name = "corpus"

    def __init__(self, population_seed, workdir):
        rng = np.random.default_rng(population_seed)
        self.instances = []
        for _ in range(CORPUS_SIZE):
            n = int(rng.integers(1, 11))
            plant, u0 = random_monotone_linear_plant(rng, n)
            graph = random_connected_graph(rng, n) if n > 1 else \
                Graph(node_count=1, edges=())
            self.instances.append(Scenario(plant=plant, comm_graph=graph,
                                           u0=u0))
        self.population_seed = population_seed

    def load_reference(self):
        """Oracle data; loaded apart from __init__, which setup_s times."""
        refs = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        self.reference = refs["corpus"][str(self.population_seed)]
        self.degree = [oracles.degrees(s.comm_graph.node_count,
                                       s.comm_graph.edges)
                       for s in self.instances]

    def op(self, i, tracer) -> OpResult:
        sc = self.instances[i]
        t0 = time.perf_counter()
        try:
            outcome, records = tracer.call("sim.run", ripplesim.sim.run, sc)
            audit = tracer.call("sim.verify_trace", ripplesim.sim.verify_trace,
                                records, sc.comm_graph, sc.plant.u_upper,
                                sc.u0)
            stats = tracer.call("sim.message_stats",
                                ripplesim.sim.message_stats, records,
                                sc.comm_graph, sc.u0)
        except Exception as exc:  # every raised error is a failed operation
            return OpResult(t0, time.perf_counter() - t0, failed=True,
                            correct=False, detail=f"plant {i}: {exc!r}")
        seconds = time.perf_counter() - t0
        problems = [f"program audit: {p}" for p in audit]
        problems += self.check(i, outcome, records)
        messages = sum(r.messages for r in records)
        if stats.total != messages:
            problems.append("message_stats total differs from the records")
        counts = {"sim.rounds": outcome.rounds, "sim.messages": messages,
                  "sim.records": len(records)}
        return OpResult(t0, seconds, failed=bool(problems),
                        correct=not problems,
                        detail="; ".join(f"plant {i}: {p}" for p in problems),
                        counts=counts)

    def check(self, i, outcome, records) -> list:
        sc = self.instances[i]
        if not records:
            return ["empty trace"]
        problems = oracles.trace_invariants(
            sc.u0, np.stack([r.u for r in records]),
            np.stack([r.beacons for r in records]),
            [r.messages for r in records], sc.plant.u_upper, self.degree[i])
        return problems + oracles.corpus_reference(
            outcome.status, outcome.rounds, records[-1].u,
            self.reference[i], sc.eps_eq)


class Restoration:
    """`ripplesim simulate` on the bundled pjm5 and wds10 scenarios."""

    name = "restoration"
    SCENARIOS = ("pjm5", "wds10")

    def __init__(self, population_seed, workdir):
        self.workdir = Path(workdir)
        for name in self.SCENARIOS:
            if not ripplesim.bundled_scenario_path(name).is_file():
                raise FileNotFoundError(f"bundled scenario {name} is missing")
        self.instances = self.SCENARIOS
        self.serial = 0

    def load_reference(self):
        refs = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        self.expect = []
        for name in self.instances:
            scenario = load_scenario(name)
            plant, u0 = ripplesim.sim.disrupted_setup(scenario)
            g = scenario.comm_graph
            self.expect.append(dict(
                refs["restoration"][name], y_lower=plant.y_lower,
                u_upper=plant.u_upper, u0=u0, eps_feas=scenario.eps_feas,
                degree=oracles.degrees(g.node_count, g.edges)))

    def op(self, i, tracer) -> OpResult:
        name = self.instances[i]
        self.serial += 1
        outdir = self.workdir / f"{name}-{self.serial}"
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                code = tracer.call("cli.main", ripplesim.cli.main,
                                   ["simulate", name, "--output-dir",
                                    str(outdir)])
            except Exception as exc:  # a traceback out of the CLI is a failure
                code = repr(exc)
            seconds = time.perf_counter() - t0
        try:
            problems = oracles.cli_output(code, outdir, self.expect[i])
            written = sum(p.stat().st_size for p in outdir.iterdir())
            summary = json.loads((outdir / "summary.json").read_text())
            counts = {"sim.rounds": summary["outcome"]["rounds"],
                      "sim.messages": summary["messages_total"],
                      "sim.records": summary["run"]["records"],
                      "cli.bytes_written": written}
        except (OSError, ValueError, KeyError) as exc:
            problems, counts = [f"unreadable output: {exc!r}"], {}
            if code != 0:
                problems.insert(0, f"exit code {code}")
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        return OpResult(t0, seconds, failed=bool(problems), correct=not problems,
                        detail="; ".join(f"{name}: {p}" for p in problems),
                        counts=counts)


class SolveSweep:
    """Flat-start grid and water solves from tens of nodes to 200."""

    name = "solve_sweep"

    def __init__(self, population_seed, workdir):
        self.instances = []
        for n in GRID_SIZES:
            rng = np.random.default_rng([population_seed, 1, n])
            for _ in range(GRID_PER_SIZE):
                grid, q_load, v_gen = random_grid(rng, n)
                self.instances.append(("power", n, (q_load, v_gen, grid)))
        for n in WATER_SIZES:
            rng = np.random.default_rng([population_seed, 2, n])
            for _ in range(WATER_PER_SIZE):
                model, u0 = random_water_network(rng, n)
                self.instances.append(("water", n, (u0, model)))

    def load_reference(self):
        pass

    def op(self, i, tracer) -> OpResult:
        kind, n, args = self.instances[i]
        solve = (ripplesim.power.solve_load_voltages if kind == "power"
                 else ripplesim.water.solve_network)
        t0 = time.perf_counter()
        try:
            sol = solve(*args)
        except SolverError as exc:
            return OpResult(t0, time.perf_counter() - t0, failed=True,
                            detail=f"{kind} n={n}: {type(exc).__name__}")
        except Exception as exc:  # anything else is a wrong answer
            return OpResult(t0, time.perf_counter() - t0, failed=True,
                            correct=False, detail=f"{kind} n={n}: {exc!r}")
        seconds = time.perf_counter() - t0
        check = (oracles.power_solution if kind == "power"
                 else oracles.water_solution)
        problems = check(*args, sol)
        return OpResult(t0, seconds, failed=bool(problems), correct=not problems,
                        detail="; ".join(f"{kind} n={n}: {p}"
                                         for p in problems))


WORKLOADS = {w.name: w for w in (Corpus, Restoration, SolveSweep)}


def build(name, population_seed, workdir):
    """Set up a workload's instances (the part timed as setup_s)."""
    return WORKLOADS[name](population_seed, workdir)
