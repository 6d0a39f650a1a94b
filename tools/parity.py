"""Compare what two checkouts of ripplesim compute, run for run, bit for bit.

    python tools/parity.py CHECKOUT                  # CHECKOUT's digest
    python tools/parity.py CHECKOUT --against OTHER  # compare two checkouts

Each checkout runs in its own Python subprocess, which imports ripplesim
from the checkout's src/ and the corpus generator from its tests/synth.py,
with BLAS on one thread. The runs, and the parts of each that are hashed
(SHA-256 over dtype, shape and bytes, or over the bits of a float):

  corpus/<seed>/<i>   corpus plant i (three digits) at population seed
                      2024 or 3: every Outcome field (the plant by its
                      type, box and floors) and every Trace column
  simulate <args>     `ripplesim simulate` on the four bundled scenarios,
                      plain and with --decimate 3, plus wds10 --budget 500
                      --decimate 7, and on three edge cases that the tool
                      writes into its workdir: failure.json, whose reading
                      overflows at u0 (set-up refuses it: exit 2 and no
                      output files), midrun.json, whose reading overflows
                      in round 3 (a solver failure after two kept rounds,
                      exit 3), and stall.json, plain and with --decimate 3
                      (ceilings below the floor, a stall): trace.csv,
                      effort.csv, summary.json, stdout, stderr, warnings
                      and the exit code
  <command> <args>    check --points 3 on the four bundled scenarios, and
                      sweep on pjm5 and twobus: stdout, stderr, warnings,
                      the exit code and, for sweep, sweep.csv
  demo/<file>         the stdout of each script in demos/

Without --against the tool prints CHECKOUT's digest as JSON, one SHA-256
per run. With --against it compares the parts that both sides have; a part
that only one side has (such as an Outcome field added by one of them) is
named once and does not make a run differ. It prints each run that differs,
with its status, rounds and largest terminal-control gap, then a summary
line, and exits 1 when some run differs. The bits depend on the CPU and the
BLAS build, so compare two checkouts on one machine.
"""
import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import runpy
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

CORPUS_SIZE = 200
POPULATION_SEEDS = (2024, 3)
SCENARIOS = ("pjm5", "wds10", "twobus", "linear_cascade")
# linear_cascade with these plant fields and start, one file per edge case
EDGE_SCENARIOS = {
    "failure.json": ({"sensitivity": [[1e308, 1e308]],
                      "u_upper": [1.0, 1.0]}, [1.0, 1.0]),
    "midrun.json": ({"sensitivity": [[1e308, 1e308]], "u_upper": [1.0, 1.0],
                     "y_lower": [1.5e308]}, [0.0, 0.0]),
    "stall.json": ({"u_upper": [0.3, 0.4]}, [0.0, 0.0]),
}
SIMULATE_RUNS = [[name] + extra for name in SCENARIOS
                 for extra in ([], ["--decimate", "3"])] + [
    ["wds10", "--budget", "500", "--decimate", "7"], ["failure.json"],
    ["midrun.json"], ["stall.json"], ["stall.json", "--decimate", "3"]]
# sweep prints its output path, so it writes to a relative one
ANALYSIS_RUNS = [["check", name, "--points", "3"] for name in SCENARIOS] + [
    ["sweep", name, "--output-dir", f"sweep-{name}"]
    for name in ("pjm5", "twobus")]
OUTPUT_FILES = ("trace.csv", "effort.csv", "summary.json")


def _sha(value):
    """SHA-256 of a value's type and bits (arrays, floats, bytes), or of its
    repr for anything else."""
    import numpy as np

    h = hashlib.sha256()
    if isinstance(value, np.ndarray):
        h.update(f"ndarray {value.dtype.str} {value.shape} ".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, float):
        h.update(b"float " + struct.pack("<d", value))
    elif isinstance(value, bytes):
        h.update(b"bytes " + value)
    else:
        h.update(repr(value).encode())
    return h.hexdigest()


def _plant_sha(plant):
    """A plant by its type, control box, floors and measured nodes."""
    return _sha(repr([type(plant).__name__] + [
        _sha(getattr(plant, name)) for name in
        ("u_lower", "u_upper", "y_lower", "measured_nodes")]))


def _corpus_runs():
    import numpy as np
    from synth import random_connected_graph, random_monotone_linear_plant

    from ripplesim import Graph, Scenario, run
    from ripplesim.plant import PlantModel

    for seed in POPULATION_SEEDS:
        rng = np.random.default_rng(seed)
        for i in range(CORPUS_SIZE):
            n = int(rng.integers(1, 11))
            plant, u0 = random_monotone_linear_plant(rng, n)
            graph = random_connected_graph(rng, n) if n > 1 else \
                Graph(node_count=1, edges=())
            outcome, trace = run(Scenario(plant=plant, comm_graph=graph,
                                          u0=u0))
            parts = {}
            for owner, record in (("Outcome", outcome), ("Trace", trace)):
                for f in dataclasses.fields(record):
                    value = getattr(record, f.name)
                    parts[f"{owner}.{f.name}"] = _plant_sha(value) if \
                        isinstance(value, PlantModel) else _sha(value)
            end = trace.u[-1] if len(trace.rounds) else outcome.u0
            yield f"corpus/{seed}/{i:03d}", {
                "parts": parts, "status": outcome.status,
                "rounds": outcome.rounds, "terminal_u": end.tolist()}


def _cli_parts(args):
    """The exit code, stdout, stderr and warnings of `ripplesim ARGS`, run
    here. A warning counts by its category and text, every time it is
    raised, and not by the file and line it names, which differ between
    checkouts. A command line that the checkout's parser refuses (a
    subcommand it does not have) counts by argparse's exit code and
    message."""
    from ripplesim.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    return {"exit_code": _sha(code), "stdout": _sha(stdout.getvalue()),
            "stderr": _sha(stderr.getvalue()),
            "warnings": _sha(repr([(w.category.__name__, str(w.message))
                                   for w in caught]))}


def write_edge_scenarios(workdir):
    """Write each EDGE_SCENARIOS file into workdir."""
    from ripplesim.scenario_io import bundled_scenario_path

    text = bundled_scenario_path("linear_cascade").read_text()
    for name, (plant, u0) in EDGE_SCENARIOS.items():
        doc = json.loads(text)
        doc["plant"].update(plant)
        doc["initial"]["u0"] = u0
        Path(workdir, name).write_text(json.dumps(doc))


def _simulate_runs(workdir):
    """The simulate runs; workdir is the current directory, where the
    edge-case runs find their files."""
    write_edge_scenarios(workdir)
    for k, args in enumerate(SIMULATE_RUNS):
        out = Path(workdir, f"simulate-{k}")
        parts = _cli_parts(["simulate", *args, "--output-dir", str(out)])
        for name in OUTPUT_FILES:
            path = out / name
            parts[name] = _sha(path.read_bytes() if path.exists() else None)
        summary = json.loads((out / "summary.json").read_text()) \
            if (out / "summary.json").exists() else {}
        yield "simulate " + " ".join(args), {
            "parts": parts,
            "status": summary.get("outcome", {}).get("status"),
            "rounds": summary.get("outcome", {}).get("rounds"),
            "terminal_u": list(summary.get("terminal_u", {}).values())}


def _analysis_runs():
    """The analysis subcommands, run in the current directory."""
    for args in ANALYSIS_RUNS:
        parts = _cli_parts(args)
        if args[0] == "sweep":
            path = Path(args[-1], "sweep.csv")
            parts["sweep.csv"] = _sha(path.read_bytes() if path.exists()
                                      else None)
        yield " ".join(args), {"parts": parts}


def _demo_runs(checkout):
    for demo in sorted(Path(checkout, "demos").glob("*.py")):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            runpy.run_path(str(demo), run_name="__main__")
        yield f"demo/{demo.name}", {"parts": {"stdout": _sha(
            stdout.getvalue())}}


def _digest_here(checkout, workdir):
    """The digest of every run, computed in this process."""
    import ripplesim

    src = Path(checkout, "src").resolve()
    if src not in Path(ripplesim.__file__).resolve().parents:
        raise RuntimeError(f"imported {ripplesim.__file__}, not {src}")
    return dict((*_corpus_runs(), *_simulate_runs(workdir),
                 *_analysis_runs(), *_demo_runs(checkout)))


def digest(checkout):
    """Run the checkout in a subprocess; returns {run: {"parts": {part:
    sha}, "status", "rounds", "terminal_u"}}."""
    checkout = Path(checkout).resolve()
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(checkout / "src"), str(checkout / "tests")]))
    with tempfile.TemporaryDirectory(prefix="parity-") as workdir:
        out = Path(workdir, "digest.json")
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        str(checkout), "--write-digest", str(out)],
                       cwd=workdir, env=env, check=True)
        return json.loads(out.read_text())


def run_sha(result):
    """One SHA-256 for a run, over its parts."""
    return _sha(json.dumps(result["parts"], sort_keys=True))


def compare(ours, theirs, name_ours, name_theirs):
    """(lines naming each differing run, one-sided part names, differing
    run count)."""
    lines, one_sided, differ = [], {}, 0
    for run in sorted(ours.keys() | theirs.keys()):
        if run not in ours or run not in theirs:
            differ += 1
            lines.append(f"{run}: only in "
                         f"{name_ours if run in ours else name_theirs}")
            continue
        a, b = ours[run], theirs[run]
        for side, x, y in ((name_ours, a, b), (name_theirs, b, a)):
            for part in x["parts"].keys() - y["parts"].keys():
                one_sided.setdefault(part, side)
        changed = sorted(p for p in a["parts"].keys() & b["parts"].keys()
                         if a["parts"][p] != b["parts"][p])
        if not changed:
            continue
        differ += 1
        text = f"{run}: {', '.join(changed)} differ"
        if a.get("status") is not None:
            text += (f"; status {a['status']} / {b['status']}, rounds "
                     f"{a['rounds']} / {b['rounds']}")
            ua, ub = a["terminal_u"], b["terminal_u"]
            if ua and len(ua) == len(ub):
                gap = max(abs(p - q) for p, q in zip(ua, ub))
                text += f", largest terminal-control gap {gap:.3e}"
        lines.append(text)
    return lines, one_sided, differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkout", help="root of a ripplesim checkout")
    parser.add_argument("--against", metavar="OTHER",
                        help="root of a second checkout to compare with")
    # the subprocess side: compute the digest here and write it to a file
    parser.add_argument("--write-digest", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write_digest:
        runs = _digest_here(args.checkout, Path(args.write_digest).parent)
        Path(args.write_digest).write_text(json.dumps(runs))
        return 0
    ours = digest(args.checkout)
    if args.against is None:
        print(json.dumps({run: run_sha(result) for run, result in
                          ours.items()}, indent=1, sort_keys=True))
        return 0
    theirs = digest(args.against)
    lines, one_sided, differ = compare(ours, theirs, args.checkout,
                                      args.against)
    for line in lines:
        print(line)
    notes = "; ".join(f"{part} only in {side}"
                      for part, side in sorted(one_sided.items()))
    print(f"parity: {len(ours.keys() | theirs.keys())} runs compared, "
          f"{differ} differ" + (f"; {notes}" if notes else ""))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
