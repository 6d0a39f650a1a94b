"""Run one ripplesim benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

The run measures the checkout's own src/ripplesim. It repeats passes over
the workload's instances, each pass in an order drawn from --seed, for
about --seconds seconds (at least one pass), checking every output against
the benchmark's oracles. With --trace 0 it reports the end-to-end metrics;
with --trace 1 it spends half the time untraced and half traced and reports
the per-layer metrics. The last line of standard output is one JSON object;
the lines before it are a readable table and the environment record. Both
also go to .perfbench_out/, with the recorded spans of a traced run.
"""
import argparse
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = ROOT / ".perfbench_out"
RECORD = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
SETUP_PROBES = 5
UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(RECORD))
    p.add_argument("--seed", type=int, required=True,
                   help="orders the operations of each pass")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--population-seed", type=int, default=None,
                   help="instance population (default: the workload's "
                        "recorded seed; pass its held-out seed to confirm "
                        "a claim)")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_blas():
    """One BLAS thread, set before numpy is first imported; set-up probes
    inherit it through the environment."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def use_checkout():
    """Import ripplesim and the synthetic builders from this checkout only."""
    src = ROOT / "src"
    if not (src / "ripplesim" / "__init__.py").is_file() or \
            not (ROOT / "tests" / "synth.py").is_file():
        raise SystemExit(f"perfbench: {ROOT} holds no src/ripplesim and "
                         "tests/synth.py to measure")
    sys.path[:0] = [str(src), str(ROOT / "tests"), str(ROOT)]


def setup_probe(args, population_seed):
    """Time imports plus instance set-up in this fresh process."""
    from perfbench import speed

    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        from perfbench import workloads
        workloads.build(args.workload, population_seed, OUT / "tmp")
        t1 = time.perf_counter()
    print(json.dumps({"seconds": t1 - t0,
                      "rescaled": float(probe.rescale(t0, t1))}))


def measure_setup(args, population_seed):
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--population-seed", str(population_seed),
             "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        samples.append(json.loads(done.stdout.splitlines()[-1]))
    return samples


def run_passes(workload, tracer, order_rng, budget):
    """Whole passes until the next would overrun `budget` seconds; >= 1."""
    passes = []
    t_start = time.perf_counter()
    while True:
        order = list(range(len(workload.instances)))
        order_rng.shuffle(order)
        results = []
        for i in order:
            tracer.op_id += 1
            result = workload.op(i, tracer)
            result.instance = i
            results.append(result)
        passes.append(results)
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / len(passes) > budget:
            return passes


def pass_counts(results):
    totals = {"sim.rounds": 0, "sim.messages": 0, "sim.records": 0,
              "cli.bytes_written": 0}
    for r in results:
        for key, value in r.counts.items():
            totals[key] += value
    return totals


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(args, population_seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cpu_model": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "workload": args.workload, "seed": args.seed,
            "population_seed": population_seed, "seconds": args.seconds,
            "trace": args.trace, "commit": commit()}


def measure(workload, tracer, args):
    """Untraced passes, then traced ones with --trace 1, under a speed probe.

    Untraced passes must see the program's own objects. Each result gets
    .rescaled, its duration rescaled by the probe.
    """
    from perfbench import speed

    order_rng = random.Random(args.seed)
    budget = args.seconds / 2 if args.trace else args.seconds
    traced = []
    with speed.SpeedProbe() as probe:
        tracer.check_originals()
        plain = run_passes(workload, tracer, order_rng, budget)
        tracer.check_originals()
        if args.trace:
            with tracer.patched():
                traced = run_passes(workload, tracer, order_rng, budget)
            tracer.check_originals()
    for r in (r for p in plain + traced for r in p):
        r.rescaled = float(probe.rescale(r.started, r.started + r.seconds))
    return plain, traced, probe


def timings(passes, attr, tail_cap):
    """wall_s, op_p50_ms, op_tail_ms and the tail's rank from one time field.

    op_p50_ms is the Harrell-Davis median over instances of each instance's
    median time, which stays put when a workload mixes a few very different
    instances.
    """
    from perfbench import stats

    per_instance = {}
    for r in (r for p in passes for r in p):
        per_instance.setdefault(r.instance, []).append(getattr(r, attr))
    samples = [x for xs in per_instance.values() for x in xs]
    tail_s, tail_p, beyond = stats.tail(samples, tail_cap)
    return {"wall_s": stats.median([sum(getattr(r, attr) for r in p)
                                    for p in passes]),
            "op_p50_ms": 1e3 * stats.hd_median(
                [stats.median(xs) for xs in per_instance.values()]),
            "op_tail_ms": 1e3 * tail_s}, (tail_p, beyond, len(samples))


def main(argv=None) -> int:
    pin_blas()
    args = parse_args(argv)
    record = RECORD[args.workload]
    population_seed = (record["population_seed"] if args.population_seed
                       is None else args.population_seed)
    use_checkout()
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args, population_seed)
        return 0
    setups = measure_setup(args, population_seed)

    from perfbench import stats, tracing, workloads

    workload = workloads.build(args.workload, population_seed, OUT / "tmp")
    workload.load_reference()
    tracer = tracing.Tracer()
    plain, traced, probe = measure(workload, tracer, args)
    ops = [r for p in plain + traced for r in p]
    failed = sum(r.failed for r in ops)
    counts = [pass_counts(p) for p in plain + traced]
    end_to_end, (tail_p, beyond, samples) = timings(
        plain, "rescaled", record["tail_percentile"])
    end_to_end = {"setup_s": stats.median([s["rescaled"] for s in setups]),
                  **end_to_end,
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024}
    raw, _ = timings(plain, "seconds", record["tail_percentile"])
    raw["setup_s"] = stats.median([s["seconds"] for s in setups])
    details = {"raw_wall_clock": raw, "failed_frac": failed / len(ops),
               "op_tail_percentile": tail_p, "op_tail_beyond": beyond,
               "op_samples": samples, "passes_untraced": len(plain),
               "passes_traced": len(traced), "setup_samples": setups,
               "counts_repeat": all(c == counts[0] for c in counts),
               "counts_per_pass": counts[0],
               "untraced_ops": [[r.instance, r.seconds, r.rescaled]
                                for p in plain for r in p]}
    if args.trace:
        metrics = tracing.layer_metrics(tracer, probe, counts[-1], len(traced))
        metrics["trace.overhead_frac"] = (
            timings(traced, "rescaled", 50)[0]["wall_s"]
            / end_to_end["wall_s"])
        units = tracing.UNITS
        tracer.write(OUT / f"{args.workload}-spans.npz")
    else:
        metrics, units = end_to_end, UNITS
    env = environment(args, population_seed)

    print(f"workload {args.workload}: {len(ops)} operations, {failed} failed"
          f" ({len(plain)} untraced and {len(traced)} traced passes)")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<32} {failed / len(ops):>14.6g} ratio")
    print(f"  op_tail_ms is p{tail_p:g} of {samples} untraced operations "
          f"({beyond} beyond it); times are rescaled to the probe's "
          f"reference speed, raw wall clock: "
          + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for r in [r for r in ops if r.detail][:10]:
        print(f"  failure: {r.detail}")
    print("environment: " + json.dumps(env, sort_keys=True))
    result = {"correct": all(r.correct for r in ops), "attempted": len(ops),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "environment": env, "details": details},
                   indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
