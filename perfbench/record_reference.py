"""Record the reference outcomes the benchmark's oracles compare against.

From the root of a checkout:

    python3 perfbench/record_reference.py

writes perfbench/reference.json: for each corpus population seed in
workloads.json (default and held-out), every plant's status, rounds and
terminal controls, one plant per line; for the restoration scenarios,
rounds and trace records.
Run it only at a commit whose outputs are the intended reference; the file
records which commit that was.
"""
import json
import sys

import run


def main() -> int:
    run.use_checkout()
    from perfbench import workloads
    import ripplesim

    record = run.RECORD
    corpus = {}
    for key in ("population_seed", "heldout_seed"):
        seed = record["corpus"][key]
        entries = []
        for sc in workloads.Corpus(seed, None).instances:
            outcome, records = ripplesim.run(sc)
            entries.append({"status": outcome.status, "rounds": outcome.rounds,
                            "terminal_u": [float(x) for x in records[-1].u]})
        corpus[str(seed)] = entries
    restoration = {}
    for name in workloads.Restoration.SCENARIOS:
        outcome, records = ripplesim.run(ripplesim.load_scenario(name))
        restoration[name] = {"rounds": outcome.rounds, "records": len(records)}
    seeds = ",\n".join(
        f' "{seed}": [\n' + ",\n".join("  " + json.dumps(e) for e in entries)
        + "\n ]" for seed, entries in corpus.items())
    text = (f'{{"commit": {json.dumps(run.commit())},\n"corpus": {{\n{seeds}\n}},\n'
            f'"restoration": {json.dumps(restoration)}}}\n')
    path = run.HERE / "reference.json"
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
