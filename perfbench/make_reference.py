"""Record the reference outputs the benchmark checks against.

Run from the root of a checkout, on the commit whose outputs are the
reference (the benchmark is only ever checked against recorded outputs of
known-good code)::

    python3 perfbench/make_reference.py 1 2 3 ... 10

``--only selftest`` (or a comma-separated list of workloads) re-records
those workloads alone and keeps the others' recorded outputs.

For each workload seed it records the Table 2 rows, the synth20k
first-detection digest of the *serial packed* path (the slow reference
the process/vec run must equal bit for bit), and the selftest golden
signatures and detections, all at the ``full`` size.  It also records
which Table 2 row 1-4 cells equal the paper, which holds for every seed.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def record_table2(seed: int, out: dict) -> None:
    from workloads import Table2

    table2 = Table2(seed, "full", {}, ROOT)
    state = table2.setup()
    rows = table2.summarize(state, table2.operate(state))
    matched = table2.paper_cells(rows)
    cells = out.setdefault("paper_cells", matched)
    if matched != cells:
        raise SystemExit(f"seed {seed}: paper cells {matched} != {cells}")
    out["seeds"][str(seed)] = rows


def record_synth20k(seed: int, out: dict) -> None:
    from workloads import Synth20k, detection_digest

    from repro import engine

    synth = Synth20k(seed, "full", {}, ROOT)
    state = synth.setup()
    synth.teardown(state)
    netlist = state["netlist"]
    result = engine.simulate(
        netlist, state["faults"], synth.source(netlist),
        config=synth.config(executor="serial", jobs=1, kernel="packed"))
    out["seeds"][str(seed)] = [
        detection_digest(result.first_detection), result.n_patterns,
        len(result.first_detection)]


def record_selftest(seed: int, out: dict) -> None:
    from workloads import Selftest

    selftest = Selftest(seed, "full", {}, ROOT)
    state = selftest.setup()
    out["seeds"][str(seed)] = selftest.summarize(state,
                                                 selftest.operate(state))


RECORDERS = {"table2": record_table2, "synth20k": record_synth20k,
             "selftest": record_selftest}


def main(argv) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    names = list(RECORDERS)
    if argv[:1] == ["--only"] and len(argv) > 1:
        names = argv[1].split(",")
        argv = argv[2:]
    seeds = [int(arg) for arg in argv]
    if not seeds or not set(names) <= set(RECORDERS):
        print("usage: make_reference.py [--only W[,W...]] SEED [SEED ...]",
              file=sys.stderr)
        return 2
    path = os.path.join(HERE, "reference.json")
    out = {}
    if set(names) != set(RECORDERS):
        with open(path) as handle:
            out = json.load(handle)
    for name in names:
        out[name] = {"seeds": {}}
    for seed in seeds:
        for name in names:
            RECORDERS[name](seed, out[name])
        print(f"seed {seed}: recorded", flush=True)
    with open(path, "w") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
