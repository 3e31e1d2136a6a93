"""Write reference.json: a digest of every timed output of every workload.

    python3 perfbench/make_reference.py

Outputs that do not depend on the seed are stored once ("any_seed");
the others are stored for the default seed 0 and the held-out seed 1.
Every later change must leave these outputs byte-identical, so run this
only on code whose outputs are already trusted, never to make a failing
benchmark pass.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = (0, 1)


def main():
    run.use_source_tree()
    import workloads

    run.check_imported_from_source_tree()
    out = {}
    for wl in workloads.WORKLOADS.values():
        entry = {"any_seed": {}, "seed": {}}
        for seed in SEEDS:
            inst = wl.build(seed)
            ops = wl.run_pass(inst).ops
            for op, (kind, value) in ops.items():
                if isinstance(value, Exception):
                    sys.exit(f"{wl.name} {op} raised {value!r}")
                d = workloads.digest(kind, value)
                if kind in wl.seeded_kinds:
                    if not wl.check(inst, op, value, ops):
                        sys.exit(f"{wl.name} {op} fails its independent check")
                    entry["seed"].setdefault(str(seed), {})[op] = d
                elif entry["any_seed"].setdefault(op, d) != d:
                    sys.exit(f"{wl.name} {op} changes with the seed")
        out[wl.name] = entry
        print(f"{wl.name}: {len(entry['any_seed'])} seed-independent outputs, "
              f"{sum(map(len, entry['seed'].values()))} seeded")
    with open(run.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
