"""Write digests.json: first-pass result digests for seeds 0..31 of every workload.

    python3 perfbench/make_digests.py

Each record line of run.py compares its per-part digests with this table and
names the parts that changed, so a change that alters an answer shows as a
changed answer.  Regenerate the table only together with a change to the
benchmark itself; a change to latquad that alters results reports the
changed parts instead.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile

import worker

SEEDS = range(32)


def main() -> int:
    root = os.path.dirname(worker.HERE)
    worker._import_latquad(root)
    import workloads

    table = {}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                wl = workloads.build(name, seed, False, os.path.join(tmp, "emit"))
                runner = worker.Runner(wl, corrupt=False)
                runner.run_pass()
                wl.close()
                if runner.failed:
                    print(f"{name} seed {seed}: {runner.errors}", file=sys.stderr)
                    return 1
                table.setdefault(name, {})[str(seed)] = worker.digests(runner.reference[0])[1]
    with open(worker.BASELINE_DIGESTS, "w", encoding="ascii") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
