"""Write ``bench/reference.json``: the stdout digest of every operation of
every workload for the default seeds, taken from this checkout.

    python3 bench/make_reference.py

Run it only at a commit whose output is known to be right.  The benchmark
then counts every operation whose bytes differ as failed, which enforces
the identical-bytes contract from that commit on.  A change that alters
output on purpose regenerates the file and says why.
"""

import json
import sys

import outcome
import run
import workloads

#: Seeds whose digests are checked in.
SEEDS = range(0, 11)


def main() -> int:
    digests = {}
    for workload in workloads.WORKLOADS:
        digests[workload] = {}
        for seed in SEEDS:
            ops = workloads.generate(workload, seed)
            results = run.spawn_round(ops)["results"]
            bad = [why for why in outcome.op_failures(ops, results) if why]
            if bad:
                print(f"{workload} seed {seed}: {len(bad)} operations fail: {bad[:3]}", file=sys.stderr)
                return 1
            digests[workload][str(seed)] = "".join(r["digest"] for r in results)
    doc = {
        "about": "first 8 hex digits of the sha256 of each operation's stdout, in round order",
        "digests": digests,
    }
    run.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
