"""Write ``expected.json``, the outputs the benchmark's correctness gate compares against.

    python3 perfbench/make_expected.py

It records, from the library in this checkout:

* a digest of every verify record (``ms`` dropped) of the record workloads;
* for the default and the held-out seed, the P/Q digest of each round-trip
  word, after checking its round trip.

Run it only at a commit whose verify output is known to be right: the gate
then fails any later commit whose output differs.  The held-out seed is for
re-checking a performance claim on inputs not used while writing it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import dominsert  # noqa: E402
from dominsert import verify  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402
from workloads import WORKLOADS, RecordWorkload, pq_digest, record_digest, record_key, verify_instances  # noqa: E402

SEEDS = {"default": DEFAULT_SEED, "held_out": 2}


def main():
    out = {"seeds": SEEDS, "records": {}, "roundtrip": {}}
    for name, workload in WORKLOADS.items():
        if isinstance(workload, RecordWorkload):
            table = {}
            for _, instance in verify_instances(verify):
                record = verify.run_instance(instance)
                if record["pass"] is not True:
                    raise SystemExit(f"{name}: {instance} fails its identity")
                table[record_key(*instance)] = record_digest(record)
            out["records"][name] = table
        else:
            per_seed = {}
            for seed in SEEDS.values():
                workload.build(dominsert, seed, {"roundtrip": {}})
                digests = []
                for k, op in enumerate(workload.ops):
                    result = op.call()
                    if not op.check(result):
                        raise SystemExit(f"{name}: seed {seed} word {k} fails its round trip")
                    digests.append(pq_digest(result[0]))
                    print(f"{name} seed {seed} word {k}", file=sys.stderr, flush=True)
                per_seed[str(seed)] = digests
            out["roundtrip"][name] = per_seed
    (HERE / "expected.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
