"""Store the output digests of ``--trace 0`` runs as the reference for
``check.output_changed``.

    python3 perfbench/run.py --workload cli_mix --seed 3 --seconds 15 --trace 0
    python3 perfbench/record_digests.py

Reads every ``.bench_results/<workload>-s<seed>-t0.json`` and writes, per
workload and seed, the corpus fingerprint and the first pass's op
digests (8 hex digits each, in op order) to ``perfbench/digests.json``.
"""

from __future__ import annotations

import glob
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")


def main() -> int:
    stored = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            stored = json.load(fh)
    for path in sorted(glob.glob(os.path.join(ROOT, ".bench_results", "*-t0.json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        ops = record["ops"][: record["ops_per_pass"]]
        stored.setdefault(record["workload"], {})[str(record["seed"])] = {
            "corpus": record["corpus_fingerprint"],
            "ops": "".join(op["digest"][:8] for op in ops),
        }
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {DIGESTS}: " + ", ".join(
        f"{w} seeds {sorted(seeds, key=int)}" for w, seeds in sorted(stored.items())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
