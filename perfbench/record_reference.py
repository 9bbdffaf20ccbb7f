"""Write reference_sha256.json: the sha256 of `cdmac compute` stdout for every
case of the compute workloads.

The file pins the program's output bytes, so it is recorded once, at the
commit that introduced the benchmark, and not rewritten afterwards: a later
change that alters any of these bytes is a regression, not a new reference.

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    mods = run.load_program()
    reference = {}
    for case in workloads.all_compute_cases({}):
        rc, out, err = case.run(mods)
        if rc != 0:
            print(f"{case.id}: exit {rc}: {err}", file=sys.stderr)
            return 1
        reference[case.id] = hashlib.sha256(out.encode()).hexdigest()
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} digests to {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
