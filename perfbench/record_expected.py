"""Record each unit's expected stdout SHA-256, exit code and report count.

Usage, from the root of a checkout:  python3 perfbench/record_expected.py

Runs every workload once as a cold round and rewrites perfbench/expected.json.
It refuses to record a unit that exits non-zero or prints a report whose
status is not "pass".  The outputs do not depend on the unit order, so one
table serves every seed.
"""

import json
import sys

from run import HERE, run_round
from workloads import WORKLOADS


def main() -> int:
    table = {}
    for name, units in WORKLOADS.items():
        result = run_round(units, None)
        rows = []
        for argv, got in zip(units, result["units"]):
            if got["exit"] != 0 or got["non_pass"] or not got["lines"]:
                print(f"error: {argv} exited {got['exit']} with "
                      f"{got['non_pass']} non-pass reports", file=sys.stderr)
                return 1
            rows.append({"argv": argv, "sha256": got["sha256"], "exit": got["exit"],
                         "reports": got["lines"]})
        table[name] = rows
        print(f"{name}: {len(rows)} units, {sum(r['reports'] for r in rows)} reports")
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(
            f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(row)}" for row in rows) + "\n ]"
            for name, rows in table.items()) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
