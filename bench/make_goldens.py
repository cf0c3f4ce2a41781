"""Writes bench/goldens.json: the seed-0 outputs every benchmark run checks.

    python3 bench/make_goldens.py

Run from the repository root.  Reports are stored without `input` and
`versions`.  Regenerate only when a change is meant to alter the reports.
"""

import json
import os
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main():
    goldens = {"analyze": {}, "multiplicity": {}, "sections": {}}
    for name in ("multigen", "hypersurface", "sections"):
        workload = workloads.build(name, 0, os.path.join(ROOT, ".bench_work",
                                                         "goldens", name))
        for op in sorted(workload.ops, key=lambda o: o.label):
            result = op.call()
            if op.kind == "analyze":
                code, text = result
                report = json.loads(text)
                del report["input"], report["versions"]
                goldens["analyze"][op.key] = {"exit": code, "report": report}
            elif op.kind == "multiplicity":
                goldens["multiplicity"][op.key] = list(result)
            else:
                seen = goldens["sections"].setdefault(op.key, result.count)
                if seen != result.count or result.count < op.expect:
                    sys.exit(f"{op.label}: count {result.count}, other "
                             f"refinements {seen}, minimum {op.expect}")
            print(op.label, file=sys.stderr)
    with open(workloads.GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
