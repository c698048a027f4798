#!/usr/bin/env python3
"""Record the output gate: (exit code, sha256 of output) for every op any
seed of any workload can run, into perfbench/expected.json.

Run from the root of a tcslat checkout whose outputs are trusted:

    python3 perfbench/record.py

It refuses to record a forms input that leaves the exact path, because the
workload is defined to stay on it.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.environ.pop("TCS_TABLES_DIR", None)
    import workloads
    from tcslat import g2alg

    expected = {}
    for name in workloads.WORKLOADS:
        for op in workloads.universe(name):
            code, digest, _ = op.run()
            expected[op.name] = [code, digest]
        print(f"{name}: {len(expected)} ops recorded so far")
    for i in range(workloads.POOL_SIZE):
        (phi,) = workloads.forms_pool("metric_from_3form", i)
        if not g2alg.metric_from_3form(phi).exact:
            raise SystemExit(f"metric_from_3form pool input #{i} is not on the exact path")
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                     for k, v in sorted(expected.items())) + "\n}\n")


if __name__ == "__main__":
    main()
