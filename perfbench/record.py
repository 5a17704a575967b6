"""Regenerate ``expected.json``: the deterministic outputs of every op
any seed can draw.  Run from the repository root, on the commit whose
behaviour the benchmark pins::

    python3 perfbench/record.py

Takes a few minutes; the file only changes when a commit changes what
the simulator computes, which the benchmark then reports as failed ops.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> int:
    out = {}
    work = HERE / "out" / "record"
    for name in ("dense-matrix", "crawl-queries"):
        wl = workloads.WORKLOADS[name]
        data = wl.setup(0, str(work))
        out[name] = {
            op.key: workloads.run_op(op, data) for op in wl.universe(data)
        }
        wl.teardown(data)
        print(f"{name}: {len(out[name])} ops", file=sys.stderr)
    wl = workloads.WORKLOADS["serve-mutate"]
    out[wl.name] = {}
    for ts in wl.TRACES:
        data = wl.setup(0, str(work), traffic_seeds=[ts])
        (_, trace, service), = data["runs"]
        out[wl.name][str(ts)] = wl.outputs(service.run(trace))
        wl.teardown(data)
    print(f"{wl.name}: {len(wl.TRACES)} traces", file=sys.stderr)
    (HERE / "expected.json").write_text(json.dumps(out, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
