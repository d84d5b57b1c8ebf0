"""Store a workload's checked outputs for a range of seeds.

    python3 perfbench/make_reference.py fit|inspect FIRST LAST

Runs the workload's passes once per seed in [FIRST, LAST] with the
benchmark's thread settings and stores their outputs in reference.json,
which the workload's output checks compare against: ``test_mse`` of each
model for ``fit``; each forecast, explain report and the attention profile
for ``inspect`` (enough passes to cover every fixed window). Regenerate it
only when a change is meant to alter what the program computes.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import ROOT, pin_threads


def main() -> int:
    workload, first, last = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import (EXPLAIN_TESTS, PREDICT_SERIES, REFERENCE_FILE, Fit,
                           Inspect, Recorder)

    cls, passes = {"fit": (Fit, 1),
                   "inspect": (Inspect, max(PREDICT_SERIES, EXPLAIN_TESTS))}[workload]
    stored = {}
    work = ROOT / ".perfbench_work" / f"reference-{workload}-{first}"
    for seed in range(first, last + 1):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        wl = cls(seed, work)
        wl.setup()
        wl.reference = None
        wl.warm_up()
        rec = Recorder()
        for k in range(passes):
            wl.run_pass(rec, k)
        if rec.failures:
            print(f"seed {seed}: {rec.failures}", file=sys.stderr)
            return 1
        out = {}
        for key, values in rec.outputs.items():
            if key.startswith("test_mse."):
                out[key.split(".", 1)[1]] = values[0]
        for doc in rec.outputs.get("forecast", []):
            out[f"forecast.{doc['index']}"] = doc["demand_scaled"]
        for doc in rec.outputs.get("explain", []):
            out[f"explain.{doc['test']}"] = [doc["base_value"], doc["prediction"],
                                              *doc["phi"].values()]
        if "attention_profile" in rec.outputs:
            out["attention_profile"] = rec.outputs["attention_profile"][0]
        stored[str(seed)] = out
        print(seed, sorted(out), flush=True)
    shutil.rmtree(work, ignore_errors=True)
    # Read again just before writing: runs for other seed ranges may have
    # stored theirs meanwhile.
    table = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    table[workload].update(stored)
    REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
