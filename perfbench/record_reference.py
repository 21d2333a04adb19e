"""Record the train-n200 reference: final orders, final loss, probe accuracy.

Usage, from the root of a checkout: ``python3 perfbench/record_reference.py``.
It trains the unrelabelled dataset at full and toy size and rewrites
``perfbench/reference.json``.  Run it only when the program's training is
meant to change; the benchmark checks every run against this file.
"""

import json
import sys

import run


def main() -> int:
    run.prepare_environment()
    import numpy as np
    import workloads

    table = {}
    for toy in (False, True):
        wl = workloads.TrainN200(seed=0, toy=toy, reference={})
        out = wl.op(wl.inputs(np.arange(wl.n)))
        table[wl.key] = {
            key: out[key]
            for key in ("final_alphas", "final_loss", "probe_test_acc", "epochs", "rounds", "merges")
        }
        print(wl.key, json.dumps(table[wl.key]))
    payload = {"train-n200": table, "recorded_with": run.machine_facts()}
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
