"""Record the reference outputs that benchmark runs are checked against.

    python3 perfbench/make_reference.py --seeds 0-19 [--workload train_desk]

For each workload and seed this runs the workload's check training once, the
way a benchmark run does after its timed rounds, and stores its final training
loss and held-out (validation) BLEU in perfbench/reference.json. Run it on a
commit whose outputs are trusted; a later commit must reproduce them.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def reference_outputs(w, seed: int, workdir: Path) -> dict:
    import workloads as wl

    inputs = wl.make_inputs(w, seed, workdir)
    state = wl.setup(w, inputs, seed)
    history = wl.check_training(w, state)
    bleu = history.epochs[-1].val_bleu
    return {
        "final_train_loss": history.epochs[-1].train_loss,
        "heldout_bleu": None if math.isnan(bleu) else bleu,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))

    from environment import pin_blas_threads

    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    path = HERE / "reference.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    workdir = ROOT / ".perfbench" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for name in args.workload or list(wl.WORKLOADS):
            for seed in range(first, last + 1):
                table.setdefault(name, {})[str(seed)] = reference_outputs(wl.WORKLOADS[name], seed, workdir)
                print(name, seed, table[name][str(seed)], flush=True)
                path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
