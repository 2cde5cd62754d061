"""Write the reference records of every workload at the default seed.

Usage (from the repository root): python3 perfbench/make_reference.py

The gate compares every record of a default-seed run with these files,
within its tolerance.  Regenerate them only when a change is meant to
alter records by more than that tolerance, and say so in the change.
"""

from __future__ import annotations

import os
import shutil
import sys

import run  # pins BLAS threads before numpy loads

import numpy as np  # noqa: E402


def main():
    run.import_program()
    import gate
    import workloads

    os.makedirs(gate.REFERENCE_DIR, exist_ok=True)
    seed = workloads.DEFAULT_SEED
    for name in workloads.WORKLOADS:
        work = os.path.join(run.WORK, "reference", name)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        commands, _ = workloads.prepare(name, seed, work, run.ROOT)
        done = run.Pass(commands, seed, work)
        arrays = {}
        for cmd, code, out in zip(commands, done.exit_codes, done.out_dirs):
            if code != 0:
                sys.exit(f"{name}/{cmd.name} exited {code} at the default seed")
            res = gate.read_result(cmd, code, out)
            arrays[f"{cmd.name}.records"] = res.records
            arrays[f"{cmd.name}.reps"] = np.array(cmd.reps)
            arrays[f"{cmd.name}.discarded"] = np.array(res.report["discarded"])
            if "excursions" in res.report["moments"]:
                arrays[f"{cmd.name}.excursions"] = np.array(res.report["moments"]["excursions"])
        np.savez_compressed(gate.reference_path(name), **arrays)
        print(f"{name}: {done.records} records -> {gate.reference_path(name)}")


if __name__ == "__main__":
    main()
