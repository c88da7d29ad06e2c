"""Record the desk_sweep reference outputs for every instance seed.

    python3 bench/make_reference.py

Writes ``bench/reference_desk.json``: for each instance seed 0 ..
``REFERENCE_SEEDS``-1 (see ``workloads.py``), each operation's final
value (the final residual of a run, the fitted slope of a figure curve)
and the sha256 prefix of the file it wrote. Record it at the
commit whose outputs later commits must reproduce; a change that moves
an output must say why.
"""

import json
import os
import shutil
import sys
import tempfile

import run


def main():
    run.prepare()
    import probe as pr
    import workloads as wl

    names, seeds = None, {}
    os.makedirs(run.OUT_DIR, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="reference-", dir=run.OUT_DIR)
    try:
        for seed in range(wl.REFERENCE_SEEDS):
            probe = pr.Probe(seed)
            with probe.patched():
                outputs = wl.desk_sweep(probe, seed, out_dir)
            errors = [name for name, out in outputs.items() if out.error]
            if errors:
                raise SystemExit(f"seed {seed}: runs ended in errors: {errors}")
            record = wl.desk_record(outputs)
            names = names or list(record)
            seeds[str(seed)] = [record[name] for name in names]
            print(f"seed {seed} recorded", file=sys.stderr)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    table = {"K": wl.DESK_K, "names": names, "seeds": seeds}
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
