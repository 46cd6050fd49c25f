"""Regenerate ``reference.json``: Galerkin-vector sketches at the default seed.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 \\
        python3 perfbench/make_reference.py

Runs the first pass of every workload at ``DEFAULT_SEED`` and stores, keyed
by the SHA-256 of the config text, the norm and sketch of the evolve
``final.snap`` payload, of every successful ``solution.snap``, and of the
probe's ``h3_integral`` column.  Regenerate only when the reference outputs
are meant to change; the checks compare against it to 1e-12 relative.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from checks import config_key, float_columns, sketch, snapshot_vector
from workloads import DEFAULT_SEED, WORKLOADS


def vector_of(op, out):
    if op.kind == "evolve":
        return snapshot_vector(out / "final.snap")
    if op.kind == "solve":
        return snapshot_vector(out / "solution.snap")
    if op.kind == "probe-uniqueness":
        return float_columns(out / "probe.csv", ["h3_integral"])["h3_integral"]
    return None


def main():
    import nsab.cli

    reference = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        tmp = Path(tmp)
        for workload in WORKLOADS.values():
            for op in workload.ops_for_pass(DEFAULT_SEED, 0):
                cfg, out = tmp / "op.cfg", tmp / "out"
                cfg.write_text(op.config)
                code = nsab.cli.main([op.kind, "--config", str(cfg), "--out", str(out)])
                vec = vector_of(op, out) if code == 0 else None
                if vec is not None:
                    norm, y = sketch(vec)
                    reference[config_key(op.config)] = {
                        "label": op.label, "norm": norm, "sketch": y.tolist()}
                    print(f"{op.label}: norm {norm!r}", file=sys.stderr)
                shutil.rmtree(out, ignore_errors=True)
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
