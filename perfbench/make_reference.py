"""Generate the stored fine-mesh reference of the shock workload.

Run from the repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_reference.py

It runs ``aderfv.run`` on the unshifted Shu-Osher preset at 4x the
workload's mesh and writes the final cell averages (``.npy``) plus a
``.json`` with the generating command and the sha256 of the ``.npy`` file.
"""
from __future__ import annotations

import hashlib
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import aderfv  # noqa: E402
from aderfv.harness import build_config, make_case  # noqa: E402
from workloads import REFERENCE_REFINEMENT, WORKLOADS, reference_paths  # noqa: E402


def main():
    w = WORKLOADS["shock-o3"]
    cells = w.cells * REFERENCE_REFINEMENT
    case = make_case(w.preset, beta=w.beta)
    config = build_config(case, order=w.order, cells=cells, cfl=w.cfl,
                          t_out=w.t_out, n_threads=2)
    start = time.perf_counter()
    result = aderfv.run(config)
    seconds = time.perf_counter() - start
    buf = io.BytesIO()
    np.save(buf, result.field.averages)
    raw = buf.getvalue()
    data_path, meta_path = reference_paths(w)
    data_path.parent.mkdir(parents=True, exist_ok=True)
    data_path.write_bytes(raw)
    meta = {
        "command": "OPENBLAS_NUM_THREADS=1 PYTHONPATH=src "
                   "python3 perfbench/make_reference.py",
        "preset": w.preset, "order": w.order, "cells": cells,
        "cfl": config.cfl, "t_out": w.t_out, "boundary": config.boundary,
        "n_steps": result.n_steps, "t_final": result.t_final,
        "sha256": hashlib.sha256(raw).hexdigest(),
    }
    meta_path.write_text(json.dumps(meta, indent=2) + "\n")
    print(f"wrote {data_path.name} ({result.n_steps} steps, {seconds:.1f} s)")


if __name__ == "__main__":
    main()
