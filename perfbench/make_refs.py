"""Record the reference outputs the benchmark checks every op against.

The references pin the behaviour of the commit that introduced the benchmark;
re-recording them on a later commit would make the check vacuous, so run this
only to add a reference for a new seed or workload.  From the repository root::

    python3 perfbench/make_refs.py

Writes ``perfbench/ref/repro/*.gz`` and ``perfbench/ref/sweep/*.gz`` (the
exact output files, gzipped) and ``perfbench/ref/walk_large/seed<N>.npz`` (the
light-cone window of ``p_cell`` plus the generated config) for the default
seed and one held-out seed.
"""

from __future__ import annotations

import gzip
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

WALK_SEEDS = (0, 7919)  # default seed of run.py, and one held out from tuning


def _record_files(workload, out_dir: Path) -> None:
    result = workload.run({}, out_dir)
    target = workloads.REF_DIR / workload.name
    target.mkdir(parents=True, exist_ok=True)
    for name in workload.files:
        data = (out_dir / name).read_bytes()
        (target / (name + ".gz")).write_bytes(gzip.compress(data, mtime=0))
    check = workload.verify({}, out_dir, result, workload.load_reference(0, {}))
    if not check.ok or check.bytes_identical != len(workload.files):
        raise SystemExit(f"{workload.name}: recorded reference fails its own check: {check}")


def _record_walk(seed: int, work_dir: Path) -> None:
    walk = workloads.WORKLOADS["walk_large"]
    inputs = walk.make_inputs(seed, work_dir)
    report, obs = walk.run(inputs, work_dir)
    lo, hi = walk.reference_window(inputs)
    if obs.p_cell[:, :lo].any() or obs.p_cell[:, hi:].any():
        raise SystemExit(f"seed {seed}: probability outside the reference window")
    target = workloads.REF_DIR / walk.name
    target.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        target / f"seed{seed}.npz", config=np.array(inputs["config_text"]), p_window=obs.p_cell[:, lo:hi]
    )
    check = walk.verify(inputs, work_dir, (report, obs), walk.load_reference(seed, inputs))
    if not check.ok:
        raise SystemExit(f"seed {seed}: recorded reference fails its own check: {check}")


def main() -> None:
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name in ("repro", "sweep"):
            out_dir = Path(tmp) / name
            out_dir.mkdir()
            _record_files(workloads.WORKLOADS[name], out_dir)
        for seed in WALK_SEEDS:
            _record_walk(seed, Path(tmp))
    print(f"references written under {workloads.REF_DIR}")


if __name__ == "__main__":
    main()
