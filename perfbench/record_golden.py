"""Record the output hashes behind the merge-tiles and count-site checks.

    python3 perfbench/record_golden.py

For seeds 0-63, runs the full-size ``merge`` and ``count`` operations with
the palmpat in ``src/`` and writes the SHA-256 of every output file to
perfbench/golden.json, replacing it. Each output must first equal the
benchmark's own oracle rendering; the existing golden.json is not consulted.
Run it only at a commit whose outputs are the reference: later commits must
reproduce these bytes (NMS equal to ``brute_nms``, the same match tie order).
"""
import contextlib
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

SEEDS = range(64)


def main():
    work = HERE.parent / ".perfbench_work" / "golden"
    golden = {}
    try:
        for cls in (workloads.MergeTiles, workloads.CountSite):
            for seed in SEEDS:
                w = cls(work / f"{cls.name}-{seed}")
                w.generate(seed)
                want = w.oracle_outputs()
                code, _ = w.op(0)
                got = {name: workloads.sha256_file(w.out / name) for name in want}
                if code != 0 or got != want:
                    sys.exit(f"{cls.name} seed {seed}: exit code {code}, outputs {got}, "
                             f"oracle {want}")
                golden.setdefault(cls.name, {})[str(seed)] = got
                print(cls.name, seed, "recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
