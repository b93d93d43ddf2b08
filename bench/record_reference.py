"""Record the reference outputs that the benchmark's output check compares
against: one pass of every workload on every input variant.

Run from the repository root, on the commit whose outputs are the
reference, then commit ``bench/reference.json``:

    python3 bench/record_reference.py [WORKLOAD ...]
"""

import json
import os
import shutil
import sys
import tempfile

from run import child_env, load_reference
from workloads import BENCH_DIR, VARIANTS, WORKLOADS, run_child


def record(name, v, env):
    os.makedirs(os.path.join(BENCH_DIR, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"ref-{name}-", dir=os.path.join(BENCH_DIR, ".work"))
    try:
        result_path = os.path.join(workdir, "result.json")
        argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), name, str(v),
                "0", "0", result_path, workdir]  # deadline 0: one pass
        code, _, _ = run_child(argv, env, stderr=None)
        if code != 0:
            raise SystemExit(f"{name} variant {v}: worker exited {code}")
        with open(result_path, encoding="utf-8") as fh:
            ops = json.load(fh)["passes"][0]["ops"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    errors = [op for op in ops if "error" in op]
    if errors:
        raise SystemExit(f"{name} variant {v}: {errors}")
    return {op["op"]: op["digest"] for op in ops}


def main() -> int:
    names = sys.argv[1:] or list(WORKLOADS)
    env = child_env(os.getcwd())
    path = os.path.join(BENCH_DIR, "reference.json")
    reference = load_reference() if os.path.exists(path) else {}
    for name in names:
        reference[name] = {str(v): record(name, v, env) for v in range(VARIANTS)}
        print(f"recorded {name}: {VARIANTS} variants", flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
