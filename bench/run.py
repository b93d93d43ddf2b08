"""The netergm benchmark.

Runs one workload for a fixed time and prints, as the last line of standard
output, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. Run it from the repository root; the package is imported
from ``src/``.

    python3 bench/run.py --workload large_mple --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload all

With ``--trace 0`` the metrics are the end-to-end ones, measured over
``ROUNDS`` fresh worker processes. With ``--trace 1`` they are the
per-layer ones, from one worker whose untraced and traced passes alternate.
``--workload all`` runs every workload in turn and ends with a summary
table. A fuller record of each run, with machine facts, every sample and,
when traced, every span, is written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

from spans import PER_LAYER, layer_metrics
from workloads import BENCH_DIR, WORKLOADS, check, run_child, variant

# Fresh worker processes per untraced run; set-up time is their median.
ROUNDS = 3
PROBE_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_ratio", "ratio"),
)


# One BLAS thread. On a shared 2-vCPU machine, two OpenBLAS threads made the
# pooled fits twice as slow and the pass-to-pass spread three to four times
# as wide, because each thread waits for the other whenever a neighbour
# takes a core.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def child_env(root):
    """Environment of every child: the package from ``src``, one BLAS thread,
    and bytecode caching on, as after an install. Without the cache each CLI
    process compiles the package again, about 0.1 s of its 0.6 s."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update((var, "1") for var in BLAS_THREAD_VARS)
    return env


def load_reference():
    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------ machine facts


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _lscpu():
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    keep = {"Model name": "cpu", "L2 cache": "l2", "L3 cache": "l3"}
    facts = {}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in keep:
            facts[keep[key.strip()]] = value.strip()
    return facts


def _source_sha256(root):
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "netergm", "**", "*.py"),
                                 recursive=True)):
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def machine_facts(root, seed):
    cpu = _lscpu()
    cube_mib = 22 * 800 * 800 * 8 / 2.0 ** 20
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        **cpu,
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(root),
        "seed": seed,
        "variant": variant(seed),
        "note": (
            "Measured on a shared sandbox: other tenants share the cores, "
            "caches and memory bandwidth, so compare runs only against runs "
            "made on the same machine. "
            f"large_mple's 22x800x800 float64 change-statistic cube is "
            f"{cube_mib:.0f} MiB, against an L3 reported as {cpu.get('l3', 'unknown')}; "
            "its peak memory is a working-set measure, not a bandwidth figure."
        ),
    }


# ------------------------------------------------------------ CLI probes


def scipy_import_s(importtime_log: str) -> float:
    """Seconds spent importing scipy, from ``python -X importtime`` output:
    the cumulative times of scipy modules imported by non-scipy modules."""
    rows = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))

    def is_scipy(mod):
        return mod == "scipy" or mod.startswith("scipy.")

    total = 0
    for k, (depth, name, cumulative) in enumerate(rows):
        if not is_scipy(name):
            continue
        # importtime lists a module after everything it imported
        parent = next((r for r in rows[k + 1:] if r[0] < depth), None)
        if parent is None or not is_scipy(parent[1]):
            total += cumulative
    return total / 1e6


def probe_cli(env) -> dict:
    """Interpreter start-up, ``import netergm.cli`` and its scipy share."""
    py = sys.executable
    timed_import = (
        "import time; t = time.perf_counter(); import netergm.cli; "
        "print(time.perf_counter() - t)"
    )

    def out(argv, stream):
        res = subprocess.run(argv, env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        return getattr(res, stream)

    return {
        "interp_s": statistics.median(
            run_child([py, "-c", "pass"], env)[2] for _ in range(PROBE_REPEATS)),
        "import_s": statistics.median(
            float(out([py, "-c", timed_import], "stdout")) for _ in range(PROBE_REPEATS)),
        "import_scipy_s": statistics.median(
            scipy_import_s(out([py, "-X", "importtime", "-c", "import netergm.cli"], "stderr"))
            for _ in range(PROBE_REPEATS)),
    }


# ------------------------------------------------------------ one workload


def run_rounds(name, seed, seconds, trace, env):
    """Spawn the worker rounds one at a time; returns their results.

    Round r passes until ``(r + 1) / rounds`` of ``seconds`` after the start,
    so rounds that finish early leave their time to the next."""
    os.makedirs(os.path.join(BENCH_DIR, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(BENCH_DIR, ".work"))
    rounds = 1 if trace else ROUNDS
    results = []
    run_start = time.perf_counter()
    try:
        for r in range(rounds):
            rdir = os.path.join(workdir, f"round{r}")
            os.makedirs(rdir)
            result_path = os.path.join(rdir, "result.json")
            err_path = os.path.join(rdir, "stderr.txt")
            deadline = run_start + seconds * (r + 1) / rounds
            argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), name, str(seed),
                    repr(deadline), "1" if trace else "0", result_path, rdir]
            start = time.perf_counter()
            with open(err_path, "w", encoding="utf-8") as err:
                code, rss, _ = run_child(argv, env, stderr=err)
            if code != 0:
                with open(err_path, encoding="utf-8") as fh:
                    raise WorkerFailed(f"{name} worker exited {code}:\n{fh.read()[-4000:]}")
            with open(result_path, encoding="utf-8") as fh:
                res = json.load(fh)
            res["setup_s"] = res["setup_done"] - start
            res["rss_mib"] = rss
            results.append(res)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return results


def summarize(name, results, reference, probes=None):
    passes = [p for r in results for p in r["passes"]]
    ops = [op for p in passes for op in p["ops"]]
    failures = check(ops, reference)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if name == "course_cli":
        rss = [p["peak_rss_mib"] for p in untraced]
    else:
        rss = [r["rss_mib"] for r in results]
    samples = {
        "setup_s": [r["setup_s"] for r in results],
        "wall_s": [p["wall_s"] for p in untraced],
        "peak_rss_mib": rss,
    }
    e2e = {k: statistics.median(v) for k, v in samples.items()}
    e2e["ok_ratio"] = (len(ops) - len(failures)) / len(ops) if ops else 0.0
    summary = {
        "workload": name,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "end_to_end": e2e,
        "samples": samples,
    }
    if traced:
        spans = [s for r in results for s in r["spans"]]
        units = {}
        for s in spans:
            units.setdefault(s["run"], []).append(s)
        pass_units = [u for run, u in units.items() if run != "setup"]
        layer = layer_metrics(pass_units, [units.get("setup", [])], probes)
        layer["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in untraced)
        )
        summary["per_layer"] = layer
        summary["traced_wall_s"] = [p["wall_s"] for p in traced]
        summary["absent_spans"] = sorted({a for r in results for a in r["absent"]})
        summary["spans"] = spans
    return summary


def print_summary(summary, trace):
    name = summary["workload"]
    units = dict(END_TO_END)
    attempted, failed = summary["attempted"], summary["failed"]
    for key, value in summary["end_to_end"].items():
        n = len(summary["samples"].get(key, ()))
        base = f"median of {n}" if n else f"{attempted - failed}/{attempted} operations"
        print(f"{name:16s} {key:14s} {value:12.6g} {units[key]:6s} ({base})")
    print(f"{name:16s} {'failed_ratio':14s} {failed / max(attempted, 1):12.6g} "
          f"{'ratio':6s} ({failed}/{attempted} operations)")
    for reason in summary["failures"][:10]:
        print(f"{name:16s} FAILED {reason}")
    if trace:
        per_unit = {m[0]: m[1] for m in PER_LAYER}
        for key, value in summary["per_layer"].items():
            shown = "absent" if value is None else f"{value:12.6g} {per_unit[key]}"
            print(f"{name:16s} {key:36s} {shown}")
        if summary["absent_spans"]:
            print(f"{name:16s} wrapped names not found: {', '.join(summary['absent_spans'])}")


def run_one(name, seed, seconds, trace, root, facts):
    env = child_env(root)
    results = run_rounds(name, seed, seconds, trace, env)
    probes = probe_cli(env) if trace else None
    reference = load_reference().get(name, {}).get(str(variant(seed)), {})
    summary = summarize(name, results, reference, probes)
    print_summary(summary, trace)
    facts = {**facts, "blas": results[0]["blas"]}
    print(json.dumps({"machine": facts}))
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    path = os.path.join(BENCH_DIR, "out", f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"facts": facts, "seconds": seconds, **summary}, fh)
    print(f"{name:16s} record: {os.path.relpath(path, root)}")
    if trace:
        metrics = {m: {"value": summary["per_layer"][m] or 0.0, "unit": u}
                   for m, u, _ in PER_LAYER}
    else:
        metrics = {m: {"value": summary["end_to_end"][m], "unit": u} for m, u in END_TO_END}
    return summary, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "netergm", "__init__.py")):
        print("error: src/netergm not found; run from the repository root", file=sys.stderr)
        return 2
    facts = machine_facts(root, args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            summary, metrics = run_one(name, args.seed, args.seconds, trace, root, facts)
            totals["attempted"] += summary["attempted"]
            totals["failed"] += summary["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            totals["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    totals["correct"] = totals["failed"] == 0
    print(json.dumps(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
