"""One round of a benchmark run, in a fresh process.

Sets up the workload, then runs timed passes while the next one is
expected to end before the deadline, and writes what it measured to a JSON
file. The deadline is a ``time.perf_counter`` reading, which on Linux is
CLOCK_MONOTONIC and so shared with the parent. With tracing on,
untraced and traced passes alternate so that the tracing overhead can be
read from their difference; set-up is traced too, its warm-up is not.

    python bench/worker.py WORKLOAD SEED DEADLINE TRACE RESULT_JSON WORKDIR
"""

import ctypes
import json
import os
import statistics
import sys
import time
import warnings

from spans import Tracer
from workloads import WORKLOADS, PassLog, variant


def blas_facts():
    """BLAS library and thread count as numpy loaded it in this process."""
    import numpy

    info = {"name": None, "config": None, "threads": None}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {ln.split()[-1] for ln in fh if "blas" in ln.lower() and "/" in ln}
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None:
                    info["threads"] = threads()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
    return info


class Context:
    """What a workload's set-up leaves for its passes."""

    def __init__(self, seed, workdir):
        self.variant = variant(seed)
        self.workdir = workdir
        self.env = dict(os.environ)
        self.tracer = None
        self.pass_rss = None


def main() -> int:
    name, seed, deadline, trace, result_path, workdir = sys.argv[1:7]
    deadline, trace = float(deadline), trace == "1"
    workload = WORKLOADS[name]
    in_process = name != "course_cli"
    warnings.simplefilter("ignore")
    ctx = Context(int(seed), workdir)
    tracer = Tracer() if trace else None

    if tracer is not None and in_process:
        tracer.run = "setup"
        tracer.install()
        ctx.tracer = tracer
    workload.setup(ctx)
    if tracer is not None:
        tracer.uninstall()
    workload.warm_up(ctx)
    setup_done = time.perf_counter()

    passes = []
    min_passes = 2 if trace else 1
    while True:
        traced = trace and len(passes) % 2 == 1
        ctx.tracer = tracer if traced else None
        root = None
        if traced:
            tracer.run = len(passes)
            if in_process:
                tracer.install()
            root = tracer.open("bench.pass", None, "bench")
        log = PassLog()
        start = time.perf_counter()
        workload.run_pass(ctx, log)
        wall = time.perf_counter() - start
        if traced:
            tracer.close(root)
            tracer.uninstall()
        passes.append({"wall_s": wall, "traced": traced, "ops": log.ops,
                       "peak_rss_mib": ctx.pass_rss})
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= min_passes and time.perf_counter() + typical > deadline:
            break

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({
            "setup_done": setup_done,
            "passes": passes,
            "spans": tracer.spans if tracer is not None else [],
            "absent": tracer.absent if tracer is not None else [],
            "blas": blas_facts(),
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
