"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

import copy
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _read_all(directory):
    return {
        name: open(os.path.join(directory, name), "rb").read()
        for name in sorted(os.listdir(directory))
    }


def test_course_files_repeat_under_one_seed_and_differ_under_another(tmp_path):
    for d in ("a", "b", "c"):
        (tmp_path / d).mkdir()
    gen.write_course_files(str(tmp_path / "a"), 5)
    gen.write_course_files(str(tmp_path / "b"), 5)
    gen.write_course_files(str(tmp_path / "c"), 6)
    a, b, c = (_read_all(tmp_path / d) for d in ("a", "b", "c"))
    assert a == b
    assert a["events.csv"] != c["events.csv"]
    assert a["attributes.csv"] != c["attributes.csv"]


def test_random_network_repeats_under_one_seed_and_differs_under_another():
    assert gen.random_network(5, 60, 6.0) == gen.random_network(5, 60, 6.0)
    assert gen.random_network(5, 60, 6.0)[0] != gen.random_network(6, 60, 6.0)[0]


def _reference_fit():
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["large_mple"]["0"]["fit_logistic"]


def test_output_check_fails_on_a_perturbed_coefficient():
    ref = _reference_fit()
    reference = {"fit_logistic": ref}
    assert workloads.check([{"op": "fit_logistic", "digest": copy.deepcopy(ref)}], reference) == []

    within = copy.deepcopy(ref)
    within["coef"][3] *= 1 + 0.1 * workloads.REL_TOL
    assert workloads.check([{"op": "fit_logistic", "digest": within}], reference) == []

    perturbed = copy.deepcopy(ref)
    perturbed["coef"][3] += 1e-4
    failures = workloads.check([{"op": "fit_logistic", "digest": perturbed}], reference)
    assert failures == ["fit_logistic: output differs from reference"]


def test_output_check_on_printed_tables_and_counts():
    reference = {"t": ["edges", "-3.308", "6320", "1.234567891e-05"]}

    def ok(tokens):
        return workloads.check([{"op": "t", "digest": tokens}], reference) == []

    assert ok(["edges", "-3.307", "6320", "1.234567892e-05"])  # last printed digit
    assert not ok(["edges", "-3.310", "6320", "1.234567891e-05"])
    assert not ok(["edges", "-3.308", "6321", "1.234567891e-05"])  # counts are exact
    assert not ok(["mutual", "-3.308", "6320", "1.234567891e-05"])
    assert not ok(["edges", "-3.308", "6320"])


def test_self_time_of_a_hand_built_span_tree():
    def span(i, parent, start, end, layer):
        return {"id": i, "parent": parent, "start": start, "end": end, "layer": layer,
                "func": f"f{i}", "tag": None, "run": 0, "counts": {}}

    tree = [
        span(0, None, 0.0, 10.0, "bench"),
        span(1, 0, 1.0, 4.0, "temporal"),
        span(2, 0, 5.0, 9.0, "temporal"),
        span(3, 2, 6.0, 8.0, "estimator"),
        span(4, 2, 7.5, 9.5, "estimator"),  # overlaps its sibling and its parent's end
    ]
    st = spans.self_times(tree)
    assert st[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert st[1] == pytest.approx(3.0)
    assert st[2] == pytest.approx(4.0 - 3.0)  # children cover 6..9 of 5..9
    assert st[3] == pytest.approx(2.0)
    assert st[4] == pytest.approx(2.0)
    m = spans.layer_metrics([tree], [])
    assert m["temporal.self_s"] == pytest.approx(4.0)
    assert m["estimator.self_s"] == pytest.approx(4.0)
    assert m["sampler.self_s"] is None


def test_missing_wrapped_name_is_absent_not_an_error():
    tracer = spans.Tracer(wrapped=(("netergm.terms", "no_such_function"),
                                   ("netergm.terms", "global_stats")))
    tracer.install()
    try:
        assert tracer.absent == ["netergm.terms.no_such_function"]
    finally:
        tracer.uninstall()
    import netergm.terms

    assert netergm.terms.global_stats.__module__ == "netergm.terms"
    assert not hasattr(netergm.terms.global_stats, "__wrapped__")


def test_failed_ratio_counts_a_forced_nonzero_cli_exit(tmp_path):
    cli = workloads.WORKLOADS["course_cli"]

    class Ctx:
        workdir = str(tmp_path)
        env = run.child_env(ROOT)
        tracer = None

    log = workloads.PassLog()
    missing = str(tmp_path / "missing.csv")
    cli.run_command(Ctx, log, "fit",
                    ["fit", "--edges", missing, "--attrs", missing, "--out-dir", str(tmp_path)])
    assert log.ops == [{"op": "fit", "error": "exit code 1"}]
    log.ops.append({"op": "export", "digest": {"nodes": 3}})
    results = [{"passes": [{"wall_s": 1.0, "traced": False, "ops": log.ops,
                            "peak_rss_mib": 50.0}],
                "setup_s": 0.5, "rss_mib": 60.0, "spans": [], "absent": []}]
    summary = run.summarize("course_cli", results, {"export": {"nodes": 3}})
    assert summary["attempted"] == 2
    assert summary["failed"] == 1
    assert summary["end_to_end"]["ok_ratio"] == 0.5


def test_scipy_import_time_counts_outermost_scipy_modules_once():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     scipy.linalg._x",
        "import time:       400 |        450 |   scipy.linalg",
        "import time:        10 |        760 | netergm.estimator",
        "import time:        10 |         10 | numpy",
    ])
    assert run.scipy_import_s(log) == pytest.approx(750e-6)


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        spans.PER_LAYER)
    metrics = spans.layer_metrics([], [])
    assert set(metrics) | {"trace.overhead_s"} == {m[0] for m in spans.PER_LAYER}
