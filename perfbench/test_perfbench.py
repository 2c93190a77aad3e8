"""Tests of the benchmark itself: tracer, work counts, gates, contract.

    python3 -m pytest -q perfbench

The workload tests run real repetitions in fresh processes, about a
minute in all on a 2-core machine.
"""

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

import repetition  # puts the checkout's src on sys.path
import run
import spans
import srplearn
import srplearn.bench
import srplearn.distance
import srplearn.elm
import srplearn.kernel
import srplearn.persistence

# Layers each workload must call in its timed part, from the
# layer-to-metric table in README.md: a layer listed as moving a metric
# on a workload.
LAYERS_BY_WORKLOAD = {
    "bench-mix": [
        "projection.generate", "projection.apply", "ridge.press",
        "distance.jaccard", "distance.sqeuclid", "sparse.gram",
        "kernel.matrix", "kernel.krr_fit", "kernel.krr_predict", "kernel.knn",
        "logreg.select", "logreg.fit", "elm.fit", "elm.predict",
        "datasets.synth", "sparse.take_rows", "metrics.auc",
        "metrics.summarize", "matio.write", "bench",
    ],
    "sweep-wide": [
        "projection.generate", "ridge.press", "elm.fit", "elm.predict",
        "datasets.synth", "metrics.auc", "matio.write", "bench",
    ],
    "score-stream": [
        "projection.generate", "projection.apply", "distance.jaccard",
        "sparse.gram", "kernel.matrix", "kernel.krr_predict", "elm.predict",
        "datasets.read_svmlight", "persistence.load",
    ],
}
# Layers score-stream's set-up calls (fitting and saving the models).
SCORE_STREAM_SETUP = [
    "datasets.synth", "projection.generate", "elm.fit", "kernel.matrix",
    "kernel.krr_fit", "matio.write",
]
# Layers only set-up calls, never score-stream's timed part.
NOT_IN_SCORING = ["datasets.synth", "elm.fit", "kernel.krr_fit", "ridge.press"]
NOT_ON_SWEEP = [
    "distance.jaccard", "distance.sqeuclid", "sparse.gram", "kernel.matrix",
    "kernel.krr_fit", "kernel.krr_predict", "kernel.knn", "logreg.select",
    "logreg.fit",
]


def _originals():
    out = {}
    for _layer, module, attr, _counts in spans.LAYERS:
        owner = sys.modules[module]
        if "." in attr:
            cls, method = attr.split(".")
            out[attr] = getattr(owner, cls).__dict__[method]
        else:
            out[attr] = getattr(owner, attr)
    return out


def test_wrappers_replace_every_binding_and_restore():
    originals = _originals()
    modules = spans._srplearn_modules()
    with spans.Tracer().installed():
        for module in modules:
            for name, value in vars(module).items():
                assert not any(value is f for f in originals.values()), (
                    f"{module.__name__}.{name} still unwrapped"
                )
        assert srplearn.SparseBinaryMatrix.take_rows is not originals[
            "SparseBinaryMatrix.take_rows"]
        # the modules that bind layer functions with `from .x import y`
        assert srplearn.bench.cmd_bench is not originals["cmd_bench"]
        assert srplearn.elm.solve_ridge_press is not originals["solve_ridge_press"]
        assert srplearn.kernel.jaccard_distance_matrix is not originals[
            "jaccard_distance_matrix"]
        assert srplearn.distance.sparse_gram is not originals["sparse_gram"]
        assert srplearn.persistence.make_projection is not originals["make_projection"]
    assert _originals() == originals


def test_self_time_and_same_layer_nesting():
    tracer = spans.Tracer()
    inner = tracer._wrap("kernel.krr_predict", lambda: sum(range(20000)), {})
    outer = tracer._wrap("kernel.krr_predict", lambda: inner() + inner(), {})
    top = tracer._wrap("elm.predict", outer, {})
    top()
    t, o = tracer.spans[0], tracer.spans[1]
    m = tracer.metrics()
    # the nested same-layer calls count once, inside the outer duration
    assert m["kernel.krr_predict.calls"] == 1 and m["elm.predict.calls"] == 1
    assert m["kernel.krr_predict.s"] == o.end - o.start
    assert m["kernel.krr_predict.self_s"] == pytest.approx(o.end - o.start)
    assert m["elm.predict.self_s"] == pytest.approx(
        (t.end - t.start) - (o.end - o.start))


def test_span_stacks_are_per_thread():
    tracer = spans.Tracer()
    entered = threading.Event()
    release = threading.Event()

    def block():
        entered.set()
        assert release.wait(10)

    blocking = tracer._wrap("a", block, {})
    other = tracer._wrap("b", lambda: None, {})
    worker = threading.Thread(target=blocking)
    worker.start()
    assert entered.wait(10)
    other()  # runs while "a" is open on the worker thread
    release.set()
    worker.join(10)
    assert not worker.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["b"].parent is None
    assert by_name["a"].parent is None


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """For each workload: two traced and one untraced repetition, seed 3."""
    out = {}
    for workload in repetition.WORKLOADS:
        recs = []
        for i, traced in enumerate((True, True, False)):
            work_dir = str(tmp_path_factory.mktemp(f"{workload}{i}"))
            recs.append(run.run_repetition(workload, 3, work_dir, traced, 170))
        out[workload] = recs
    return out


@pytest.mark.parametrize("workload", repetition.WORKLOADS)
def test_traced_outputs_match_untraced(records, workload):
    traced_a, traced_b, plain = records[workload]
    assert traced_a["digest"] == traced_b["digest"] == plain["digest"]
    for rec in records[workload]:
        assert all(rec["gates"].values()), rec["gates"]
        assert rec["failed"] == 0 and rec["attempted"] > 0


@pytest.mark.parametrize("workload", repetition.WORKLOADS)
def test_listed_layers_are_called(records, workload):
    layers = records[workload][0]["layers"]
    missing = [l for l in LAYERS_BY_WORKLOAD[workload] if layers[f"{l}.calls"] < 1]
    assert not missing


@pytest.mark.parametrize("workload", repetition.WORKLOADS)
def test_setup_and_timed_spans_are_kept_apart(records, workload):
    layers = records[workload][0]["layers"]
    setup_calls = {k: v for k, v in layers.items()
                   if k.startswith("setup.") and k.endswith(".calls")}
    if workload != "score-stream":
        # set-up is imports and config parsing: no srplearn layer runs
        assert not any(setup_calls.values())
        return
    assert all(layers[f"setup.{l}.calls"] >= 1 for l in SCORE_STREAM_SETUP)
    assert all(layers[f"{l}.calls"] == 0 for l in NOT_IN_SCORING)
    # one projection regenerated by load_model, one batch per read
    assert layers["projection.generate.calls"] == 1
    assert layers["datasets.read_svmlight.calls"] == \
        repetition.SCORE_STREAM["n_batches"]


def test_sweep_makes_no_distance_kernel_or_logreg_calls(records):
    layers = records["sweep-wide"][0]["layers"]
    assert all(layers[f"{l}.calls"] == 0 for l in NOT_ON_SWEEP)
    assert layers["distance.jaccard.pairs"] == layers["distance.sqeuclid.pairs"] == 0


@pytest.mark.parametrize("workload", repetition.WORKLOADS)
def test_work_counts_repeat_exactly(records, workload):
    a, b = records[workload][0]["layers"], records[workload][1]["layers"]
    counts = {k: v for k, v in a.items() if isinstance(v, int)}
    assert counts == {k: b[k] for k in counts}
    for key in ("projection.generate.rows", "projection.generate.nnz",
                "ridge.press.rows", "ridge.press.cols"):
        assert counts[key] + counts[f"setup.{key}"] > 0


def test_reported_metric_names_match_benchmark_json(records):
    spec = run.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(repetition.WORKLOADS)
    names = spans.layer_metric_names()
    produced = set(names) | {f"setup.{n}" for n in names} | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= produced
    for recs in records.values():
        assert all(m["name"] in recs[2] for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_summary_gates_and_failed_units(records):
    spec = run.load_spec()
    reps = [(True, records["bench-mix"][0]), (False, records["bench-mix"][2])]
    result = run.summarize("bench-mix", reps, True, spec)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    broken = dict(records["bench-mix"][2], digest="0")
    result = run.summarize("bench-mix", [(False, records["bench-mix"][2]),
                                         (False, broken)], False, spec)
    assert not result["correct"]
    assert result["failed"] == broken["attempted"]


def test_run_fails_without_program_source(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bench-mix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
