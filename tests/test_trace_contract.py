"""The benchmark's trace check of trials-batch, applied to an in-process
traced `trials` run: under run_trials one valley loss and one valley gradient
call before the loop and after each step, and at least as many activation
calls.  perfbench is read here, never edited."""

import importlib
import json
import time
from pathlib import Path

from sparseland import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_trials_meet_the_trials_batch_trace_check(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.chdir(tmp_path)  # the run writes its manifest here
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        code = cli.main(["trials", "--n", "12", "--epochs", "300", "--seed", "0", "--json"])
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    out = capsys.readouterr().out
    assert code == 0
    m = tracing.layer_metrics(tracer.spans, wall)
    assert workloads.TRACE_CHECKS["trials-batch"](m, [out]) == []
    # the run did loop, so the counts the check compares are not all zero
    assert max(t["epochs"] for t in json.loads(out)["trials"]) > 1
