"""The benchmark's trace checks, applied to in-process traced runs.

trials-batch: under run_trials one valley loss and one valley gradient call
before the loop and after each step, and at least as many activation calls.
train-masked: under gd_train one epoch count, one grad_net call and one
rebuild of every layer per objective call, and one rank per layer output at
each rank sample.  perfbench is read here, never edited."""

import importlib
import json
import time
from pathlib import Path

import pytest

from sparseland import Activation, ConstructionError, cli, valley_instance

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch, tmp_path):
    """perfbench's workloads module, with tmp_path, where runs write their
    manifests, as the working directory."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.chdir(tmp_path)
    return importlib.import_module("workloads")


def traced_run(capsys, argv):
    """(exit code, stdout, layer metrics) of one traced in-process CLI run."""
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return code, capsys.readouterr().out, tracing.layer_metrics(tracer.spans, wall)


def _builds_valley(kind: str) -> bool:
    try:
        valley_instance(activation=Activation(kind))
    except ConstructionError:
        return False
    return True


@pytest.mark.parametrize("kind", [k for k in cli.FLAG_KINDS if _builds_valley(k)])
def test_traced_trials_meet_the_trials_batch_trace_check(workloads, capsys, kind):
    code, out, m = traced_run(capsys, ["trials", "--activation", kind, "--n", "12",
                                       "--epochs", "300", "--seed", "0", "--json"])
    assert code == 0
    assert workloads.TRACE_CHECKS["trials-batch"](m, [out]) == []
    # the run did loop, so the counts the check compares are not all zero
    assert max(t["epochs"] for t in json.loads(out)["trials"]) > 1


def test_traced_train_meets_the_train_masked_trace_check(workloads, tmp_path, capsys):
    workloads.write_train_spec(tmp_path / "train.json", 1)
    code, out, m = traced_run(
        capsys, ["train", "--spec", "train.json", "--n", "100", "--lr", "3e-4", "--epochs", "100",
                 "--rank-every", "100", "--json"])
    assert code == 0
    assert workloads.TRACE_CHECKS["train-masked"](m, [out]) == []
    # the run trained, so the counts the check compares are not all zero
    assert json.loads(out)["epochs"] == 100 and m["network.layer_builds"] > 0
