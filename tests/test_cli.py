import argparse
import ast
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparseland
from sparseland import __version__, net_to_json
from sparseland.cli import HANDLERS, _payload_digest, _subparser, build_parser, main


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    # manifests default into the working directory
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_minimum(workdir, capsys):
    code, cap = run_cli(["verify", "sd-minimum"], capsys)
    assert code == 0
    assert "strict_probe_pass: True" in cap.out
    manifest = json.loads((workdir / "verify.manifest.json").read_text())
    assert manifest["command"] == "verify"
    assert manifest["exit_code"] == 0
    assert manifest["config"]["instance"] == "sd-minimum"


def test_verify_valley_json_payload(workdir, capsys):
    code, cap = run_cli(["verify", "ss-valley", "--probes", "500", "--json"], capsys)
    assert code == 0
    payload = json.loads(cap.out)
    assert payload["verified"] is True
    assert payload["valley_loss"] == 4.0
    assert payload["probe"]["falsifications"] == 0


def test_verify_valley_bad_constraints_fails(workdir, capsys):
    # y3 = 6 < 4 * y4: builds, probes, but cannot verify
    code, cap = run_cli(["verify", "ss-valley", "--y", "1,2,6,2"], capsys)
    assert code == 1
    assert "constraints ok: False" in cap.out


def test_verify_conv_valley(workdir, capsys):
    code, cap = run_cli(["verify", "cnn-same-valley", "--json"], capsys)
    assert code == 0
    payload = json.loads(cap.out)
    assert [e["a"] for e in payload["scales"]] == [0.5, 1.0, 2.0]
    assert all(e["witness_loss"] == 0.0 for e in payload["scales"])


@pytest.mark.parametrize("argv,flag,value", [
    (["verify", "sd-minimum", "--probes", "0"], "--probes", "0"),
    (["verify", "sd-minimum", "--probes", "-1"], "--probes", "-1"),
    (["verify", "ss-valley", "--probes", "0"], "--probes", "0"),
    (["verify", "cnn-same-valley", "--probes", "0"], "--probes", "0"),
    (["trials", "--n", "0"], "--n", "0"),
    (["rank", "--n", "0"], "--n", "0"),
    (["rank", "--n", "-1"], "--n", "-1"),
    (["path", "--groups", "-1"], "--groups", "-1"),
    (["train", "--dims", "3,4,1", "--n", "0", "--epochs", "5"], "--n", "0"),
    (["train", "--dims", "3,4,1", "--epochs", "-1"], "--epochs", "-1"),
    (["train", "--dims", "3,4,1", "--rank-every", "-1"], "--rank-every", "-1"),
    (["trials", "--n", "3", "--epochs", "-1"], "--epochs", "-1"),
    (["path", "--n", "0"], "--n", "0"),
    (["path", "--samples", "0"], "--samples", "0"),
    *[(argv + ["--lr", lr], "--lr", lr)
      for argv in (["train", "--dims", "3,4,1", "--epochs", "5"], ["trials", "--n", "2", "--epochs", "5"])
      for lr in ("-1", "0", "nan")],
    (["trials", "--n", "2", "--y", "1,2"], "--y", "1,2"),
    (["verify", "ss-valley", "--y", "1,2,3,4,5"], "--y", "1,2,3,4,5"),
    (["trials", "--seed", "-1"], "--seed", "-1"),
    (["rank", "--dims", "3,0,2"], "--dims", "3,0,2"),
    (["train", "--dims", "3,-1,1"], "--dims", "3,-1,1"),
    (["conv-rank", "--mode", "same", "--d", "0", "--kernel", "1"], "--d", "0"),
    (["conv-rank", "--mode", "same", "--d", "-1", "--kernel", "1"], "--d", "-1"),
    (["path", "--groups", "0"], "--groups", "0"),
    (["train", "--dims", "3"], "--dims", "3"),
])
def test_vacuous_counts_are_usage_errors(workdir, capsys, argv, flag, value):
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert f"argument {flag}:" in last and f"got {value}" in last
    assert not list(workdir.glob("*.manifest.json"))


@pytest.mark.parametrize("argv,flag", [
    (["train", "--dims", "3,4,1", "--epochs", "5", "--scale-init", "-1"], "--scale-init"),
    (["rank", "--scale-init", "-1"], "--scale-init"),
    (["train", "--dims", "3,4,1", "--epochs", "5", "--a-norm", "-1"], "--a-norm"),
    (["train", "--dims", "3,4,1", "--epochs", "5", "--noise", "-1"], "--noise"),
])
def test_negative_scales_are_usage_errors(workdir, capsys, argv, flag):
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error" in line]
    assert errors == [f"sparseland {argv[0]}: error: argument {flag}: "
                      "must be a finite number of at least 0, got -1"]
    assert not list(workdir.glob("*.manifest.json"))
    # a zero scale is valid, and replay re-checks a recorded negative one
    dest = flag[2:].replace("-", "_")
    assert main([*argv[:-1], "0"]) in (0, 1)
    manifest = next(workdir.glob("*.manifest.json"))
    record = json.loads(manifest.read_text())
    record["config"][dest] = -1.0
    manifest.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["replay", str(manifest)]) == 2
    assert capsys.readouterr().err == (f"error: bad manifest {manifest}: argument {flag}: "
                                       "must be a finite number of at least 0, got -1.0\n")


@pytest.mark.parametrize("argv,dest,value", [
    (["rank", "--scale-init", "-1e-3"], "scale_init", "a finite number of at least 0, got -1e-3"),
    (["train", "--dims", "3,4,1", "--a-norm", "-5e-1"], "a_norm",
     "a finite number of at least 0, got -5e-1"),
    (["conv-rank", "--mode", "same", "--d", "3", "--kernel", "-1,2"], "kernel", (-1.0, 2.0)),
    (["conv-rank", "--mode", "same", "--d", "3", "--kernel", "-.5e1"], "kernel", (-5.0,)),
    (["verify", "ss-valley", "--y", "-1,2,9,2"], "y", (-1.0, 2.0, 9.0, 2.0)),
    (["trials", "--lr", "-2E-1"], "lr", "a finite number above 0, got -2E-1"),
    (["trials", "--lr", "-Inf"], "lr", "a finite number, got -Inf"),
    (["train", "--dims", "3,4,1", "--noise", "-1e-3"], "noise",
     "a finite number of at least 0, got -1e-3"),
])
def test_negative_numbers_are_values(capsys, argv, dest, value):
    # argparse alone reads -1e-3 and -1,2 as options ("expected one argument")
    if isinstance(value, str):  # the option's type rejects it and names the flag
        with pytest.raises(SystemExit) as ei:
            build_parser().parse_args(argv)
        assert ei.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        flag = "--" + dest.replace("_", "-")
        assert errors == [f"sparseland {argv[0]}: error: argument {flag}: must be {value}"]
    else:
        assert getattr(build_parser().parse_args(argv), dest) == value


@pytest.mark.parametrize("argv,message", [
    (["train", "--dims", "3,4,1", "--noise=-1\n"],
     "argument --noise: must be a finite number of at least 0, got '-1\\n'"),
    (["trials", "--y=1,2\n"], "argument --y: expected 4 comma-separated numbers, got '1,2\\n'"),
    (["conv-rank", "--mode", "same", "--d", "2", "--kernel=1,\x1e"],
     "argument --kernel: expected comma-separated finite numbers, got '1,\\x1e'"),
], ids=["number", "list-count", "list-entry"])
def test_a_rejected_value_with_a_line_break_stays_on_one_line(capsys, argv, message):
    # float and int read past surrounding whitespace, so a value that holds a
    # line break can reach a message that echoes it: it is quoted
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert capsys.readouterr().err.splitlines()[-1].endswith(message)


@pytest.mark.parametrize("argv", [
    ["train", "--dims", "3,4,1", "--epochs", "0", "--rank-every", "0"],
    ["trials", "--n", "3", "--epochs", "0"],
])
def test_zero_epochs_is_valid(workdir, capsys, argv):
    code, cap = run_cli(argv + ["--json"], capsys)
    assert code == 0
    payload = json.loads(cap.out)
    trials = payload.get("trials", [payload])
    assert trials and all(t["epochs"] == 0 for t in trials)


@pytest.mark.parametrize("argv,message", [
    (["trials", "--activation", "softplus"], "sigma(0) = 0"),
    (["verify", "ss-valley", "--activation", "sigmoid"], "sigma(0) = 0"),
    (["verify", "ss-valley", "--y", "1,2,-2,2"], "needs y2 + y3 != 0, got 2.0 + -2.0"),
    (["verify", "ss-valley", "--y", "0,0,0,0"], "needs y2 + y3 != 0, got 0.0 + 0.0"),
    (["trials", "--y", "1,1,-1,2"], "needs y2 + y3 != 0, got 1.0 + -1.0"),
    # a loss overflows: the level it overflows is named
    (["verify", "ss-valley", "--y", "1,2,1e200,2"], "valley loss inf != y4^2 = 4.0"),
    (["trials", "--y", "1e200,2e200,9e200,2e200"], "needs a finite valley loss"),
    (["trials", "--y", "1e200,2,9,1"], "needs a finite escape loss"),
    # verify probes at y / c: no power of two c divides these exactly
    (["verify", "ss-valley", "--y", "1e-300,2,9,1e300"], "lie too many binades apart"),
], ids=["trials-activation", "verify-sigmoid", "verify-y2-plus-y3",
        "verify-y-zero", "trials-y2-plus-y3", "verify-valley-loss-overflow",
        "trials-every-level-overflows", "trials-escape-loss-overflow", "verify-y-binades-apart"])
def test_handler_value_errors_are_usage_errors(workdir, capsys, argv, message):
    code, cap = run_cli(argv, capsys)
    assert code == 2
    assert cap.out == ""
    lines = cap.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
    assert not list(workdir.glob("*.manifest.json"))


@pytest.mark.parametrize("argv", [["train", "--dims", "3,4,1", "--epochs", "2"], ["rank"]],
                         ids=["train", "rank"])
def test_sparsity_is_judged_at_the_flag(workdir, capsys, argv):
    # a sparsity outside [0, 1) exits 2 on argparse's line naming --sparsity,
    # before the mask draw would reject it without naming the flag
    for value in ("1", "1.5", "-0.5"):
        with pytest.raises(SystemExit) as ei:
            main([*argv, "--sparsity", value])
        assert ei.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert errors == [f"sparseland {argv[0]}: error: argument --sparsity: must be a finite "
                          f"number of at least 0 and below 1, got {value}"]
    assert list(workdir.iterdir()) == []
    for value in ("0", "0.999"):
        assert run_cli([*argv, "--sparsity", value], capsys)[0] == 0


def test_activation_flag_normalises_and_rejects(workdir, capsys):
    # every --activation takes a kind in any case, with hyphens for underscores
    parse = build_parser().parse_args
    for command in (["verify", "ss-valley"], ["train", "--dims", "3,4,1"], ["trials"], ["rank"]):
        assert parse([*command, "--activation", "LeakyReLU"]).activation == "leaky_relu"
        assert parse([*command, "--activation", "shifted-sigmoid"]).activation == "shifted_sigmoid"
        assert parse([*command, "--activation", "Tanh"]).activation == "tanh"
    # a polynomial needs coefficients, which only a spec gives
    for argv in (["train", "--dims", "3,4,1", "--activation", "polynomial", "--epochs", "2"],
                 ["trials", "--activation", "swish"], ["rank", "--activation", "bogus"]):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert len(errors) == 1 and "argument --activation: invalid choice" in errors[0]
        assert "polynomial" not in errors[0].split("choose from")[1]
    assert not list(workdir.glob("*.manifest.json"))


@pytest.mark.parametrize("argv,flags", [
    (["verify", "sd-minimum", "--activation", "relu", "--y", "1,2,3,4"], "--activation, --y"),
    (["verify", "cnn-same-valley", "--y", "1,2,3,4", "--probes", "10"], "--y"),
], ids=["sd-minimum", "cnn-same-valley"])
def test_verify_rejects_options_its_instance_does_not_read(workdir, capsys, argv, flags):
    code, cap = run_cli(argv, capsys)
    assert code == 2 and cap.out == ""
    assert cap.err == f"error: verify {argv[1]} ignores {flags}\n"
    assert not list(workdir.glob("*.manifest.json"))


def test_verify_unread_options_at_their_defaults_and_replay(workdir, capsys):
    code, _ = run_cli(["verify", "ss-valley", "--probes", "10"], capsys)
    assert code == 0
    code, _ = run_cli(["verify", "cnn-same-valley", "--activation", "tanh", "--y", "1,2,9,2",
                       "--probes", "10"], capsys)
    assert code == 0
    manifest = json.loads((workdir / "verify.manifest.json").read_text())
    p = workdir / "m.json"
    p.write_text(json.dumps(dict(manifest, config=dict(manifest["config"], activation="relu"))))
    code, cap = run_cli(["replay", str(p)], capsys)
    assert code == 2 and cap.out == ""
    assert cap.err == "error: verify cnn-same-valley ignores --activation\n"


def test_verify_unknown_instance_usage_error(workdir):
    with pytest.raises(SystemExit) as ei:
        main(["verify", "sharp-minimum"])
    assert ei.value.code == 2


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_reports_gap_for_linear(workdir, capsys):
    code, cap = run_cli(["train", "--dims", "4,8,2", "--n", "40", "--lr", "0.005",
                         "--epochs", "4000", "--seed", "3"], capsys)
    assert code == 0
    assert "L - L* = " in cap.out
    manifest = json.loads((workdir / "train.manifest.json").read_text())
    assert manifest["seed"] == 3


@pytest.mark.parametrize("first,second", [
    ({"bias": [0.5, -0.3]}, {"bias": [0.7]}),
    ({"bias": [0.0, 0.0], "bias_mask": [0, 0]}, {}),
], ids=["live-bias", "masked-bias"])
def test_train_gap_of_a_biased_linear_net_is_against_an_affine_fit(workdir, capsys, first,
                                                                   second):
    # a linear net with a live bias fits A X + b, so its optimum fits [X; 1]:
    # the converged loss meets it within rounding, where A X alone read a gap
    # of -1.02; a net whose biases are all masked fits A X alone
    spec = {"layers": [{"weights": [[1.0, 0.5], [0.0, 2.0]], **first},
                       {"weights": [[1.0, -1.0]], **second}],
            "activation": {"kind": "linear"}}
    (workdir / "biased.json").write_text(json.dumps(spec))
    code, cap = run_cli(["train", "--spec", "biased.json", "--n", "5", "--epochs", "20000",
                         "--lr", "0.01", "--json"], capsys)
    payload = json.loads(cap.out)
    assert code == 0 and payload["stop_reason"] == "converged_grad"
    assert abs(payload["gap"]) <= 1e-12 * payload["optimum"]


def test_train_writes_csv_trace(workdir, capsys):
    out = workdir / "trace.csv"
    code, cap = run_cli(["train", "--dims", "3,6,1", "--n", "20", "--epochs", "50",
                         "--rank-every", "25", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "epoch,loss,rank_layer_1,rank_layer_2"
    assert len(lines) >= 3
    # manifest hash covers the written artifact byte for byte
    manifest = json.loads((workdir / "trace.csv.manifest.json").read_text())
    import hashlib
    assert manifest["outputs"]["primary"]["sha256"] == \
        hashlib.sha256(out.read_text().encode()).hexdigest()
    assert manifest["outputs"]["primary"]["path"] == str(out)


def test_identity_target_rejects_a_norm(workdir, capsys):
    # gen_synthetic ignores a_norm when the target is the identity
    argv = ["train", "--dims", "3,4,1", "--target", "identity", "--epochs", "2"]
    for a_norm in ("3", "0"):
        code, cap = run_cli(argv + ["--a-norm", a_norm], capsys)
        assert code == 2 and cap.out == ""
        assert cap.err == "error: --target identity ignores --a-norm\n"
        assert not list(workdir.glob("*.manifest.json"))
    code, _ = run_cli(argv + ["--a-norm", "5"], capsys)  # the default
    assert code == 0


def test_identity_target_replay_rejects_a_norm(workdir, capsys):
    code, _ = run_cli(["train", "--dims", "3,4,1", "--target", "identity", "--epochs", "2"], capsys)
    assert code == 0
    manifest = json.loads((workdir / "train.manifest.json").read_text())
    p = workdir / "m.json"
    p.write_text(json.dumps(dict(manifest, config=dict(manifest["config"], a_norm=3.0))))
    code, cap = run_cli(["replay", str(p)], capsys)
    assert code == 2 and cap.out == ""
    assert cap.err == "error: --target identity ignores --a-norm\n"


def test_train_needs_spec_or_dims(workdir, capsys):
    # exactly one: neither, or both, is a usage error
    for argv in (["train"], ["train", "--spec", "a.json", "--dims", "3,4,1"]):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 2
        assert "--spec" in capsys.readouterr().err


def test_train_malformed_spec_diagnostics(workdir, capsys):
    bad = workdir / "net.json"
    bad.write_text('{"layers": [\n!oops\n]}')
    assert main(["train", "--spec", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "malformed JSON" in err and "line 2" in err


def test_train_missing_spec_file(workdir, capsys):
    assert main(["train", "--spec", str(workdir / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_train_spec_keeps_weights(workdir, capsys):
    from sparseland import random_effective_net
    net = random_effective_net((3, 5, 1), sparsity=0.2, seed=4)
    spec = workdir / "net.json"
    spec.write_text(json.dumps(net_to_json(net)))
    code, cap = run_cli(["train", "--spec", str(spec), "--epochs", "0",
                         "--n", "10", "--json"], capsys)
    assert code == 0
    payload = json.loads(cap.out)
    # epoch-0 loss of the kept weights, no reinit: realized sparsity intact
    assert payload["epochs"] == 0
    got = payload["realized_sparsity"]
    want = sum(int(l.mask.size - np.count_nonzero(l.mask)) for l in net.layers) \
        / sum(l.mask.size for l in net.layers)
    assert got == pytest.approx(want, abs=0)


def test_train_divergence_exit_code(workdir, capsys):
    code, cap = run_cli(["train", "--dims", "3,6,2", "--n", "20", "--lr", "50",
                         "--epochs", "200"], capsys)
    assert code == 1
    assert "diverged" in cap.out


@pytest.mark.parametrize("lr", ["1e160", "1e120"])
@pytest.mark.parametrize("activation", ["linear", "relu"])
def test_train_rank_of_a_non_finite_layer_is_unmeasured(workdir, capsys, activation, lr):
    # the first step overflows: an SVD of a NaN output exited 2 with no
    # manifest, and an inf output read as rank 0; now such a layer's rank is
    # null in the payload and an empty cell in the CSV, and the run diverged
    out = workdir / "trace.csv"
    code, cap = run_cli(["train", "--dims", "3,4,4,1", "--lr", lr, "--epochs", "5",
                         "--rank-every", "1", "--activation", activation, "--json",
                         "--out", str(out)], capsys)
    assert code == 1, cap.err
    payload = json.loads(cap.out)
    assert payload["stop_reason"] == "diverged"
    assert (workdir / "trace.csv.manifest.json").exists()
    ranks = dict(payload["ranks"])
    assert sorted(ranks) == [0, 1]
    assert all(isinstance(v, int) for v in ranks[0])
    assert ranks[1][-1] is None  # the output layer overflowed
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[2:] for row in rows] == [["" if v is None else str(v) for v in ranks[e]]
                                         for e in (0, 1)]


def test_train_nan_loss_rise_is_null(workdir, capsys):
    # the first step makes the loss NaN, which read as no rise, 0.0
    code, cap = run_cli(["train", "--dims", "3,4,4,1", "--activation", "relu", "--lr", "1e200",
                         "--epochs", "5", "--json", "--out", "t.csv"], capsys)
    assert code == 1
    assert _strict_json(cap.out)["monotone_violation"] is None
    assert (workdir / "t.csv").read_text().splitlines()[2].startswith("1,nan,")


@pytest.mark.parametrize("activation", ["linear", "relu"])
def test_train_overflowed_loss_is_inf_for_both_gradient_routes(workdir, capsys, activation):
    # the first step overflows the output.  A linear net takes its loss from
    # the grouped matrix chain, whose residual then holds NaN; it reports the
    # layer-by-layer loss there, inf, as backprop does for relu
    code, cap = run_cli(["train", "--dims", "3,4,4,1", "--lr", "1e120", "--epochs", "5",
                         "--activation", activation, "--out", "t.csv"], capsys)
    assert code == 1 and cap.err == ""
    assert "final loss inf after 1 epochs (diverged)" in cap.out
    rows = (workdir / "t.csv").read_text().splitlines()
    assert len(rows) == 3 and rows[2] == "1,inf,,,"


@pytest.mark.parametrize("hidden,ranks", [(1e308, [None, None]), (1.0, [2, None])],
                         ids=["hidden", "output"])
def test_train_rank_cells_of_an_overflowing_net_are_empty(workdir, capsys, hidden, ranks):
    # the first forward pass overflows the output, and with hidden weights
    # of 1e308 the hidden layer too: the outputs that are not finite have no
    # rank, an empty cell, and the finite hidden layer keeps its rank 2
    spec = {"layers": [{"weights": [[hidden, 0.0], [0.0, hidden]]}, {"weights": [[1e308] * 2]}],
            "activation": {"kind": "linear"}}
    (workdir / "big.json").write_text(json.dumps(spec))
    code, cap = run_cli(["train", "--spec", "big.json", "--epochs", "0", "--rank-every", "1",
                         "--out", "t.csv", "--json"], capsys)
    assert code == 1 and cap.err == ""
    assert json.loads(cap.out)["ranks"] == [[0, ranks]]
    rows = (workdir / "t.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].split(",")[2:] == ["" if r is None else str(r) for r in ranks]


# ---------------------------------------------------------------------------
# other commands
# ---------------------------------------------------------------------------

def test_conv_rank_of_a_large_finite_kernel(workdir, capsys):
    # the unscaled SVD overflowed to numeric 0, a false falsification
    code, cap = run_cli(["conv-rank", "--mode", "same", "--d", "3",
                         "--kernel", "1e308,1e308"], capsys)
    assert code == 0
    assert cap.out == "expected 3, numeric 3\n"


def test_conv_rank_bad_mode(workdir, capsys):
    with pytest.raises(SystemExit) as ei:
        main(["conv-rank", "--mode", "wrap", "--d", "4", "--kernel", "1"])
    assert ei.value.code == 2


def test_conv_rank_bad_kernel_value(workdir):
    with pytest.raises(SystemExit) as ei:
        main(["conv-rank", "--mode", "SAME", "--d", "4", "--kernel", "a,b"])
    assert ei.value.code == 2


@pytest.mark.parametrize("cond", ["1", "3"])
def test_path_command(workdir, capsys, cond):
    out = workdir / "path.csv"
    code, cap = run_cli(["path", "--cond", cond, "--out", str(out), "--json"], capsys)
    assert code == 0
    payload = json.loads(cap.out)
    assert payload["ok"] is True
    assert payload["monotone_violation"] <= 1e-10
    lines = out.read_text().splitlines()
    assert lines[0] == "t,loss"
    assert lines[-1].startswith("1.0,")


def test_path_and_train_csv_rows_end_in_newline(workdir, capsys):
    # one writer for both traces: the path CSV ended its rows in \r\n
    for argv in (["path", "--cond", "1", "--out", "p.csv"],
                 ["train", "--dims", "3,4,2", "--epochs", "3", "--rank-every", "1",
                  "--out", "t.csv"]):
        assert run_cli(argv, capsys)[0] == 0
        data = (workdir / argv[-1]).read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")


def test_prune_flags_ineffective_net(workdir, capsys):
    spec = {
        "layers": [
            {"weights": [[1.0, 0.0], [0.0, 2.0]], "mask": [[1, 0], [0, 1]]},
            {"weights": [[3.0, 0.0]], "mask": [[1, 0]]},
        ],
        "activation": {"kind": "relu"},
    }
    p = workdir / "net.json"
    p.write_text(json.dumps(spec))
    code, cap = run_cli(["prune", "--spec", str(p), "--json"], capsys)
    assert code == 1
    payload = json.loads(cap.out)
    assert payload["is_effective"] is False
    assert payload["isolated_inputs"] == [1]
    assert payload["removed_edges"] == [[0, 1, 1]]


def test_rank_command(workdir, capsys):
    code, cap = run_cli(["rank", "--dims", "6,8,2", "--sparsity", "0.2", "--n", "6",
                         "--seed", "17", "--json"], capsys)
    payload = json.loads(cap.out)
    assert code in (0, 1)
    assert len(payload["ranks"]) == 1
    assert payload["ranks"][0] <= 6


def test_rank_spec_and_dims_are_exclusive(workdir, capsys):
    # --dims keeps its default, so --spec alone is valid; both together exit 2
    # with one error line naming both flags, before any manifest is written
    for argv in (["rank", "--spec", "n.json", "--dims", "3,3,3", "--sparsity", "0.9", "--json"],
                 ["rank", "--dims", "6,6,6", "--spec", "n.json"]):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert sum("--spec" in line and "--dims" in line and "error:" in line
                   for line in err) == 1
    assert list(workdir.iterdir()) == []


def test_rank_spec_alone_replays(workdir, capsys):
    net = sparseland.random_effective_net((4, 5, 2), 0.2, seed=3,
                                          activation=sparseland.Activation("tanh"))
    (workdir / "n.json").write_text(json.dumps(net_to_json(net)))
    code, cap = run_cli(["rank", "--spec", "n.json", "--n", "4", "--json"], capsys)
    assert code in (0, 1) and len(json.loads(cap.out)["ranks"]) == 1
    code, cap = run_cli(["replay", "rank.manifest.json"], capsys)
    assert code == 0 and "outputs identical" in cap.out


def test_replay_rejects_rank_manifest_with_spec_and_dims(workdir, capsys):
    run_cli(["rank", "--dims", "4,4,2", "--json"], capsys)
    rank = json.loads((workdir / "rank.manifest.json").read_text())
    p = workdir / "m.json"
    p.write_text(json.dumps(dict(rank, config=dict(rank["config"], spec="n.json"))))
    assert main(["replay", str(p)]) == 2
    assert capsys.readouterr().err == \
        f"error: bad manifest {p}: argument --dims: not allowed with argument --spec\n"


@pytest.fixture
def spec_net(workdir):
    """A masked tanh net, written to n.json in the working directory."""
    net = sparseland.random_effective_net((3, 5, 2), 0.4, seed=2,
                                          activation=sparseland.Activation("tanh"))
    (workdir / "n.json").write_text(json.dumps(net_to_json(net)))
    return net


@pytest.mark.parametrize("argv,flags", [
    (["rank", "--spec", "n.json", "--sparsity", "0.9"], ["--sparsity"]),
    (["rank", "--spec", "n.json", "--activation", "relu", "--scale-init", "0.1"],
     ["--activation", "--scale-init"]),
    (["train", "--spec", "n.json", "--epochs", "3", "--activation", "relu", "--sparsity", "0.9"],
     ["--sparsity", "--activation"]),
    (["train", "--spec", "n.json", "--epochs", "3", "--scale-init", "0.5"], ["--scale-init"]),
], ids=["rank-sparsity", "rank-activation-scale", "train-activation-sparsity", "train-scale"])
def test_spec_rejects_random_net_flags(spec_net, workdir, capsys, argv, flags):
    # these flags shape only a random --dims net; --spec would drop them silently
    code, cap = run_cli(argv, capsys)
    assert code == 2 and cap.out == ""
    assert cap.err == f"error: --spec ignores {', '.join(flags)}: they shape only a random --dims net\n"
    assert not list(workdir.glob("*.manifest.json"))


@pytest.mark.parametrize("command", ["rank", "train"])
def test_spec_accepts_random_net_flags_at_their_defaults(spec_net, workdir, capsys, command):
    defaults = {"rank": ["--sparsity", "0.3", "--activation", "tanh", "--scale-init", "3"],
                "train": ["--sparsity", "0", "--activation", "linear", "--scale-init", "1",
                          "--epochs", "3"]}[command]
    base = [command, "--spec", "n.json", "--json"] + (["--epochs", "3"] if command == "train" else [])
    code, cap = run_cli(base, capsys)
    code_defaults, cap_defaults = run_cli(base + defaults, capsys)
    assert code in (0, 1) and code_defaults == code
    assert cap_defaults.out == cap.out


def test_replay_rejects_spec_manifest_with_random_net_flags(spec_net, workdir, capsys):
    run_cli(["rank", "--spec", "n.json", "--json"], capsys)
    rank = json.loads((workdir / "rank.manifest.json").read_text())
    run_cli(["train", "--spec", "n.json", "--epochs", "2", "--json"], capsys)
    train = json.loads((workdir / "train.manifest.json").read_text())
    capsys.readouterr()
    p = workdir / "m.json"
    for manifest, key, value, flag in ((rank, "sparsity", 0.9, "--sparsity"),
                                       (train, "activation", "relu", "--activation")):
        p.write_text(json.dumps(dict(manifest, config=dict(manifest["config"], **{key: value}))))
        code, cap = run_cli(["replay", str(p)], capsys)
        assert code == 2 and cap.out == ""
        assert cap.err.startswith("error: --spec ignores ") and cap.err.count("\n") == 1
        assert flag in cap.err


def test_train_reinit_redraws_spec_weights(spec_net, workdir, capsys):
    from sparseland import gen_synthetic, init_net, loss

    code, _ = run_cli(["train", "--spec", "n.json", "--reinit", "--scale-init", "0.5",
                       "--seed", "7", "--n", "10", "--epochs", "3", "--out", "t.csv"], capsys)
    assert code == 0
    start = init_net(spec_net, 0.5, 7)
    for new, old in zip(start.layers, spec_net.layers):
        assert np.array_equal(new.mask, old.mask)
        assert np.all(new.weights[~new.mask] == 0.0)
        assert not np.array_equal(new.weights, old.weights)
    X, Y = gen_synthetic(10, 3, 2, seed=7)
    epoch0 = float((workdir / "t.csv").read_text().splitlines()[1].split(",")[1])
    assert epoch0 == loss(start, X, Y)
    assert epoch0 != loss(spec_net, X, Y)
    code, cap = run_cli(["replay", "t.csv.manifest.json"], capsys)
    assert code == 0 and "outputs identical" in cap.out


@pytest.mark.parametrize("argv,message", [
    (["train", "--dims", "3,x,1"], "argument --dims: expected comma-separated integers"),
    (["rank", "--dims", "6,,6"], "argument --dims: expected comma-separated integers"),
])
def test_bad_integer_lists_are_usage_errors(workdir, capsys, argv, message):
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    assert message in capsys.readouterr().err
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("argv", [["train", "--spec", "", "--epochs", "2"], ["rank", "--spec", ""]],
                         ids=["train", "rank"])
def test_empty_spec_is_a_file_that_cannot_be_read(workdir, capsys, argv):
    code, cap = run_cli(argv, capsys)
    assert code == 2 and cap.out == ""
    assert cap.err.startswith("error: cannot read : ") and cap.err.count("\n") == 1
    assert list(workdir.iterdir()) == []


CONV_RANK = ["conv-rank", "--mode", "same", "--d", "3", "--kernel", "1"]


@pytest.mark.parametrize("argv,path,reason", [
    (CONV_RANK + ["--out", "."], ".", "Is a directory"),
    (["path", "--cond", "1", "--out", "afile/x.csv"], "afile/x.csv", "File exists"),
    (CONV_RANK + ["--out", "v.json"], "v.json.manifest.json", "Is a directory"),
], ids=["out-is-a-directory", "out-under-a-file", "manifest-is-a-directory"])
def test_an_output_that_cannot_be_written_is_a_usage_error(workdir, capsys, argv, path, reason):
    # after the whole run, exit 2 with one line, not a traceback with exit 1
    # ("falsified"), and write neither a manifest nor an artifact
    (workdir / "afile").write_text("")
    (workdir / "v.json.manifest.json").mkdir()
    code, cap = run_cli(argv, capsys)
    assert code == 2 and cap.out == ""
    assert cap.err.startswith(f"error: cannot write {path}: ") and cap.err.count("\n") == 1
    assert reason in cap.err
    assert [p.name for p in workdir.iterdir() if p.is_file()] == ["afile"]


def test_replay_out_that_cannot_be_written_is_a_usage_error(workdir, capsys):
    run_cli(CONV_RANK, capsys)
    code, cap = run_cli(["replay", "conv-rank.manifest.json", "--out", "."], capsys)
    assert code == 2 and cap.out == ""
    assert cap.err.startswith("error: cannot write .: ") and cap.err.count("\n") == 1
    assert sorted(p.name for p in workdir.iterdir()) == ["conv-rank.manifest.json"]


# sizes whose first array holds at least 10^17 float64s: more bytes than any
# address space, so numpy refuses the allocation before touching memory
UNALLOCATABLE = {
    "conv-rank": ["conv-rank", "--mode", "same", "--d", str(10**9), "--kernel", "1"],
    "trials": ["trials", "--n", str(10**17), "--epochs", "1"],
    "rank": ["rank", "--n", str(10**17)],
    "path": ["path", "--samples", str(10**17)],
    "train": ["train", "--dims", "2,2,1", "--n", str(10**17), "--epochs", "1"],
}


@pytest.mark.parametrize("argv", list(UNALLOCATABLE.values()), ids=list(UNALLOCATABLE))
def test_a_size_that_cannot_be_allocated_is_a_usage_error(workdir, capsys, argv):
    # exit 2 with one line, not numpy's traceback with exit 1 ("falsified"),
    # and write neither a manifest nor an artifact
    code, cap = run_cli([*argv, "--out", "a.out"], capsys)
    assert code == 2 and cap.out == ""
    assert cap.err.startswith("error: Unable to allocate ") and cap.err.count("\n") == 1
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("mode", ["same", "full", "valid"])
def test_a_conv_length_past_the_index_range_is_a_usage_error(workdir, capsys, mode):
    # an input length of 2**63 has no numpy shape, so numpy refuses the
    # matrix before it allocates anything: exit 2 with one line, not an
    # OverflowError traceback with exit 1
    argv = ["conv-rank", "--mode", mode, "--d", str(2**63), "--kernel", "1", "--out", "a.out"]
    code, cap = run_cli(argv, capsys)
    assert code == 2 and cap.out == ""
    assert cap.err.startswith("error: ") and cap.err.count("\n") == 1, cap.err
    assert list(workdir.iterdir()) == []


def test_replay_of_a_size_that_cannot_be_allocated_is_a_usage_error(workdir, capsys):
    run_cli(["rank", "--n", "6"], capsys)
    manifest = json.loads((workdir / "rank.manifest.json").read_text())
    manifest["config"]["n"] = 10**17
    (workdir / "big.json").write_text(json.dumps(manifest))
    code, cap = run_cli(["replay", "big.json", "--out", "r.out"], capsys)
    assert code == 2 and cap.out == ""
    assert cap.err.startswith("error: Unable to allocate ") and cap.err.count("\n") == 1
    assert sorted(p.name for p in workdir.iterdir()) == ["big.json", "rank.manifest.json"]


# one input error per route to exit 2: (argv, SEED or None, the error line's start)
EXIT_2_ROUTES = {
    "handler-value-error": (["rank", "--spec", "big.json", "--seed", "2"], None,
                            "error: hidden output of layer 1 is not finite on the samples, "),
    "memory-error": (UNALLOCATABLE["rank"], None, "error: Unable to allocate "),
    "bad-seed": (["path"], "-1", "error: SEED must be an integer of at least 0, got '-1'"),
    "bad-manifest": (["replay", "m.json"], None, "error: bad manifest m.json: 'command'"),
    "unwritable-out": (["path", "--out", "afile/x.csv"], None, "error: cannot write afile/x.csv: "),
}


@pytest.mark.parametrize("argv,seed,err", list(EXIT_2_ROUTES.values()), ids=list(EXIT_2_ROUTES))
def test_every_input_error_leaves_main_with_exit_2(workdir, capsys, monkeypatch, argv, seed, err):
    # each route returns 2 from main (none raises SystemExit), with one
    # `error:` line and no manifest
    (workdir / "afile").write_text("")
    (workdir / "m.json").write_text("{}")
    (workdir / "big.json").write_text(json.dumps(_big_linear_spec((2, 2, 1))))
    if seed is not None:
        monkeypatch.setenv("SEED", seed)
    code, cap = run_cli(argv, capsys)
    assert code == 2 and cap.out == ""
    assert cap.err.startswith(err) and cap.err.count("\n") == 1, cap.err
    assert sorted(p.name for p in workdir.iterdir()) == ["afile", "big.json", "m.json"]


@pytest.mark.parametrize("bad", [2, 0.5, -1])
@pytest.mark.parametrize("key", ["mask", "bias_mask"])
def test_spec_masks_must_hold_zero_or_one(workdir, capsys, key, bad):
    layer = {"weights": [[1.0, 0.0], [0.0, 1.0]], "mask": [[1, 0], [0, 1]],
             "bias": [1.0, 0.0], "bias_mask": [1, 0]}
    layer[key] = [[1, 0], [0, bad]] if key == "mask" else [bad, 0]
    spec = {"layers": [layer, {"weights": [[1.0, 1.0]]}], "activation": {"kind": "tanh"}}
    (workdir / "m.json").write_text(json.dumps(spec))
    code, cap = run_cli(["prune", "--spec", "m.json"], capsys)
    assert code == 2 and cap.out == ""
    assert cap.err == "error: bad network spec in m.json: mask entries must be 0/1\n"
    assert [p.name for p in workdir.iterdir()] == ["m.json"]


def test_prune_and_conv_rank_take_no_seed(spec_net, workdir, capsys, monkeypatch):
    conv_rank = ["conv-rank", "--mode", "same", "--d", "3", "--kernel", "1"]
    for argv in (["prune", "--spec", "n.json"], conv_rank):
        with pytest.raises(SystemExit) as ei:
            main([*argv, "--seed", "3"])
        assert ei.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    monkeypatch.setenv("SEED", "-1")  # SEED applies only to commands that take --seed
    assert main(conv_rank) == 0
    manifest = json.loads((workdir / "conv-rank.manifest.json").read_text())
    assert manifest["seed"] is None and "seed" not in manifest["config"]


def _two_layer_spec(**edits):
    """A valid 2-2-1 spec, with the first layer's keys and the activation
    replaced by `edits` (key "activation")."""
    layer = {"weights": [[1.0, 0.0], [0.5, 2.0]], "mask": [[1, 0], [1, 1]], "bias": [1.0, 0.0]}
    activation = edits.pop("activation", {"kind": "tanh"})
    return {"layers": [{**layer, **edits}, {"weights": [[1.0, -1.0]]}], "activation": activation}


@pytest.mark.parametrize("command", ["prune", "rank", "train"])
@pytest.mark.parametrize("edits,message", [
    ({"weights": ["12", "34"]}, "weight row must be a JSON list, got '12'"),
    ({"weights": "12"}, "weights must be a JSON list of rows, got '12'"),
    ({"bias": "12"}, "bias must be a JSON list, got '12'"),
    ({"weights": [[1.0, 0.0], [0.5, "inf"]]}, "weight row entries must be finite"),
    ({"weights": [[1.0, 0.0], ["nan", 2.0]]}, "weight row entries must be finite"),
    ({"weights": [[1.0, 0.0], [0.5, 1e999]]}, "weight row entries must be finite"),
    # an integer beyond the float range, written as a JSON integer
    ({"weights": [[1.0, 0.0], [0.5, 10**400]]}, "weight row entries must be finite"),
    ({"bias": [1.0, "-inf"]}, "bias entries must be finite"),
    ({"weights": [[1.0, 0.0], [True, 2.0]]},
     "weight row entries must be finite numbers or decimal strings"),
    ({"bias": [1.0, "1_0"]}, "bias entries must be finite numbers or decimal strings"),
    ({"activation": {"kind": "polynomial", "params": {"coeffs": "12"}}},
     "polynomial coeffs must be a JSON list, got '12'"),
    ({"activation": {"kind": "leaky_relu", "params": [1]}},
     "activation params must be a JSON object, got [1]"),
    ({"activation": {"kind": "tanh", "params": {"slope": 3}}},
     "tanh activation reads no param 'slope'"),
    ({"activation": {"kind": "elu", "params": {"slope": 3}}}, "elu activation reads no param 'slope'"),
    ({"activation": {"kind": "leaky_relu", "params": {"slope": "nan"}}},
     "leaky_relu slope must be positive and finite"),
    ({"activation": {"kind": "elu", "params": {"alpha": 10**400}}},
     "elu alpha must be positive and finite"),
    ({"activation": "tanh"}, "activation must be a JSON object, got 'tanh'"),
    # a layer with no inputs: train ran to a result, rank and prune exited 1
    ({"weights": [[], []]}, "weights must be a 2-d array with no empty axis, got shape (2, 0)"),
], ids=["row-string", "weights-string", "bias-string", "weight-inf", "weight-nan",
        "weight-overflow", "weight-huge-int", "bias-inf", "weight-bool", "bias-underscore",
        "coeffs-string", "params-list", "params-unread", "params-other-kind", "slope-nan",
        "alpha-huge-int", "activation-string", "weights-empty-axis"])
def test_bad_spec_values_are_usage_errors(workdir, capsys, command, edits, message):
    (workdir / "m.json").write_text(json.dumps(_two_layer_spec(**edits)))
    code, cap = run_cli([command, "--spec", "m.json"], capsys)
    assert code == 2 and cap.out == ""
    lines = cap.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: bad network spec in m.json: ")
    assert message in lines[0]
    assert [p.name for p in workdir.iterdir()] == ["m.json"]


@pytest.mark.parametrize("activation,params", [
    ({"kind": "leaky_relu", "params": {"slope": "0.2"}}, {"slope": 0.2}),
    ({"kind": "elu", "params": {"alpha": 2}}, {"alpha": 2.0}),
    ({"kind": "polynomial", "params": {"coeffs": [0, 1, "0.5"]}}, {"coeffs": [0.0, 1.0, 0.5]}),
    ({"kind": "elu", "params": {}}, {"alpha": 1.0}),
    ({"kind": "relu"}, {}),
], ids=["slope-string", "alpha-int", "coeffs-mixed", "elu-default", "relu-no-params"])
def test_spec_params_load(workdir, capsys, activation, params):
    # each kind's own parameter as a number or decimal string; absent, its default
    (workdir / "m.json").write_text(json.dumps(_two_layer_spec(activation=activation)))
    code, cap = run_cli(["prune", "--spec", "m.json", "--json"], capsys)
    assert code == 0, cap.err
    assert json.loads(cap.out)["reduced"]["activation"] == {"kind": activation["kind"],
                                                            "params": params}


def test_spec_without_layers_is_a_usage_error(workdir, capsys):
    (workdir / "n.json").write_text(json.dumps({"activation": {"kind": "tanh"}}))
    for argv in (["prune", "--spec", "n.json"], ["rank", "--spec", "n.json"]):
        code, cap = run_cli(argv, capsys)
        assert code == 2
        assert cap.err.startswith("error: bad network spec in n.json: ") and "layers" in cap.err
    assert [p.name for p in workdir.iterdir()] == ["n.json"]


# ---------------------------------------------------------------------------
# seeding and replay
# ---------------------------------------------------------------------------

def test_seed_env_override(workdir, capsys, monkeypatch):
    monkeypatch.setenv("SEED", "99")
    code, cap = run_cli(["path", "--cond", "1", "--seed", "5"], capsys)
    assert code == 0
    manifest = json.loads((workdir / "path.manifest.json").read_text())
    assert manifest["seed"] == 99
    assert manifest["config"]["seed"] == 99


def test_seed_env_invalid(workdir, capsys, monkeypatch):
    monkeypatch.setenv("SEED", "ninetynine")
    code, cap = run_cli(["path", "--cond", "1"], capsys)
    assert code == 2
    assert "SEED must be an integer" in cap.err


def test_seed_env_negative(workdir, capsys, monkeypatch):
    monkeypatch.setenv("SEED", "-1")
    code, cap = run_cli(["path", "--cond", "1"], capsys)
    assert code == 2 and cap.out == ""
    assert cap.err == "error: SEED must be an integer of at least 0, got '-1'\n"
    assert list(workdir.iterdir()) == []


def _strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity, which JSON lacks."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv", [
    ["trials", "--n", "2", "--lr", "1e200", "--epochs", "10"],
    ["train", "--dims", "3,4,1", "--lr", "1e200", "--epochs", "3"],
], ids=["trials", "train"])
def test_non_finite_payload_numbers_are_null(workdir, capsys, argv):
    # GD at this step size overflows to an infinite loss
    _, cap = run_cli([*argv, "--json"], capsys)
    payload = _strict_json(cap.out)
    final = [t["final_loss"] for t in payload.get("trials", [payload])]
    assert final and all(v is None for v in final)
    manifest = next(workdir.glob("*.manifest.json"))
    code, cap = run_cli(["replay", str(manifest), "--json"], capsys)
    assert code == 0 and _strict_json(cap.out)["match"] is True


def test_replay_reproduces_bitwise(workdir, capsys):
    out = workdir / "trace.csv"
    code, _ = run_cli(["train", "--dims", "3,6,2", "--n", "20", "--epochs", "40",
                       "--seed", "8", "--backtrack", "--out", str(out)], capsys)
    assert code == 0
    manifest_path = workdir / "trace.csv.manifest.json"
    copy = workdir / "replayed.csv"
    code, cap = run_cli(["replay", str(manifest_path), "--out", str(copy)], capsys)
    assert code == 0
    assert "outputs identical" in cap.out
    assert copy.read_text() == out.read_text()


def test_replay_detects_mismatch(workdir, capsys):
    run_cli(["path", "--cond", "1", "--seed", "2"], capsys)
    mpath = workdir / "path.manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["payload_sha256"] = "0" * 64
    mpath.write_text(json.dumps(manifest))
    code, cap = run_cli(["replay", str(mpath)], capsys)
    assert code == 1
    assert "OUTPUT MISMATCH" in cap.out


def test_manifest_records_environment_outside_the_digest(workdir, capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    _, cap = run_cli(["path", "--cond", "1", "--seed", "2", "--json"], capsys)
    manifest = json.loads((workdir / "path.manifest.json").read_text())
    env = manifest["environment"]
    assert env["OPENBLAS_NUM_THREADS"] == "1" and env["MKL_NUM_THREADS"] is None
    assert env["numpy"] == np.__version__ and "OMP_NUM_THREADS" in env
    assert manifest["payload_sha256"] == _payload_digest(json.loads(cap.out))


def test_replay_mismatch_names_changed_thread_settings(workdir, capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    run_cli(["path", "--cond", "1", "--seed", "2"], capsys)
    mpath = workdir / "path.manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["environment"]["OPENBLAS_NUM_THREADS"] = "4"
    mpath.write_text(json.dumps(manifest))
    code, cap = run_cli(["replay", str(mpath)], capsys)
    assert code == 0  # matching outputs need no explanation
    assert cap.out.splitlines() == ["replayed path: outputs identical"]
    manifest["payload_sha256"] = "0" * 64
    mpath.write_text(json.dumps(manifest))
    code, cap = run_cli(["replay", str(mpath)], capsys)
    assert code == 1
    lines = cap.out.splitlines()
    assert lines[0] == "replayed path: OUTPUT MISMATCH"
    assert lines[1] == "environment differs from the recorded run: OPENBLAS_NUM_THREADS '4' -> '1'"
    assert len(lines) == 2


def test_replay_accepts_manifest_without_environment(workdir, capsys, monkeypatch):
    run_cli(["path", "--cond", "1", "--seed", "2"], capsys)
    mpath = workdir / "path.manifest.json"
    manifest = json.loads(mpath.read_text())
    del manifest["environment"]
    mpath.write_text(json.dumps(manifest))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")  # nothing recorded to compare with
    code, cap = run_cli(["replay", str(mpath)], capsys)
    assert code == 0
    assert cap.out.splitlines() == ["replayed path: outputs identical"]
    manifest["payload_sha256"] = "0" * 64
    mpath.write_text(json.dumps(manifest))
    code, cap = run_cli(["replay", str(mpath)], capsys)
    assert code == 1
    assert cap.out.splitlines() == ["replayed path: OUTPUT MISMATCH"]


def test_manifest_records_platform_and_inputs_outside_the_digest(workdir, capsys):
    out = workdir / "p.csv"
    _, cap = run_cli(["path", "--cond", "1", "--seed", "2", "--out", str(out), "--json"], capsys)
    manifest = json.loads((workdir / "p.csv.manifest.json").read_text())
    env = manifest["environment"]
    assert env["python"] == "{}.{}.{}".format(*sys.version_info[:3])
    assert env["cpu_count"] == os.cpu_count()
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    assert env["blas"] == f"{blas['name']} {blas['version']}"
    assert manifest["inputs"] == {}  # path reads no file
    assert "inputs" not in manifest["config"]
    assert manifest["payload_sha256"] == _payload_digest(json.loads(cap.out))


@pytest.mark.parametrize("argv", [["train", "--spec", "n.json", "--epochs", "3"],
                                  ["rank", "--spec", "n.json"], ["prune", "--spec", "n.json"]])
def test_manifest_records_the_spec_digest(spec_net, workdir, capsys, argv):
    command = argv[0]
    run_cli(argv + ["--json"], capsys)
    mpath = workdir / f"{command}.manifest.json"
    manifest = json.loads(mpath.read_text())
    spec = workdir / "n.json"
    digest = hashlib.sha256(spec.read_bytes()).hexdigest()
    assert manifest["inputs"] == {"spec": {"path": "n.json", "sha256": digest}}
    code, cap = run_cli(["replay", str(mpath)], capsys)
    assert code == 0 and cap.out.splitlines() == [f"replayed {command}: outputs identical"]

    # zero first-layer weights change every output; replay names the input
    obj = json.loads(spec.read_text())
    obj["layers"][0]["weights"] = np.zeros((5, 3)).tolist()
    spec.write_text(json.dumps(obj))
    code, cap = run_cli(["replay", str(mpath)], capsys)
    assert code == 1
    assert cap.out.splitlines() == [f"replayed {command}: OUTPUT MISMATCH",
                                    "input differs from the recorded run: spec n.json"]
    # a manifest without inputs replays as before
    del manifest["inputs"]
    mpath.write_text(json.dumps(manifest))
    code, cap = run_cli(["replay", str(mpath)], capsys)
    assert code == 1 and cap.out.splitlines() == [f"replayed {command}: OUTPUT MISMATCH"]


def test_spec_digest_is_of_the_bytes_parsed(spec_net, workdir, capsys, monkeypatch):
    # the spec changes on disk after it was read: the manifest holds the
    # digest of what the run parsed
    spec = workdir / "n.json"
    parsed = spec.read_bytes()
    prune = HANDLERS["prune"]

    def prune_then_edit(args):
        result = prune(args)
        spec.write_text(" " + parsed.decode())
        return result

    monkeypatch.setitem(HANDLERS, "prune", prune_then_edit)
    run_cli(["prune", "--spec", "n.json"], capsys)
    manifest = json.loads((workdir / "prune.manifest.json").read_text())
    assert manifest["inputs"]["spec"]["sha256"] == hashlib.sha256(parsed).hexdigest()


def test_replay_of_a_missing_spec_is_a_usage_error(spec_net, workdir, capsys):
    run_cli(["prune", "--spec", "n.json"], capsys)
    (workdir / "n.json").unlink()
    assert main(["replay", str(workdir / "prune.manifest.json")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read n.json: ")


def test_replay_rejects_malformed_inputs(spec_net, workdir, capsys):
    run_cli(["prune", "--spec", "n.json"], capsys)
    manifest = json.loads((workdir / "prune.manifest.json").read_text())
    p = workdir / "m.json"
    for bad in (["n.json"], {"spec": "n.json"}, {"spec": {"path": 3, "sha256": "0"}}):
        p.write_text(json.dumps(dict(manifest, inputs=bad)))
        assert main(["replay", str(p)]) == 2
        assert capsys.readouterr().err == \
            f"error: bad manifest {p}: inputs must map names to objects with a path\n"


def test_replay_bad_manifest(workdir, capsys):
    p = workdir / "m.json"
    p.write_text("{}")
    assert main(["replay", str(p)]) == 2
    run_cli(["path", "--cond", "1", "--seed", "2"], capsys)
    manifest = json.loads((workdir / "path.manifest.json").read_text())
    capsys.readouterr()
    run_cli(["train", "--dims", "3,4,1", "--epochs", "2"], capsys)
    train = json.loads((workdir / "train.manifest.json").read_text())
    capsys.readouterr()
    run_cli(["trials", "--n", "2", "--epochs", "5"], capsys)
    trials = json.loads((workdir / "trials.manifest.json").read_text())
    capsys.readouterr()
    # not a JSON object; an environment that is not one; a config that lacks
    # options the handler reads; values that `path --n`, `--cond`, a flag,
    # `--y` or `--seed` rejects, JSON types included; neither or both of
    # train's exclusive --spec and --dims; a thread count recorded as a number
    config = manifest["config"]
    errs = []
    for bad in ([], dict(manifest, environment=["OPENBLAS_NUM_THREADS"]),
                dict(manifest, config={"seed": 1}), dict(manifest, config=dict(config, n="abc")),
                dict(manifest, config=dict(config, n=0)), dict(manifest, config=dict(config, cond=2)),
                dict(train, config=dict(train["config"], backtrack="no")),
                dict(trials, config=dict(trials["config"], y=[1, 2])),
                dict(train, config=dict(train["config"], dims=None, spec=None)),
                dict(train, config=dict(train["config"], spec="net.json")),
                dict(train, config=dict(train["config"], backtrack=0)),
                dict(train, config=dict(train["config"], backtrack=1)),
                dict(manifest, config=dict(config, n=12.0)),
                dict(manifest, config=dict(config, seed=False)),
                dict(manifest, environment=dict(manifest["environment"], OMP_NUM_THREADS=2))):
        p.write_text(json.dumps(bad))
        assert main(["replay", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad manifest {p}: ") and err.count("\n") == 1
        errs.append(err)
    assert "config lacks cond, groups, n, samples" in errs[2]
    # the rest are the command line's own messages
    assert errs[3].endswith(": argument --n: expected an integer, got 'abc'\n")
    assert errs[4].endswith(": argument --n: must be at least 1, got 0\n")
    assert errs[5].endswith(": argument --cond: invalid choice: 2 (choose from 1, 3)\n")
    assert errs[6].endswith(": argument --backtrack: ignored explicit argument 'no'\n")
    assert errs[7].endswith(": argument --y: expected 4 comma-separated numbers, got 1,2\n")
    assert errs[8].endswith(": one of the arguments --spec --dims is required\n")
    assert errs[9].endswith(": argument --dims: not allowed with argument --spec\n")
    assert errs[10].endswith(": argument --backtrack: ignored explicit argument '0'\n")
    assert errs[11].endswith(": argument --backtrack: ignored explicit argument '1'\n")
    assert errs[12].endswith(": argument --n: expected an integer, got '12.0'\n")
    assert errs[13].endswith(": argument --seed: expected an integer, got 'False'\n")
    assert errs[14].endswith(": recorded thread settings must be strings or null\n")


# a valid command line of each command that records its options: its
# positionals and its options
REPLAY_BASES = {
    "verify": (["sd-minimum"], {}),
    "train": ([], {"--dims": "3,4,1"}),
    "trials": ([], {}),
    "path": ([], {}),
    "rank": ([], {}),
    "conv-rank": ([], {"--mode": "same", "--d": "3", "--kernel": "1"}),
}
BAD_TEXTS = ("abc", "0", "-1", "nan", "inf", "1,2", "-1e-3", "")


def command_line_error(argv, capsys):
    """The message with which the command line rejects argv, or None."""
    try:
        build_parser().parse_args(argv)
    except SystemExit as e:
        assert e.code == 2
        return capsys.readouterr().err.splitlines()[-1].split(": error: ", 1)[1]
    return None


def test_replay_rejects_what_the_command_line_rejects(workdir, capsys):
    # every value-taking option of each command, given each text on the
    # command line and held as that text in a manifest: where the command
    # line rejects the text, replay rejects it with the same message
    p = workdir / "m.json"
    options, covered = set(), set()
    for command, (positionals, base) in REPLAY_BASES.items():
        config = {k: v for k, v in vars(build_parser().parse_args(
            [command, *positionals, *[w for pair in base.items() for w in pair]])).items()
            if k not in {"command", "out", "json_out"}}
        for action in _subparser(command)._actions:
            if action.nargs == 0 or action.dest in {"help", "out", "spec"}:
                continue
            options.add((command, action.dest))
            flag = action.option_strings[0] if action.option_strings else None
            for text in BAD_TEXTS:
                argv = [command, *(positionals if flag else [text]),
                        *[w for pair in base.items() if pair[0] != flag for w in pair],
                        *([flag, text] if flag else [])]
                message = command_line_error(argv, capsys)
                if message is None or not message.startswith("argument "):
                    continue
                p.write_text(json.dumps({"command": command,
                                         "config": dict(config, **{action.dest: text}),
                                         "payload_sha256": "", "outputs": {"primary": {"sha256": ""}}}))
                assert main(["replay", str(p)]) == 2
                assert capsys.readouterr().err == f"error: bad manifest {p}: {message}\n", argv
                covered.add((command, action.dest))
    assert covered == options and len(options) == 37


def test_replay_rejects_unknown_command(workdir, capsys):
    run_cli(["path", "--cond", "1", "--seed", "2"], capsys)
    manifest = json.loads((workdir / "path.manifest.json").read_text())
    p = workdir / "m.json"
    for command in ("bogus", "replay", 3):
        p.write_text(json.dumps(dict(manifest, command=command)))
        assert main(["replay", str(p)]) == 2
        assert capsys.readouterr().err == f"error: bad manifest {p}: unknown command {command!r}\n"


def test_replay_mismatch_names_changed_version(workdir, capsys):
    run_cli(["path", "--cond", "1", "--seed", "2"], capsys)
    mpath = workdir / "path.manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["version"] = "0.1.0"
    mpath.write_text(json.dumps(manifest))
    code, cap = run_cli(["replay", str(mpath)], capsys)
    assert code == 0  # matching outputs need no explanation
    assert cap.out.splitlines() == ["replayed path: outputs identical"]
    manifest["payload_sha256"] = "0" * 64
    mpath.write_text(json.dumps(manifest))
    code, cap = run_cli(["replay", str(mpath)], capsys)
    assert code == 1
    assert cap.out.splitlines() == [
        "replayed path: OUTPUT MISMATCH",
        f"version differs from the recorded run: '0.1.0' -> {__version__!r}"]


# 0.3.14 manifests of `verify INSTANCE [--radius R] --out o.json`, whose config
# held verify's options then: ss-valley at its default radius and at 0.1, and
# cnn-same-valley at its three default scales (scale null)
V0314 = {"activation": "tanh", "y": [1.0, 2.0, 9.0, 2.0], "probes": 500, "scale": None, "seed": 0}
MANIFESTS_0314 = {
    "ss-valley": ({**V0314, "radius": 0.05},
                  "6cb59f75a368a3b032eaa60969e356b93bfca0923d4522a82732e4203f54213c",
                  "cfddef35a46e0e0b9dc1c6eabc4f223e7b4dbc1045e5ac43ef541591157530a0"),
    "cnn-same-valley": ({**V0314, "radius": 0.05},
                        "8ebde436d7b3d50133620ee85a5a0d0673e0583ef1abddf34d240809b9a49ede",
                        "a85dd0c442caacccce8a37a6d5514fb41445994a99b252ef205798def2d76251"),
    "ss-valley radius 0.1": ({**V0314, "radius": 0.1},
                             "33da97ccb72c4eb574be0bd804bf5916c77930b959a513bb975f0649154e3ef2",
                             "849004debb6dca6f5ec8064c1ecc4ded31a382aa9dab85c5748d018b070fd3f3"),
}


@pytest.mark.parametrize("name", list(MANIFESTS_0314))
def test_a_0_3_14_verify_manifest_replays(workdir, capsys, name):
    # the options verify no longer has are ignored in a recorded config: a
    # default run replays identical, and one at another radius, which the
    # valley's own units replaced, differs and names the version
    config, payload_sha, primary_sha = MANIFESTS_0314[name]
    p = workdir / "m.json"
    p.write_text(json.dumps({
        "command": "verify", "config": {"instance": name.split()[0], **config}, "seed": 0,
        "version": "0.3.14", "payload_sha256": payload_sha,
        "outputs": {"primary": {"path": "o.json", "sha256": primary_sha}}}))
    code, cap = run_cli(["replay", str(p)], capsys)
    if "radius" in name:
        assert code == 1 and cap.out.splitlines() == [
            "replayed verify: OUTPUT MISMATCH",
            f"version differs from the recorded run: '0.3.14' -> {__version__!r}"]
    else:
        assert code == 0 and cap.out.splitlines() == ["replayed verify: outputs identical"]


def test_trials_smoke(workdir, capsys):
    code, cap = run_cli(["trials", "--n", "4", "--epochs", "300", "--json"], capsys)
    assert code == 0
    payload = json.loads(cap.out)
    assert set(payload) == {"trials", "clusters", "counts", "fractions"}
    assert len(payload["trials"]) == 4


# ---------------------------------------------------------------------------
# console script
# ---------------------------------------------------------------------------

def _checkout_env(bin_dir=None):
    """Child environment that imports the sparseland under test.

    PYTHONPATH is pinned to the directory holding the imported package, so
    a subprocess runs this code and not an install found elsewhere;
    `bin_dir`, if given, is searched first on PATH.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(sparseland.__file__).resolve().parent.parent)
    if bin_dir is not None:
        env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", os.defpath)])
    return env


# started with `python -S`: on Linux a child's peak RSS also counts the
# high-water mark of the process that spawned it, and pytest's is large
_PEAK_RSS = """import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _exit_code_and_peak_rss_kb(argv):
    proc = subprocess.run([sys.executable, "-S", "-c", _PEAK_RSS,
                           sys.executable, "-m", "sparseland.cli", *argv],
                          capture_output=True, text=True, env=_checkout_env(), check=True)
    code, kb = proc.stdout.split()
    return int(code), int(kb)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux")
def test_verify_memory_does_not_grow_with_probes(workdir):
    small = _exit_code_and_peak_rss_kb(["verify", "ss-valley", "--probes", "1000"])
    large = _exit_code_and_peak_rss_kb(["verify", "ss-valley", "--probes", "2000000"])
    assert small[0] == large[0] == 0
    assert large[1] - small[1] <= 16 * 1024, (small, large)


@pytest.mark.parametrize("argv,code,err", [
    (["verify", "ss-valley", "--y", "1,2,1e160,2"], 2,
     "error: a probe loss can overflow: the targets y = (1.0, 2.0, 1e+160, 2.0) lie "),
    (["verify", "ss-valley", "--y", "1,2,1e200,2"], 2,
     "error: valley instance failed validation: valley loss inf != y4^2 = 4.0; "),
    (["verify", "ss-valley", "--y", "1,2,9,1e200"], 1, ""),
], ids=["ss-valley-probe-overflow", "ss-valley-overflow", "ss-valley-levels-overflow"])
def test_verify_overflow_prints_no_numpy_warning(tmp_path, argv, code, err):
    # the losses overflow: stderr holds the one error line, or nothing
    proc = subprocess.run([sys.executable, "-m", "sparseland.cli", *argv], capture_output=True,
                          text=True, env=_checkout_env(), cwd=tmp_path)
    assert proc.returncode == code
    assert proc.stderr.startswith(err) and proc.stderr.count("\n") == (code == 2), proc.stderr
    assert (tmp_path / "verify.manifest.json").exists() == (code != 2)


@pytest.mark.parametrize("extra", [["--noise", "1e200"], ["--noise", "1e308", "--a-norm", "1e308"]],
                         ids=["optimum-overflow", "data-overflow"])
def test_train_overflow_prints_no_numpy_warning(tmp_path, extra):
    # the generated data or the least-squares optimum overflow: the run
    # diverges, writes its null losses and prints nothing on stderr
    proc = subprocess.run([sys.executable, "-m", "sparseland.cli", "train", "--dims", "2,2,1",
                           "--epochs", "3", *extra], capture_output=True, text=True,
                          env=_checkout_env(), cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert "(diverged)" in proc.stdout


def _big_linear_spec(dims):
    """A linear net over the dim chain with every weight 1e308."""
    return {"layers": [{"weights": [[1e308] * n_in for _ in range(n_out)]}
                       for n_in, n_out in zip(dims, dims[1:])],
            "activation": {"kind": "linear"}}


@pytest.mark.parametrize("dims,seed,code,err", [
    # the rank samples of seed 2 overflow the hidden layer, those of seed 0
    # only the output: its two equal hidden rows then have rank 1 < 2
    ((2, 2, 1), 2, 2, "error: hidden output of layer 1 is not finite on the samples"),
    ((2, 2, 2, 1), 0, 2, "error: hidden output of layer 2 is not finite on the samples"),
    ((2, 2, 1), 0, 1, ""),
], ids=["2-2-1-hidden-overflow", "2-2-2-1", "2-2-1-output-overflow"])
def test_rank_of_an_overflowing_forward_pass(tmp_path, dims, seed, code, err):
    (tmp_path / "big.json").write_text(json.dumps(_big_linear_spec(dims)))
    proc = subprocess.run([sys.executable, "-m", "sparseland.cli", "rank", "--spec", "big.json",
                           "--seed", str(seed)], capture_output=True, text=True,
                          env=_checkout_env(), cwd=tmp_path)
    assert proc.returncode == code
    assert proc.stderr.startswith(err) and proc.stderr.count("\n") == (code == 2), proc.stderr
    assert (tmp_path / "rank.manifest.json").exists() == (code != 2)
    if code == 1:
        assert proc.stdout.startswith("hidden ranks on n=6 gaussian samples: [1]\n")


def test_console_script_version():
    proc = subprocess.run([sys.executable, "-m", "sparseland.cli", "--version"],
                          capture_output=True, text=True, env=_checkout_env())
    assert proc.returncode == 0
    assert proc.stdout == f"sparseland {__version__}\n"


def test_a_closed_stdout_keeps_the_verdict(workdir, monkeypatch):
    # the reader closes the pipe before the run prints: the certificate that
    # passed still exits 0, with no BrokenPipeError on stderr, also from the
    # interpreter's flush at exit
    argv = ["verify", "sd-minimum", "--json"]
    proc = subprocess.Popen([sys.executable, "-m", "sparseland.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_checkout_env(), cwd=workdir)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 0 and err == b""
    # in process: main returns the verdict, and stdout's descriptor then
    # writes to the null device, so a later flush raises nothing
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        assert main(argv) == 0
        print("after", file=closed, flush=True)


def test_cli_import_skips_scipy(tmp_path):
    # numpy is the one runtime dependency: importing the CLI, `path` (which
    # picks a pivoted row basis) and its replay all leave scipy unloaded
    script = ("import sys\n"
              "from sparseland.cli import main\n"
              "loaded = ['scipy' in sys.modules]\n"
              "assert main(['path', '--cond', '1', '--out', 'path.csv']) == 0\n"
              "assert main(['replay', 'path.csv.manifest.json']) == 0\n"
              "loaded.append('scipy' in sys.modules)\n"
              "print(loaded)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_checkout_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[False, False]"
    assert (tmp_path / "path.csv").exists()


def _threads_env(n: int) -> dict:
    return {**_checkout_env(), "OPENBLAS_NUM_THREADS": str(n), "OMP_NUM_THREADS": str(n),
            "MKL_NUM_THREADS": str(n)}


def test_replay_runs_under_the_recorded_thread_settings(tmp_path):
    # under two BLAS threads this run's matrix products round otherwise, and
    # after 3 epochs its outputs differ from those of one thread: the replay
    # loads numpy under the recorded one thread, and the caller's two come back
    argv = ["train", "--dims", "20,100,100,20", "--n", "200", "--epochs", "3",
            "--activation", "tanh", "--lr", "1e-3", "--out", "t.csv"]
    proc = subprocess.run([sys.executable, "-m", "sparseland.cli", *argv], capture_output=True,
                          text=True, env=_threads_env(1), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    script = ("import os\n"
              "from sparseland.cli import main\n"
              "code = main(['replay', 't.csv.manifest.json'])\n"
              "print(os.environ['OPENBLAS_NUM_THREADS'], code)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_threads_env(2), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["replayed train: outputs identical", "2 0"]


def test_runtime_dependencies_are_the_imports():
    # every third-party package a module of sparseland imports, at any depth,
    # is a runtime dependency in pyproject.toml, and every dependency is imported
    tomllib = pytest.importorskip("tomllib")
    with (Path(__file__).resolve().parent.parent / "pyproject.toml").open("rb") as f:
        listed = {re.split(r"[<>=!~;\[ ]", dep, maxsplit=1)[0].lower()
                  for dep in tomllib.load(f)["project"]["dependencies"]}
    imported = set()
    for path in Path(sparseland.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) - {"sparseland"} == listed


def _rule(kind):
    """The rule an argparse type states, as a key: (kind, low, open_low, high)
    for a number, (the item's rule, least, most) for a list; a bare float or
    int states only its kind."""
    if hasattr(kind, "item"):
        return _rule(kind.item), kind.least, kind.most
    return (getattr(kind, "kind", kind), getattr(kind, "low", None),
            getattr(kind, "open_low", False), getattr(kind, "high", None))


FINITE = (float, None, False, None)
# the test id of each float rule a flag states: a fixed name per rule, so that
# a test keeps its id however the rule's type is built
FLOAT_RULE_IDS = {FINITE: "_finite_float", (float, 0, False, None): "_nonnegative_float",
                  (float, 0, True, None): "_positive_float", (float, 0, False, 1): "_fraction",
                  (FINITE, 1, math.inf): "_parse_floats", (FINITE, 4, 4): "_four_floats"}


def _float_options():
    """(command, option, type) of every option whose argparse type reads
    floating-point numbers: a float, or a list of them."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0], action.type)
            for command, parser in sub.choices.items() for action in parser._actions
            if getattr(getattr(action.type, "item", action.type), "kind", action.type) is float]


def test_float_options_use_the_finite_type():
    # a bare `type=float` lets nan and inf through the command line
    bare = [(command, option) for command, option, kind in _float_options() if kind is float]
    assert not bare


# a short command line that runs once the option under test is appended to it
_FLOAT_BASE = {"verify": ["verify", "cnn-same-valley"],
               "train": ["train", "--dims", "3,4,1", "--epochs", "5"],
               "trials": ["trials", "--n", "2", "--epochs", "5"], "rank": ["rank"],
               "conv-rank": ["conv-rank", "--mode", "same", "--d", "2"]}


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("command,option,kind", _float_options(),
                         ids=lambda v: FLOAT_RULE_IDS.get(_rule(v), "float") if callable(v) else v)
def test_non_finite_numbers_are_usage_errors(workdir, capsys, command, option, kind, bad):
    # a list takes the bad text as its last entry, after good ones
    value = ",".join(["1"] * (getattr(kind, "least", 1) - 1) + [bad])
    with pytest.raises(SystemExit) as ei:
        main([*_FLOAT_BASE[command], option, value])
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1 and f"argument {option}:" in errors[0]
    assert not list(workdir.glob("*.manifest.json"))


def test_installed_entry_point(tmp_path):
    # The suite runs from an uninstalled checkout, so build the console script
    # declared in pyproject.toml the way installers do and run it by name.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["sparseland"]
    module, _, attr = target.partition(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "sparseland"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr.split('.')[0]}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n"
    )
    script.chmod(0o755)
    proc = subprocess.run(["sparseland", "--version"], capture_output=True,
                          text=True, env=_checkout_env(bin_dir))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"sparseland {__version__}\n"
