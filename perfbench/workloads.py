"""The four benchmark workloads: inputs made from the workload seed, the CLI
invocations of one pass, and the check applied to each invocation's output.

Every input is generated here; the program receives only files and flags.
Each purpose (mask draw, weight values, training data, probe directions,
trial starts, random instances) gets its own seed derived from the workload
seed, so no two random streams coincide.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

PURPOSES = ("mask", "weights", "data", "probes", "trials", "instance")

TRAIN_DIMS = (20, 100, 100, 100, 100, 20)
TRAIN_SPARSITY = 0.45
TRAIN_EPOCHS = 1000
TRAIN_RANK_EVERY = 100
TRIALS_N = 500
SD_PROBES = 20_000
VALLEY_PROBES = 200_000


def purpose_seed(seed: int, purpose: str) -> int:
    """A 31-bit seed for one purpose, independent of every other purpose."""
    ss = np.random.SeedSequence(seed, spawn_key=(PURPOSES.index(purpose),))
    return int(ss.generate_state(1)[0] >> 1)


@dataclass(frozen=True)
class Op:
    """One CLI invocation.

    check(code, stdout, workdir) returns None when the output is right, else
    a one-line reason.  work(stdout) counts the units of work the invocation
    reports (trial-epochs, epochs, probe evaluations, or 1 per command).
    """

    argv: tuple
    check: Callable
    work: Callable = lambda out: 1.0


def _expect(cond: bool, why: str):
    return None if cond else why


# -- checks -------------------------------------------------------------------

def _check_flag(flag: str):
    def check(code, out, workdir):
        p = json.loads(out)
        return _expect(code == 0 and p.get(flag) is True, f"exit {code}, {flag}={p.get(flag)!r}")
    return check


def _check_conv_rank(code, out, workdir):
    p = json.loads(out)
    # the README states the rank of this example: SAME, d=4, kernel (0, 3) -> 3
    return _expect(code == 0 and p["match"] is True and p["numeric"] == 3,
                   f"exit {code}, match={p['match']}, numeric={p['numeric']}")


def _check_rank(code, out, workdir):
    p = json.loads(out)
    ok = code == 0 and p["all_full"] is True and len(p["ranks"]) == 1 and p["ranks"][0] <= 6
    return _expect(ok, f"exit {code}, ranks={p['ranks']}, all_full={p['all_full']}")


def _check_replay(code, out, workdir):
    return _expect(code == 0 and "outputs identical" in out, f"exit {code}: {out.strip()[:80]}")


def _check_prune(expected_edges):
    def check(code, out, workdir):
        p = json.loads(out)
        got = sorted(tuple(e) for e in p["removed_edges"])
        ok = code == 0 and p["is_effective"] is True and got == expected_edges
        return _expect(ok, f"exit {code}, removed {len(got)} edges, expected {len(expected_edges)}")
    return check


def _check_trials(n: int):
    def check(code, out, workdir):
        p = json.loads(out)
        counts = p["counts"]
        ok = (code == 0 and sum(counts.values()) == n and len(p["trials"]) == n
              and "diverged" not in counts)
        return _expect(ok, f"exit {code}, counts {counts}")
    return check


def _check_train(epochs: int):
    def check(code, out, workdir):
        p = json.loads(out)
        with open(Path(workdir) / "train.csv") as f:
            f.readline()
            loss0 = float(f.readline().split(",")[1])
        final = p["final_loss"]
        # the optimum is the global minimum of the linear least-squares fit
        scale = max(1.0, abs(p["optimum"]))
        ok = (code == 0 and p["stop_reason"] == "max_epochs" and p["epochs"] == epochs
              and math.isfinite(final) and final < loss0 and p["gap"] >= -1e-8 * scale)
        return _expect(ok, f"exit {code}, {p['stop_reason']} after {p['epochs']} epochs, "
                           f"loss {loss0!r} -> {final!r}, gap {p['gap']!r}")
    return check


# -- work counts --------------------------------------------------------------

def _trial_epochs(out: str) -> float:
    return float(sum(t["epochs"] for t in json.loads(out)["trials"]))


def _train_epochs(out: str) -> float:
    return float(json.loads(out)["epochs"])


def _sd_probe_evals(out: str) -> float:
    ev = json.loads(out)["report"]["probe_evidence"]
    return float(ev["n_directions"] * len(ev["radii"]))


def _valley_probe_evals(out: str) -> float:
    return float(json.loads(out)["probe"]["n_probes"])


def _conv_probe_evals(out: str) -> float:
    return float(sum(s["probe"]["n_probes"] for s in json.loads(out)["scales"]))


# -- generated inputs ---------------------------------------------------------

def _repaired_mask(rng, shape, sparsity: float) -> np.ndarray:
    """Bernoulli mask with every row and column kept nonzero."""
    m = rng.random(shape) >= sparsity
    for i in np.flatnonzero(~m.any(axis=1)):
        m[i, rng.integers(shape[1])] = True
    for j in np.flatnonzero(~m.any(axis=0)):
        m[rng.integers(shape[0]), j] = True
    return m


def write_train_spec(path: Path, seed: int) -> None:
    """Linear masked net over TRAIN_DIMS; mask and weights use separate seeds.

    The CLI's `train --dims` draws the mask and the initial weights from one
    seed, and those correlated weights diverge within 3 epochs at every seed
    (a known defect of the program, not of this benchmark). The workload
    therefore trains a generated `--spec` net; the defect is left unfixed.
    """
    rng_mask = np.random.default_rng(purpose_seed(seed, "mask"))
    rng_w = np.random.default_rng(purpose_seed(seed, "weights"))
    layers = []
    for n_in, n_out in zip(TRAIN_DIMS, TRAIN_DIMS[1:]):
        mask = _repaired_mask(rng_mask, (n_out, n_in), TRAIN_SPARSITY)
        bound = 1.0 / math.sqrt(n_in)
        w = rng_w.uniform(-bound, bound, size=mask.shape) * mask
        layers.append({"weights": w.tolist(), "mask": mask.astype(int).tolist()})
    path.write_text(json.dumps({"layers": layers, "activation": {"kind": "linear"}}))


def write_prune_spec(path: Path, seed: int) -> list:
    """A tanh net 8-6-6-4 with one hidden neuron whose outgoing edges are all
    masked.  Returns the edges pruning must remove: exactly that neuron's
    incoming edges.  Every input stays connected to all other first-layer
    neurons and every second-layer neuron keeps a live input, so nothing
    else becomes dead."""
    rng_mask = np.random.default_rng(purpose_seed(seed, "mask"))
    rng_w = np.random.default_rng(purpose_seed(seed, "weights"))
    dims = (8, 6, 6, 4)
    masks = [_repaired_mask(rng_mask, (o, i), 0.3) for i, o in zip(dims, dims[1:])]
    dead = int(rng_mask.integers(dims[1]))
    masks[0][:, :] = True
    masks[0][dead, rng_mask.random(dims[0]) < 0.5] = False
    masks[0][dead, int(rng_mask.integers(dims[0]))] = True
    masks[1][:, dead] = False
    masks[1][:, :] |= ~masks[1].any(axis=1, keepdims=True) & (np.arange(dims[1]) != dead)
    layers = []
    for m in masks:
        w = rng_w.uniform(0.5, 1.5, size=m.shape) * rng_w.choice((-1.0, 1.0), size=m.shape) * m
        layers.append({"weights": w.tolist(), "mask": m.astype(int).tolist()})
    path.write_text(json.dumps({"layers": layers, "activation": {"kind": "tanh"}}))
    return sorted((0, dead, int(i)) for i in np.flatnonzero(masks[0][dead]))


# -- workloads: each writes its inputs to workdir and returns one pass's ops --

def _cli_quick(workdir: Path, seed: int) -> list:
    probes = str(purpose_seed(seed, "probes"))
    inst = str(purpose_seed(seed, "instance"))
    expected_edges = write_prune_spec(workdir / "prune.json", seed)
    return [
        Op(("verify", "sd-minimum", "--seed", probes, "--json"), _check_flag("passed")),
        Op(("verify", "ss-valley", "--seed", probes, "--json"), _check_flag("verified")),
        Op(("verify", "cnn-same-valley", "--seed", probes, "--json"), _check_flag("verified")),
        Op(("conv-rank", "--mode", "SAME", "--d", "4", "--kernel", "0,3", "--json"),
           _check_conv_rank),
        Op(("path", "--cond", "1", "--seed", inst, "--out", "path.csv", "--json"), _check_flag("ok")),
        Op(("path", "--cond", "3", "--seed", inst, "--json"), _check_flag("ok")),
        Op(("rank", "--seed", inst, "--json"), _check_rank),
        Op(("prune", "--spec", "prune.json", "--json"), _check_prune(expected_edges)),
        Op(("replay", "path.csv.manifest.json"), _check_replay),
    ]


def _trials_batch(workdir: Path, seed: int) -> list:
    trials = str(purpose_seed(seed, "trials"))
    argv = ("trials", "--activation", "tanh", "--n", str(TRIALS_N), "--seed", trials, "--json")
    return [Op(argv, _check_trials(TRIALS_N), _trial_epochs)]


def _train_masked(workdir: Path, seed: int) -> list:
    write_train_spec(workdir / "train.json", seed)
    argv = ("train", "--spec", "train.json", "--n", "100", "--lr", "3e-4",
            "--rank-every", str(TRAIN_RANK_EVERY),
            "--epochs", str(TRAIN_EPOCHS), "--seed", str(purpose_seed(seed, "data")),
            "--out", "train.csv", "--json")
    return [Op(argv, _check_train(TRAIN_EPOCHS), _train_epochs)]


def _certify_probes(workdir: Path, seed: int) -> list:
    probes = str(purpose_seed(seed, "probes"))
    return [
        Op(("verify", "sd-minimum", "--probes", str(SD_PROBES), "--seed", probes, "--json"),
           _check_flag("passed"), _sd_probe_evals),
        Op(("verify", "ss-valley", "--probes", str(VALLEY_PROBES), "--seed", probes, "--json"),
           _check_flag("verified"), _valley_probe_evals),
        Op(("verify", "cnn-same-valley", "--probes", str(VALLEY_PROBES), "--seed", probes,
            "--json"), _check_flag("verified"), _conv_probe_evals),
    ]


# -- trace checks: what a traced pass must have recorded, from the payloads ----
#
# Each takes the layer metrics of one traced pass and the stdout of each of
# its invocations, and returns the reasons it fails.  A wrapper that was not
# installed, or a reference to an original that escaped rebinding, shows up
# here as a missing or short count.

def _equal(m, name, want):
    return [] if m[name] == want else [f"trace: {name} = {m[name]}, payload gives {want}"]


def _at_least(m, name, low):
    return [] if m[name] >= low else [f"trace: {name} = {m[name]}, expected >= {low}"]


def _positive(m, *names):
    return [f"trace: {name} is 0" for name in names if m[name] <= 0]


def _trace_cli_quick(m, outs):
    return (_equal(m, "calculus.probe_evals", _sd_probe_evals(outs[0]))
            + _positive(m, "cli.hash_bytes", "convmodes.matrix_calls", "landscape.rank_calls",
                        "counterexamples.build_s", "landscape.path_s", "landscape.zero_column_s"))


def _trace_trials_batch(m, outs):
    epochs = [t["epochs"] for t in json.loads(outs[0])["trials"]]
    loop = max(epochs)
    # run_trials evaluates the loss once before its loop and once per step,
    # and the gradient once per epoch up to the last trial's stop epoch
    return (_equal(m, "trainer.trial_epochs_active", sum(epochs))
            + _equal(m, "trainer.trial_loop_epochs", loop)
            + _equal(m, "counterexamples.objective_loss_calls", loop + 1)
            + _equal(m, "counterexamples.objective_grad_calls", loop + 1)
            + _at_least(m, "activations.calls", loop + 1))


def _trace_train_masked(m, outs):
    epochs = json.loads(outs[0])["epochs"]
    n_layers = len(TRAIN_DIMS) - 1
    # one rebuild and one grad_net per step, more when the step backtracks;
    # one rank per layer output at every rank sample
    return (_equal(m, "trainer.gd_epochs", epochs)
            + _at_least(m, "trainer.grad_net_calls", epochs + 1)
            + _at_least(m, "network.layer_builds", n_layers * (epochs + 1))
            + _at_least(m, "landscape.rank_calls", n_layers * (epochs // TRAIN_RANK_EVERY + 1)))


def _trace_certify_probes(m, outs):
    return (_equal(m, "calculus.probe_evals", _sd_probe_evals(outs[0]))
            + _positive(m, "counterexamples.probe_s"))


TRACE_CHECKS = {
    "cli-quick": _trace_cli_quick,
    "trials-batch": _trace_trials_batch,
    "train-masked": _trace_train_masked,
    "certify-probes": _trace_certify_probes,
}

# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    "cli-quick": _cli_quick,
    "trials-batch": _trials_batch,
    "train-masked": _train_masked,
    "certify-probes": _certify_probes,
}
