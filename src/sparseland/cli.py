"""Command-line surface.

Subcommands: verify, train, trials, path, prune, rank, conv-rank, replay.
Exit codes: 0 verified/converged, 1 ran but falsified/diverged, 2 usage or
input error.  Every input error past the command line (a bad SEED, a bad
manifest, a ValueError raised by a handler, a size whose arrays cannot be
allocated, an --out or manifest path that cannot be written) is a ValueError
or MemoryError that leaves main through its one except: one `error:` line,
no manifest, no artifact, and main returns 2.  A stdout closed by its reader
keeps the run's own exit code.  A non-finite float in a payload is written
as null.  Every run writes a JSON manifest (next to --out, or
<command>.manifest.json in the working directory) from which `replay`
reproduces the outputs bit-identically.  The SEED environment variable
overrides --seed for every command that takes one; replay uses the seeds
recorded in the manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from pathlib import Path

from . import __version__

# Numerical modules load inside the handlers, so --version, --help and usage
# errors import no numpy.  These copies of activations.KINDS, convmodes.MODES
# and counterexamples.STRICT_Y build the parser; a test pins them to the originals.
KINDS = ("linear", "relu", "leaky_relu", "elu", "tanh", "sigmoid", "shifted_sigmoid",
         "softplus", "polynomial")
MODES = ("full", "same", "valid")
STRICT_Y = (1.0, 2.0, 9.0, 2.0)  # the default `--y` of `verify` and `trials`
# the kinds `--activation` names: a polynomial needs coefficients, which only a spec gives
FLAG_KINDS = tuple(k for k in KINDS if k != "polynomial")

# the instance options that each verify instance reads; it rejects the others
VERIFY_READS = {"sd-minimum": (), "ss-valley": ("activation", "y", "radius"),
                "cnn-same-valley": ("scale",)}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _payload_digest(payload: dict) -> str:
    return _sha256(json.dumps(payload, sort_keys=True))


def _rejected(message: str, text: str) -> argparse.ArgumentTypeError:
    """The type error "<message>, got <text>", the text quoted when it holds a
    character that does not print, such as a line break, so it stays one line."""
    shown = text if text.isprintable() else repr(text)
    return argparse.ArgumentTypeError(f"{message}, got {shown}")


def _with_bounds(noun: str, bounds: str) -> str:
    """noun under bounds: "a finite number of at least 0", "integers above 0"."""
    return f"{noun} of {bounds}" if bounds.startswith("at") else f"{noun} {bounds}".rstrip()


def _number(kind, low=None, open_low=False, high=None):
    """argparse type: a finite float or an int (kind) that is at least low, or
    above it when open_low, and below high, each bound optional.  The parser
    holds this rule as its attributes, and its bounds in words as `bounds`."""
    bounds = [] if low is None else [f"{'above' if open_low else 'at least'} {low}"]
    bounds = " and ".join(bounds + ([] if high is None else [f"below {high}"]))

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {'a number' if kind is float else 'an integer'}, got {text!r}")
        if kind is float and not math.isfinite(value):
            raise _rejected("must be a finite number", text)
        if (low is not None and (value <= low if open_low else value < low)
                or high is not None and value >= high):
            rule = _with_bounds("a finite number", bounds) if kind is float else bounds
            raise _rejected(f"must be {rule}", text)
        return value

    vars(parse).update(kind=kind, low=low, open_low=open_low, high=high, bounds=bounds)
    return parse


def _numbers(item, least, most=math.inf):
    """argparse type: comma-separated entries that the _number type item
    reads, from least to most of them, as a tuple; the parser holds item,
    least and most."""
    noun = "numbers" if item.kind is float else "integers"

    def parse(text: str):
        try:
            values = tuple(map(item, text.split(",")))
        except argparse.ArgumentTypeError:
            entries = _with_bounds(f"finite {noun}" if item.kind is float else noun, item.bounds)
            raise _rejected(f"expected comma-separated {entries}", text)
        if not least <= len(values) <= most:
            count = least if least == most else f"at least {least}"
            raise _rejected(f"expected {count} comma-separated {noun}", text)
        return values

    vars(parse).update(item=item, least=least, most=most)
    return parse


_SEED = _number(int, 0)  # --seed, and the SEED environment variable that overrides it


def _activation_kind(text: str) -> str:
    """argparse type of `--activation`: a kind name in any case, with hyphens or
    spaces for underscores, so "LeakyReLU", "leaky-relu" and "leaky_relu" agree."""
    key = text.replace("-", "_").replace(" ", "_").lower()
    return {"leakyrelu": "leaky_relu", "shiftedsigmoid": "shifted_sigmoid"}.get(key, key)


def _out_path(text: str) -> str:
    """argparse type of --out: any text but the empty one, which names no file."""
    if not text:
        raise argparse.ArgumentTypeError("expected a file path, got ''")
    return text


def _load_net_spec(args):
    """Parse the --spec network JSON file, and record the path and SHA-256 of
    the bytes parsed as args.inputs["spec"]; a ValueError names the file and
    what is wrong with it."""
    from .network import net_from_json

    path = args.spec
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e}")
    args.inputs["spec"] = {"path": path, "sha256": hashlib.sha256(data).hexdigest()}
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed JSON in {path}: line {e.lineno} column {e.colno}: {e.msg}")
    try:
        return net_from_json(obj)
    except (ValueError, KeyError, TypeError) as e:
        raise ValueError(f"bad network spec in {path}: {e}")


def _reject_unread(args, command: str, dests, who: str, why: str = ""):
    """A usage error naming each option of `command` among `dests` that holds a
    value other than its default: `who` does not read it, so it would be
    dropped silently."""
    given = [a.option_strings[0] for a in _subparser(command)._actions
             if a.dest in dests and getattr(args, a.dest) != a.default]
    if given:
        raise ValueError(f"{who} ignores {', '.join(given)}{why}")


def _spec_or_random_net(args, command: str):
    """The --spec net, or a random masked net over --dims.

    --sparsity, --activation and --scale-init shape only the random net, so
    with --spec a value other than the command's default is a usage error;
    train --reinit still redraws the spec's weights at --scale-init.
    """
    if args.spec is None:
        from .activations import Activation
        from .trainer import random_effective_net

        return random_effective_net(args.dims, args.sparsity, seed=args.seed,
                                    activation=Activation(args.activation),
                                    init_scale=args.scale_init)
    unused = {"sparsity", "activation"} | (set() if getattr(args, "reinit", False) else {"scale_init"})
    _reject_unread(args, command, unused, "--spec", ": they shape only a random --dims net")
    return _load_net_spec(args)


# ---------------------------------------------------------------------------
# handlers: each returns (exit_code, payload, primary, summary_lines);
# primary is a non-JSON artifact (CSV) or None when the payload is the
# artifact itself
# ---------------------------------------------------------------------------

def cmd_verify(args):
    unread = set().union(*VERIFY_READS.values()) - set(VERIFY_READS[args.instance])
    _reject_unread(args, "verify", unread, f"verify {args.instance}")
    from .activations import Activation
    from .counterexamples import (conv_valley_instance, probe_conv_valley, probe_valley,
                                  spurious_minimum_instance, valley_instance,
                                  verify_spurious_minimum)

    if args.instance == "sd-minimum":
        inst = spurious_minimum_instance()
        ver = verify_spurious_minimum(inst, n_probes=args.probes, seed=args.seed)
        payload = ver.to_json()
        lines = [f"{k}: {v}" for k, v in payload.items() if isinstance(v, bool)]
        return (0 if ver.passed else 1), payload, None, lines

    if args.instance == "ss-valley":
        act = Activation(args.activation)
        inst = valley_instance(args.y, act)
        probe = probe_valley(inst, n_probes=args.probes, radius=args.radius, seed=args.seed)
        verified = probe.ok and inst.constraints_ok
        payload = {
            "activation": act.kind,
            "y": list(inst.y),
            "valley_loss": inst.valley_loss,
            "escape_loss": inst.escape_loss,
            "constraints": inst.constraints,
            "constraints_ok": inst.constraints_ok,
            "probe": probe.to_json(),
            "verified": verified,
        }
        lines = [
            f"valley loss {inst.valley_loss}, escape loss {inst.escape_loss}",
            f"probe min excess {probe.min_excess:.3e}, falsifications {probe.falsifications}",
            f"constraints ok: {inst.constraints_ok}",
            f"verified: {verified}",
        ]
        return (0 if verified else 1), payload, None, lines

    # cnn-same-valley
    scales = (args.scale,) if args.scale is not None else (0.5, 1.0, 2.0)
    per_scale, lines = [], []
    all_ok = True
    for a in scales:
        inst = conv_valley_instance(a)
        probe = probe_conv_valley(inst, n_probes=args.probes, seed=args.seed)
        all_ok &= probe.ok  # conv_valley_instance has checked the global witness
        per_scale.append({
            "a": a, "valley_loss": inst.valley_loss,
            "witness_loss": float(inst.loss(inst.global_witness())),
            "probe": probe.to_json(), "ok": probe.ok,
        })
        lines.append(f"a={a}: min excess {probe.min_excess:.3e}, ok {probe.ok}")
    payload = {"scales": per_scale, "verified": all_ok}
    lines.append(f"verified: {all_ok}")
    return (0 if all_ok else 1), payload, None, lines


def cmd_train(args):
    from .landscape import least_squares_optimum
    from .trainer import TrainConfig, gd_train, gen_synthetic, init_net

    if args.target == "identity":
        _reject_unread(args, "train", {"a_norm"}, "--target identity")
    net = _spec_or_random_net(args, "train")
    if args.reinit:
        net = init_net(net, args.scale_init, args.seed)

    d_x, d_y = net.layers[0].n_in, net.layers[-1].n_out
    X, Y = gen_synthetic(args.n, d_x, d_y, seed=args.seed, a_norm=args.a_norm,
                         noise=args.noise, target=args.target)
    config = TrainConfig(learning_rate=args.lr, max_epochs=args.epochs, backtrack=args.backtrack)
    trace = gd_train(net, X, Y, config, rank_every=args.rank_every)

    optimum = gap = None
    if trace.net.activation.kind == "linear":
        optimum = least_squares_optimum(X, Y)
        gap = trace.final_loss - optimum

    payload = {
        "final_loss": trace.final_loss,
        "stop_reason": trace.stop_reason,
        "epochs": trace.epochs,
        "realized_sparsity": trace.net.sparsity,
        "optimum": optimum,
        "gap": gap,
        "monotone_violation": trace.monotone_violation,
        "ranks": [[e, list(r)] for e, r in trace.ranks],
    }
    lines = [f"final loss {trace.final_loss!r} after {trace.epochs} epochs ({trace.stop_reason})",
             f"realized sparsity {payload['realized_sparsity']:.4f}"]
    if gap is not None:
        lines.append(f"L - L* = {gap!r} (L* = {optimum!r})")
    return (1 if trace.diverged else 0), payload, trace.to_csv(), lines


def cmd_trials(args):
    from .activations import Activation
    from .counterexamples import valley_instance
    from .trainer import TrainConfig, run_trials

    act = Activation(args.activation)
    inst = valley_instance(args.y, act)
    config = TrainConfig(learning_rate=args.lr, max_epochs=args.epochs)
    stats = run_trials(inst, args.n, config, seed=args.seed)
    payload = stats.to_json()
    n = len(stats.labels)
    lines = [f"{n} trials, activation {act.kind}, y = {list(inst.y)}"]
    for label in sorted(stats.counts):
        lines.append(f"  {label}: {stats.counts[label]}/{n} ({stats.fraction(label):.0%})")
    lines.append(f"loss clusters: {len(stats.clusters)}")
    for center, size in stats.clusters:
        lines.append(f"  {center!r} x{size}")
    code = 1 if stats.counts.get("diverged", 0) == n else 0
    return code, payload, None, lines


def cmd_path(args):
    import numpy as np

    from .landscape import (least_squares_optimum, nonincreasing_path_overparam,
                            nonincreasing_path_scalar_output, random_grouped_instance)

    cond = "overparam" if args.cond == 1 else "scalar"
    inst, theta = random_grouped_instance(cond, seed=args.seed, n_groups=args.groups, n=args.n)
    if cond == "overparam":
        trace = nonincreasing_path_overparam(inst, theta, n_samples=args.samples)
    else:
        trace = nonincreasing_path_scalar_output(inst, theta, n_samples=args.samples)
    optimum = least_squares_optimum(np.vstack(inst.zs), inst.Y)
    violation = trace.monotone_violation
    gap = trace.end_loss - optimum
    ok = violation <= 1e-10 and abs(gap) <= 1e-8
    payload = {
        "cond": args.cond,
        "monotone_violation": violation,
        "end_loss": trace.end_loss,
        "optimum": optimum,
        "gap": gap,
        "segments": list(trace.names),
        "ok": ok,
    }
    lines = [f"cond-{args.cond} path, {len(trace.names)} segments",
             f"monotone violation {violation:.3e}",
             f"end loss {trace.end_loss!r}, optimum {optimum!r}, gap {gap:.3e}"]
    return (0 if ok else 1), payload, trace.to_csv(), lines


def cmd_prune(args):
    from .network import effective_subnetwork, net_to_json

    net = _load_net_spec(args)
    reduced, report = effective_subnetwork(net)
    payload = {
        "removed_edges": [list(e) for e in report.removed_edges],
        "removed_biases": [list(b) for b in report.removed_biases],
        "neutered": [list(v) for v in report.neutered],
        "isolated_inputs": list(report.isolated_inputs),
        "isolated_outputs": list(report.isolated_outputs),
        "is_effective": report.is_effective,
        "sparsity_before": net.sparsity,
        "sparsity_after": reduced.sparsity,
        "reduced": net_to_json(reduced),
    }
    lines = [
        f"removed {len(report.removed_edges)} edges, {len(report.removed_biases)} biases, "
        f"{len(report.neutered)} neurons neutered",
        f"sparsity {payload['sparsity_before']:.4f} -> {payload['sparsity_after']:.4f}",
        f"effective: {report.is_effective}",
    ]
    return (0 if report.is_effective else 1), payload, None, lines


def cmd_rank(args):
    from .landscape import layer_ranks
    from .trainer import stream

    net = _spec_or_random_net(args, "rank")
    X = stream(args.seed, "rank").standard_normal((net.layers[0].n_in, args.n))
    ranks = layer_ranks(net, X)[:-1]
    if None in ranks:
        raise ValueError(f"hidden output of layer {ranks.index(None) + 1} is not finite on the "
                         f"samples, so its rank is not measured")
    full = [r == min(net.layers[k].n_out, args.n) for k, r in enumerate(ranks)]
    payload = {"n": args.n, "ranks": list(ranks), "full_rank": full, "all_full": all(full)}
    lines = [f"hidden ranks on n={args.n} gaussian samples: {list(ranks)}",
             f"full rank per layer: {full}"]
    return (0 if all(full) else 1), payload, None, lines


def cmd_conv_rank(args):
    import numpy as np

    from .convmodes import ConvSpec, conv_matrix, conv_rank_expected
    from .landscape import numerical_rank

    kernel = np.asarray(args.kernel, dtype=float)
    spec = ConvSpec(kernel, args.d, args.mode)
    expected = conv_rank_expected(spec)
    numeric = numerical_rank(conv_matrix(spec))
    payload = {"mode": args.mode, "d": args.d, "kernel": [float(k) for k in kernel],
               "expected": expected, "numeric": numeric, "match": expected == numeric}
    lines = [f"expected {expected}, numeric {numeric}"]
    return (0 if expected == numeric else 1), payload, None, lines


HANDLERS = {
    "verify": cmd_verify,
    "train": cmd_train,
    "trials": cmd_trials,
    "path": cmd_path,
    "prune": cmd_prune,
    "rank": cmd_rank,
    "conv-rank": cmd_conv_rank,
}

# args keys that are plumbing, not config: `inputs` collects the input
# files a handler read, which the manifest records apart
_NON_CONFIG = {"command", "out", "json_out", "inputs"}

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _finite_json(value):
    """value with every non-finite float made None, which JSON writes as null
    (json.dumps would write NaN or Infinity, which JSON lacks)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(v) for v in value]
    return value


def _run(handler, args):
    """(exit code, payload, primary text, summary lines) of a handler: the
    payload holds no non-finite float, and the primary text is the artifact,
    or the payload's JSON when there is none."""
    code, payload, primary, lines = handler(args)
    payload = _finite_json(payload)
    return code, payload, primary if primary is not None else json.dumps(payload, indent=2), lines


def _write_text(path: Path, text: str) -> None:
    """Write text to path, making its directory; a path that cannot be
    written is a ValueError, so that it exits 2 like any bad input."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e}")


def _environment() -> dict:
    """What can move the last bits of a result: the BLAS thread settings and
    CPU count, numpy and its BLAS build, and the Python version."""
    import numpy as np

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {**{name: os.environ.get(name) for name in _THREAD_VARS}, "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": "{}.{}.{}".format(*sys.version_info[:3]), "cpu_count": os.cpu_count()}


def _subparser(command: str) -> argparse.ArgumentParser:
    """The parser of `command`, whose options a manifest records in its config;
    a text it rejects raises ValueError with the command line's message."""
    def error(message):
        raise ValueError(message)

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parser = sub.choices[command]
    parser.error = error
    return parser


def _command_words(actions, config: dict) -> list:
    """The command line a recorded config stands for: an option whose value is
    JSON-equal to its default is left out, a store_true flag recorded as true
    is the bare flag, and any other value is --opt=<text>, a list joined by
    commas; the `=` keeps a text that starts with "-" a value."""
    words, positional = [], []
    for a in actions:
        value = config[a.dest]
        if json.dumps(value) == json.dumps(a.default):
            continue
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        if not a.option_strings:
            positional.append(text)
        elif a.nargs == 0 and value is True:
            words.append(a.option_strings[0])
        else:
            words.append(f"{a.option_strings[0]}={text}")
    return words + ["--", *positional] if positional else words


def cmd_replay(args):
    try:
        manifest = json.loads(Path(args.manifest_path).read_text())
        if not isinstance(manifest, dict):
            raise TypeError("not a JSON object")
        command = manifest["command"]
        config = manifest["config"]
        expected_payload = manifest["payload_sha256"]
        expected_primary = manifest["outputs"]["primary"]["sha256"]
        recorded_env = manifest.get("environment", {})  # absent in older manifests
        recorded_inputs = manifest.get("inputs", {})  # absent before 0.3.5
        if not (isinstance(config, dict) and isinstance(recorded_env, dict)):
            raise TypeError("config and environment must be JSON objects")
        threads = {name: recorded_env[name] for name in _THREAD_VARS
                   if recorded_env.get(name) is not None}
        if not all(isinstance(v, str) for v in threads.values()):
            raise TypeError("recorded thread settings must be strings or null")
        if not (isinstance(recorded_inputs, dict) and all(
                isinstance(e, dict) and isinstance(e.get("path"), str)
                for e in recorded_inputs.values())):
            raise TypeError("inputs must map names to objects with a path")
        if not (isinstance(command, str) and command in HANDLERS):
            raise ValueError(f"unknown command {command!r}")
        parser = _subparser(command)
        actions = [a for a in parser._actions if a.dest not in _NON_CONFIG | {"help"}]
        missing = {a.dest for a in actions} - config.keys()
        if missing:
            raise ValueError(f"config lacks {', '.join(sorted(missing))}")
        ns = parser.parse_args(_command_words(actions, config),
                               argparse.Namespace(command=command, inputs={}))
    except (OSError, ValueError, KeyError, TypeError) as e:  # JSONDecodeError is a ValueError
        raise ValueError(f"bad manifest {args.manifest_path}: {e}") from None
    # the BLAS reads its thread count when numpy loads: a replay that loads it
    # splits its matrix products as the recorded run did, and the caller's
    # settings come back after
    if "numpy" in sys.modules:
        threads = {}
    caller = {name: os.environ[name] for name in _THREAD_VARS if name in os.environ}
    try:
        os.environ.update(threads)
        code, payload, primary_text, _ = _run(HANDLERS[command], ns)
        now = _environment()
    finally:
        for name in _THREAD_VARS:
            os.environ.pop(name, None)
        os.environ.update(caller)
    got_payload = _payload_digest(payload)
    got_primary = _sha256(primary_text)
    match = got_payload == expected_payload and got_primary == expected_primary
    out_payload = {
        "command": command,
        "match": match,
        "payload_sha256": {"expected": expected_payload, "got": got_payload},
        "primary_sha256": {"expected": expected_primary, "got": got_primary},
        "replayed_exit_code": code,
    }
    lines = [f"replayed {command}: {'outputs identical' if match else 'OUTPUT MISMATCH'}"]
    if not match:
        recorded = manifest.get("version")
        if recorded != __version__:
            lines.append(f"version differs from the recorded run: {recorded!r} -> {__version__!r}")
        changed = [f"{k} {v!r} -> {now[k]!r}" for k, v in recorded_env.items()
                   if k in now and v != now[k]]
        if changed:
            lines.append("environment differs from the recorded run: " + ", ".join(changed))
        inputs = [f"{name} {e['path']}" for name, e in recorded_inputs.items()
                  if ns.inputs.get(name, {}).get("sha256") != e.get("sha256")]
        if inputs:
            lines.append("input differs from the recorded run: " + ", ".join(inputs))
    if args.out:
        _write_text(Path(args.out), primary_text)
        lines.append(f"wrote {args.out}")
    return (0 if match else 1), out_payload, None, lines


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the parser of each subcommand, that reads any
    word shaped like a negative number (-1e-3, -.5, -1,2, -inf) as a value,
    so the option's type judges it; argparse alone takes only -1 and -0.5."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def _get_values(self, action, arg_strings):
        # argparse drops a "--" given as an option's own value (--seed=--) and
        # leaves the option []; the option's type judges it instead
        if arg_strings == ["--"] and action.option_strings and action.nargs is None:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="sparseland",
        description="Loss-landscape analysis for masked (pruned) networks: "
                    "certified bad points, descent paths, rank certificates, "
                    "convolution mode ranks and GD experiments.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def activation(sp, default, note=""):
        sp.add_argument("--activation", type=_activation_kind, choices=FLAG_KINDS, default=default,
                        metavar="KIND", help=note + "one of %(choices)s, in any case")

    def common(sp, seeded=True):
        if seeded:
            sp.add_argument("--seed", type=_SEED, default=0,
                            help="RNG seed (env SEED overrides)")
        sp.add_argument("--out", type=_out_path, default=None,
                        help="write the primary artifact to this path")
        sp.add_argument("--json", dest="json_out", action="store_true",
                        help="print the JSON payload instead of a summary")

    sp = sub.add_parser("verify", help="re-check a certified landscape instance")
    sp.add_argument("instance", choices=tuple(VERIFY_READS))
    activation(sp, "tanh", "ss-valley only: ")
    sp.add_argument("--y", type=_numbers(_number(float), 4, 4), default=STRICT_Y,
                    help="ss-valley only: target values y1,y2,y3,y4")
    sp.add_argument("--probes", type=_number(int, 1), default=500)
    sp.add_argument("--radius", type=_number(float, 0, open_low=True), default=0.05,
                    help="ss-valley only: probe radius")
    sp.add_argument("--scale", type=_number(float, 0, open_low=True), default=None,
                    help="cnn-same-valley only: valley parameter a")
    common(sp)

    sp = sub.add_parser("train", help="full-batch GD on a masked net")
    net_source = sp.add_mutually_exclusive_group(required=True)
    net_source.add_argument("--spec", default=None, help="network JSON file")
    net_source.add_argument("--dims", type=_numbers(_number(int, 1), 3), default=None,
                            help="layer sizes, e.g. 20,100,100,1 (random masked net)")
    sp.add_argument("--sparsity", type=_number(float, 0, high=1), default=0.0)
    activation(sp, "linear")
    sp.add_argument("--n", type=_number(int, 1), default=100, help="number of samples")
    sp.add_argument("--noise", type=_number(float, 0), default=1.0)
    sp.add_argument("--a-norm", type=_number(float, 0), default=5.0)
    sp.add_argument("--target", choices=("gaussian", "identity"), default="gaussian")
    sp.add_argument("--lr", type=_number(float, 0, open_low=True), default=0.01)
    sp.add_argument("--epochs", type=_number(int, 0), default=5000)
    sp.add_argument("--scale-init", type=_number(float, 0), default=1.0)
    sp.add_argument("--rank-every", type=_number(int, 0), default=100,
                    help="epochs between hidden-rank samples; 0 disables them")
    sp.add_argument("--backtrack", action="store_true",
                    help="halve steps that would increase the loss")
    sp.add_argument("--reinit", action="store_true",
                    help="redraw the net's weights (scaled by --scale-init) before training")
    common(sp)

    sp = sub.add_parser("trials", help="repeated GD runs on the masked valley objective")
    sp.add_argument("--n", type=_number(int, 1), default=100, help="number of trials")
    activation(sp, "tanh")
    sp.add_argument("--y", type=_numbers(_number(float), 4, 4), default=STRICT_Y)
    sp.add_argument("--lr", type=_number(float, 0, open_low=True), default=0.01)
    sp.add_argument("--epochs", type=_number(int, 0), default=50000)
    common(sp)

    sp = sub.add_parser("path", help="non-increasing descent path on a random grouped instance")
    sp.add_argument("--cond", type=int, choices=(1, 3), default=1,
                    help="1: every group overparametrized; 3: scalar output")
    sp.add_argument("--groups", type=_number(int, 1), default=3)
    sp.add_argument("--n", type=_number(int, 1), default=12, help="number of samples")
    sp.add_argument("--samples", type=_number(int, 1), default=1000,
                    help="points sampled along the path")
    common(sp)

    sp = sub.add_parser("prune", help="strip connections off every input-output path")
    sp.add_argument("--spec", required=True, help="network JSON file")
    common(sp, seeded=False)

    sp = sub.add_parser("rank", help="hidden-layer rank certificate on gaussian data")
    net_source = sp.add_mutually_exclusive_group()
    net_source.add_argument("--spec", default=None, help="network JSON file")
    net_source.add_argument("--dims", type=_numbers(_number(int, 1), 3), default=(6, 6, 6),
                            help="layer sizes for a random masked net")
    sp.add_argument("--sparsity", type=_number(float, 0, high=1), default=0.3)
    activation(sp, "tanh")
    sp.add_argument("--scale-init", type=_number(float, 0), default=3.0)
    sp.add_argument("--n", type=_number(int, 1), default=6, help="number of samples")
    common(sp)

    sp = sub.add_parser("conv-rank", help="closed-form vs numeric rank of a conv matrix")
    sp.add_argument("--mode", required=True, type=str.lower, choices=MODES, help="in any case")
    sp.add_argument("--d", type=_number(int, 1), required=True, help="input length")
    sp.add_argument("--kernel", type=_numbers(_number(float), 1), required=True,
                    help="kernel values k0,k1,...")
    common(sp, seeded=False)

    sp = sub.add_parser("replay", help="re-run a manifest and compare outputs")
    sp.add_argument("manifest_path", help="manifest JSON written by a previous run")
    sp.add_argument("--out", type=_out_path, default=None,
                    help="also write the replayed artifact here")
    sp.add_argument("--json", dest="json_out", action="store_true")

    return p


def _write_outputs(args, code: int, payload: dict, primary_text: str) -> None:
    """Write the artifact to --out, when given, and then the run's manifest;
    an artifact whose manifest cannot be written is removed."""
    out_path = Path(args.out) if args.out else None
    if out_path is not None:
        _write_text(out_path, primary_text)
    config = {k: v for k, v in vars(args).items() if k not in _NON_CONFIG}
    manifest = {
        "command": args.command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "environment": _environment(),
        "inputs": args.inputs,
        "payload_sha256": _payload_digest(payload),
        "outputs": {
            "primary": {
                "path": str(out_path) if out_path else None,
                "sha256": _sha256(primary_text),
            },
        },
        "exit_code": code,
    }
    manifest_path = (Path(str(out_path) + ".manifest.json") if out_path
                     else Path(f"{args.command}.manifest.json"))
    try:
        _write_text(manifest_path, json.dumps(manifest, indent=2))
    except ValueError:
        if out_path is not None:
            out_path.unlink()
        raise


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    args.inputs = {}
    try:
        if "SEED" in os.environ and hasattr(args, "seed"):
            text = os.environ["SEED"]
            try:
                args.seed = _SEED(text)
            except argparse.ArgumentTypeError:
                rule = _with_bounds("an integer", _SEED.bounds)
                raise ValueError(f"SEED must be {rule}, got {text!r}") from None
        code, payload, primary_text, lines = _run(cmd_replay if command == "replay"
                                                  else HANDLERS[command], args)
        if command != "replay":
            _write_outputs(args, code, payload, primary_text)
    except (ValueError, MemoryError) as e:  # bad input (ConstructionError too), not a falsification
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        print(json.dumps(payload, indent=2) if args.json_out else "\n".join(lines), flush=True)
    except BrokenPipeError:  # the reader left early; the verdict stands
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
