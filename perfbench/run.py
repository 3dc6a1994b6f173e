"""Benchmark of the sparseland CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--out FILE]

--trace 0 runs the workload's CLI invocations as fresh processes in a closed
loop with one client (the next invocation starts when the last one exits),
with a fixed reference program run between each two invocations, and
reports the end-to-end metrics.  --trace 1 runs the same invocations
in-process through `sparseland.cli.main`, alternating an untraced pass with
a traced one, and reports the per-layer metrics.  `all` does both for every
workload.  Every output is checked; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# single-threaded BLAS is the baseline: on a 2-core host two threads made
# train-masked slower, and a fixed count keeps runs comparable
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_AT_START = 3
# setup_s is in seconds on a host where one reference sample takes this long;
# the median sample of a run was 0.08 to 0.14 s on the 2-vCPU host of
# perfbench/results
REF_NOMINAL_S = 0.1
IMPORTTIME_REPEATS = 3
MIN_PASSES = 2
OP_TIMEOUT_S = 120

E2E_UNITS = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB", "cmd_p50_ref": "ref",
             "work_per_ref": "1/ref"}
# what one unit of work is on each workload, under the name its rate is printed as
RATE_NAMES = {"cli-quick": "cmds", "trials-batch": "trial_epochs", "train-masked": "epochs",
              "certify-probes": "probes"}

# The reference program: a fresh interpreter that loads the libraries every
# CLI process loads, then does a fixed amount of numpy work of two kinds and
# prints how long each took: dense 100x100 products (BLAS-bound, like a GD
# epoch on a net) and elementwise steps on 500-element arrays in a Python
# loop (interpreter-bound, like a batched trial step or a probe).  It uses
# nothing of sparseland, so no change to the program can move it; only the
# host's speed does.  Its time is the unit "ref" of the timed end-to-end
# metrics (see reference()).
REF_PROGRAM = """\
import time
import numpy as np
import scipy.linalg
t0 = time.perf_counter()
a = np.linspace(-1.0, 1.0, 10000).reshape(100, 100)
b = a
for _ in range(1000):
    b = a @ b
    b /= np.abs(b).max()
t1 = time.perf_counter()
x = np.linspace(-2.0, 2.0, 500)
for _ in range(4000):
    g = np.tanh(x) * (1.0 - x * x)
    x = x - 1e-3 * g
    done = np.abs(g) < 1e-9
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


class SetupError(Exception):
    """The program cannot be started from this checkout."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SEED"}  # SEED overrides --seed
    env.update(THREAD_ENV, PYTHONPATH=str(SRC))
    return env


class Launcher:
    """Runs CLI invocations as fresh processes started by perfbench/launcher.py,
    a small process, so that each child's peak RSS is its own (see there)."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, "-S", str(HERE / "launcher.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      env=child_env(), text=True)

    def run(self, python_args, cwd: Path):
        """One fresh interpreter run as `python *python_args`; returns
        (exit code, stdout, wall s, CPU s, peak RSS MB)."""
        request = {"argv": [sys.executable, *python_args], "cwd": str(cwd),
                   "stdout": str(cwd / "stdout.txt"), "stderr": str(cwd / "stderr.txt"),
                   "timeout": OP_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise SetupError("the launcher process ended early")
        reply = json.loads(line)
        out = (cwd / "stdout.txt").read_text()
        return reply["code"], out, reply["wall"], reply["cpu"], reply["maxrss_kb"] / 1024.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()


def verdict(op, code, out, workdir):
    """None when the invocation's output is right, else the reason."""
    try:
        return op.check(code, out, workdir)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as e:
        return f"exit {code}, unreadable output: {type(e).__name__}: {e}"


def cli_args(argv) -> list:
    return ["-m", "sparseland.cli", *argv]


def check_version(code: int, out: str) -> None:
    if code != 0 or not out.startswith("sparseland"):
        raise SetupError(f"`sparseland --version` failed with exit {code}: {out.strip()!r}")


def reference(launcher: Launcher, workdir: Path) -> float:
    """One sample of the reference program, in seconds: the geometric mean of
    its start-up (interpreter start and imports) and of its two kinds of
    numpy work.  A shared host changes speed from second to second, and
    start-up, dense products and interpreted loops slow down by different
    amounts; the mean of the three tracks the host's speed for every kind
    of invocation."""
    code, out, wall, _, _ = launcher.run(["-c", REF_PROGRAM], workdir)
    if code != 0:
        raise SetupError(f"the reference program failed with exit {code}")
    dense, loop = map(float, out.split())
    return ((wall - dense - loop) * dense * loop) ** (1 / 3)


def _would_overrun(t_start: float, next_wall: float, seconds: float) -> bool:
    return time.perf_counter() - t_start + next_wall > seconds


def fresh_workdir(name: str) -> Path:
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir


def tail(samples):
    """The highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    if len(s) < 11:
        return None, None
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def require_sources() -> None:
    if not (SRC / "sparseland" / "cli.py").is_file():
        raise SetupError(f"no sparseland sources under {SRC}")


def run_untraced(workload: str, make_ops, seed: int, seconds: float) -> dict:
    require_sources()
    workdir = fresh_workdir(workload)
    with Launcher() as launcher:
        # warm-up: compiles the bytecode
        check_version(*launcher.run(cli_args(["--version"]), workdir)[:2])
        reference(launcher, workdir)  # warm-up of the reference program
        ops = make_ops(workdir, seed)
        refs = [reference(launcher, workdir)]

        def timed(argv):
            """One invocation, then a reference sample; its wall time is also
            returned in units of the mean of the samples just before and after."""
            code, out, wall, cpu, peak = launcher.run(cli_args(argv), workdir)
            refs.append(reference(launcher, workdir))
            return code, out, wall, wall / ((refs[-2] + refs[-1]) / 2), cpu, peak

        def setup_sample():
            code, out, wall, rel, _, _ = timed(["--version"])
            check_version(code, out)
            setup_walls.append(wall)
            setup.append(rel * REF_NOMINAL_S)

        passes, cmd_walls, failures, setup, setup_walls = [], [], [], [], []
        t_start = time.perf_counter()
        # set-up samples are spread over the run, so slow phases of a shared
        # host weigh on them as on the passes
        for _ in range(SETUP_AT_START):
            setup_sample()
        while True:
            p0 = time.perf_counter()
            rss = work = cpu = wall_sum = 0.0
            rels = []
            for op in ops:
                code, out, wall, rel, op_cpu, peak = timed(op.argv)
                reason = verdict(op, code, out, workdir)
                if reason is None:
                    work += op.work(out)
                else:
                    failures.append(f"{' '.join(op.argv)}: {reason}")
                cmd_walls.append(wall)
                rels.append(rel)
                wall_sum += wall
                cpu += op_cpu
                rss = max(rss, peak)
            pass_span = time.perf_counter() - p0
            passes.append((sum(rels), statistics.median(rels), wall_sum, rss, work, cpu))
            setup_sample()
            # stop before a pass that would end after the deadline
            if len(passes) >= MIN_PASSES and _would_overrun(t_start, pass_span, seconds):
                break
    rels, cmd_rels, walls, peaks, works, cpus = zip(*passes)
    attempted = len(cmd_walls)
    tail_value, tail_pct = tail(cmd_walls)
    rate = RATE_NAMES[workload]
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": {
            "setup_s": (statistics.median(setup), len(setup)),
            "wall_ref": (statistics.median(rels), len(rels)),
            "peak_rss_mb": (statistics.median(peaks), len(peaks)),
            "cmd_p50_ref": (statistics.median(cmd_rels), len(cmd_rels)),
            "work_per_ref": (statistics.median(w / r for w, r in zip(works, rels)), len(rels)),
        },
        "details": {
            "ref_s": statistics.median(refs),
            "setup_wall_s": statistics.median(setup_walls),
            "wall_s": statistics.median(walls),
            "cmd_p50_s": statistics.median(cmd_walls),
            f"{rate}_per_s": statistics.median(w / t for w, t in zip(works, walls)),
            f"{rate}_per_ref": statistics.median(w / r for w, r in zip(works, rels)),
            "failed_frac": len(failures) / attempted,
            "cmd_tail_s": tail_value,
            "cmd_tail_percentile": tail_pct,
            "cmd_samples": attempted,
            "pass_cpu_s": statistics.median(cpus),
            "pass_walls_s": list(walls),
            "pass_refs": list(rels),
            "ref_samples_s": refs,
            "setup_samples_s": setup,
            "setup_walls_s": setup_walls,
        },
    }


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds of sparseland, numpy and scipy from the
    `-X importtime` report (post-order lines, two spaces of indent per level).
    numpy modules that scipy imports are counted in scipy only, so numpy and
    scipy are disjoint parts of sparseland."""
    nodes = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        children = []
        while nodes and nodes[-1][0] > depth:
            children.append(nodes.pop())
        nodes.append((depth, name.strip(), int(cum), children))

    def within(name, prefix):
        return name == prefix or name.startswith(prefix + ".")

    def first_hits(node, prefix, skip=None):
        depth, name, cum, children = node
        if skip and within(name, skip):
            return 0
        if within(name, prefix):
            return cum
        return sum(first_hits(c, prefix, skip) for c in children)

    return {"sparseland": sum(first_hits(n, "sparseland") for n in nodes) / 1e6,
            "numpy": sum(first_hits(n, "numpy", skip="scipy") for n in nodes) / 1e6,
            "scipy": sum(first_hits(n, "scipy") for n in nodes) / 1e6}


def measure_imports(workdir: Path) -> dict:
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sparseland.cli"],
                              cwd=workdir, env=child_env(), capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupError(f"`import sparseland.cli` failed: {proc.stderr.strip()[-200:]}")
        runs.append(parse_importtime(proc.stderr))
    return {
        "cli.import_s": statistics.median(r["sparseland"] for r in runs),
        "cli.import_numpy_s": statistics.median(r["numpy"] for r in runs),
        "cli.import_scipy_s": statistics.median(r["scipy"] for r in runs),
    }


def in_process_pass(cli, ops, workdir: Path, tracer=None):
    """One pass through `cli.main` in this process; returns (wall, failures,
    stdout of each invocation)."""
    failures, outs = [], []
    p0 = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(list(op.argv))
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 2
        outs.append(buf.getvalue())
        reason = verdict(op, code, outs[-1], workdir)
        if reason is not None:
            failures.append(f"{' '.join(op.argv)}: {reason}")
    return time.perf_counter() - p0, failures, outs


def run_traced(workload: str, make_ops, trace_check, seed: int, seconds: float) -> dict:
    from tracing import LAYERS, Tracer, layer_metrics

    require_sources()
    workdir = fresh_workdir(workload + "-trace")
    imports = measure_imports(workdir)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.pop("SEED", None)
    import sparseland.cli as cli

    ops = make_ops(workdir, seed)
    tracer = Tracer()
    spans_file = workdir / "spans.jsonl"
    per_pass, failures = [], []
    problems = set()  # failed trace checks; they make the result incorrect
    attempted = 0
    cwd = os.getcwd()
    os.chdir(workdir)  # the CLI writes its manifests to the working directory
    try:
        t_start = time.perf_counter()
        while not per_pass or not _would_overrun(t_start, plain_wall + traced_wall, seconds):
            plain_wall, plain_failures, _ = in_process_pass(cli, ops, workdir)
            tracer.install()
            try:
                traced_wall, traced_failures, outs = in_process_pass(cli, ops, workdir, tracer)
            finally:
                tracer.uninstall()
            attempted += 2 * len(ops)
            failures += plain_failures + traced_failures
            m = layer_metrics(tracer.spans, traced_wall)
            if not per_pass:  # only the first pass is kept: a cli-quick run has dozens
                tracer.write(spans_file)
            tracer.spans = []
            if not traced_failures:
                problems.update(trace_check(m, outs))
            # holds by construction for nested spans on one thread (see README);
            # it guards the span bookkeeping, not the coverage of the wrappers
            accounted = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["trace.unattributed_s"]
            if abs(accounted - traced_wall) > 1e-6 * max(1.0, traced_wall):
                problems.add("trace: layer self times plus unattributed time != traced wall")
            if any(m[f"{layer}.self_s"] < -1e-6 for layer in LAYERS):
                problems.add("trace: a negative layer self time")
            m["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
            per_pass.append(m)
    finally:
        os.chdir(cwd)
    metrics = {k: (statistics.median(p[k] for p in per_pass), len(per_pass)) for k in per_pass[0]}
    metrics.update({k: (v, IMPORTTIME_REPEATS) for k, v in imports.items()})
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures + sorted(problems),
        "correct": not problems,
        "metrics": metrics,
        "details": {"passes": per_pass, "spans_file": str(spans_file.relative_to(ROOT))},
    }


def layer_unit(name: str) -> str:
    for suffix, unit in (("gflop_per_s", "GFLOP/s"), ("_ms", "ms"), ("_us", "us"), ("_s", "s"),
                         ("_bytes", "bytes"), ("_frac", "ratio"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "platform": platform.platform(),
    }


def print_metrics(workload: str, result: dict, units) -> None:
    for name, (value, n) in result["metrics"].items():
        print(f"{workload:15s} {name:36s} {value:.6g} {units(name)} (n={n})")
    for name, value in result["details"].items():
        if isinstance(value, (int, float)) or value is None:
            print(f"{workload:15s} {name:36s} {value} (detail)")
    for failure in result["failures"]:
        print(f"{workload:15s} FAILED {failure}")


def is_correct(result: dict) -> bool:
    return result["failed"] == 0 and result.get("correct", True)


def result_line(result: dict, units) -> str:
    return json.dumps({
        "correct": is_correct(result),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units(k)} for k, (v, _) in result["metrics"].items()},
    })


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="with --workload all: write all results here")
    args = p.parse_args(argv)

    os.environ.update(THREAD_ENV)  # before numpy loads BLAS in this process
    from workloads import TRACE_CHECKS, WORKLOADS  # imports numpy

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        p.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    facts = machine_facts()
    print("machine " + json.dumps(facts))
    try:
        if args.workload != "all":
            make_ops = WORKLOADS[args.workload]
            if args.trace:
                result = run_traced(args.workload, make_ops, TRACE_CHECKS[args.workload],
                                    args.seed, args.seconds)
                units = layer_unit
            else:
                result = run_untraced(args.workload, make_ops, args.seed, args.seconds)
                units = E2E_UNITS.get
            print_metrics(args.workload, result, units)
            print(result_line(result, units))
            return 0
        results = {}
        for name in names:
            untraced = run_untraced(name, WORKLOADS[name], args.seed, args.seconds)
            traced = run_traced(name, WORKLOADS[name], TRACE_CHECKS[name], args.seed,
                                args.seconds)
            print_metrics(name, untraced, E2E_UNITS.get)
            print_metrics(name, traced, layer_unit)
            results[name] = {"end_to_end": untraced, "per_layer": traced}
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    summary = {"seed": args.seed, "seconds": args.seconds, "machine": facts, "workloads": results}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps({
        "correct": all(is_correct(r[k]) for r in results.values() for k in r),
        "attempted": sum(r[k]["attempted"] for r in results.values() for k in r),
        "failed": sum(r[k]["failed"] for r in results.values() for k in r),
        "metrics": {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
