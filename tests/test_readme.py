"""The README's examples, run as written.

Every `sparseland ...` line of the README's `sh` blocks runs in order, in
process through `main`, in one temporary directory, so `replay` reads the
manifest that the `train` example wrote.  `prune --spec net.json` reads the
README's own spec JSON block.  The README says that every example exits 0;
a line that starts with `$ ` is followed by its printed output.
"""

import contextlib
import csv
import io
import math
import re
import shlex
import warnings
from pathlib import Path

import pytest

from sparseland.cli import HANDLERS, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _examples(text: str) -> list:
    """[argv, shown stdout or None] of each sparseland line in the sh blocks,
    in order: `\\` continues a line, and a trailing `# ...` is a comment."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            shown = line.startswith("$ ")
            command = line[2:] if shown else line
            if command.startswith("sparseland "):
                examples.append([shlex.split(command, comments=True)[1:], "" if shown else None])
            elif examples and examples[-1][1] is not None:
                examples[-1][1] += line + "\n"
    return examples


EXAMPLES = _examples(README)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(exit code, stdout, stderr, warnings) of each example, run in order in
    one directory, and that directory."""
    work = tmp_path_factory.mktemp("readme")
    (work / "net.json").write_text(re.search(r"^```json\n(.*?)^```", README, re.M | re.S)[1])
    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        mp.delenv("SEED", raising=False)
        for argv, _ in EXAMPLES:
            stdout, stderr = io.StringIO(), io.StringIO()
            with (warnings.catch_warnings(record=True) as caught,
                  contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr)):
                warnings.simplefilter("always")
                code = main(argv)
            out.append((code, stdout.getvalue(), stderr.getvalue(), [str(w.message) for w in caught]))
    return out, work


def test_readme_runs_every_command():
    assert {argv[0] for argv, _ in EXAMPLES} == set(HANDLERS) | {"replay"}


@pytest.mark.parametrize("k", range(len(EXAMPLES)), ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example(runs, k):
    code, out, err, caught = runs[0][k]
    assert (code, err, caught) == (0, "", [])
    shown = EXAMPLES[k][1]
    if shown is not None:
        assert out == shown


def test_readme_train_example_converges_as_stated(runs):
    """The README's train example stops as the README says, near the stated
    epoch and gap.  Its loss falls at every one of its first 30 epochs, and
    later rises by at most a few ulps, at the rounding floor of the optimum."""
    epochs, gap = re.search(r"after about (\d+) epochs at `L - L\*` near (\S+?):", README).groups()
    k = next(k for k, (argv, _) in enumerate(EXAMPLES) if argv[0] == "train")
    out = runs[0][k][1]
    got_epochs, stop = re.search(r"after (\d+) epochs \((\w+)\)", out).groups()
    assert stop == "converged_grad"
    assert abs(int(got_epochs) - int(epochs)) <= int(epochs) // 10
    assert abs(float(re.search(r"L - L\* = (\S+)", out)[1])) <= 10 * float(gap)
    with open(runs[1] / "trace.csv", newline="") as f:
        losses = [float(row["loss"]) for row in csv.DictReader(f)]
    assert len(losses) == int(got_epochs) + 1
    rises = [b - a for a, b in zip(losses, losses[1:])]
    assert max(rises[:30]) < 0
    assert max(rises) <= 4 * math.ulp(losses[-1])
