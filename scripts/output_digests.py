#!/usr/bin/env python3
"""Print one sha256 per output file of a fixed matrix of CLI runs on the fixture.

Each train run trains a checkpoint on the bundled fixture and predicts with
it, so the digests cover ``config.json``, ``manifest.json``, ``params.bin``,
``loss_curve.json`` and the prediction file. Ensemble runs then combine
pipeline and joint prediction files, and ``evaluate --out`` writes a report
for every prediction file. Run it on two checkouts and diff the output:
equal lines mean byte-identical checkpoints, predictions and reports. The
package is imported from the ``src/`` next to this script, so each checkout
measures its own code; every path the CLI sees is relative to one scratch
directory, so the reports' path fields are the same in any checkout:

    python scripts/output_digests.py > digests.txt

With ``--against REV`` the script does that diff itself: it exports REV with
``git archive`` into a temporary directory, runs REV's own copy of this
script there while it runs the matrix on this tree, and prints only the
lines that differ (exit 2 if REV cannot be exported or its run fails):

    python scripts/output_digests.py --against HEAD

A change that alters outputs on purpose declares the paths it alters in
``expected_output_changes.txt`` next to this script: one glob per line, such
as ``*/predictions.json``, matched against the whole path of a digest line
(``*`` crosses ``/``); blank lines and ``#`` lines are ignored. The file
holds no glob unless a change declares one. The comparison exits 0 when
every differing line's path matches a glob and every glob matches at least
one differing line, and 1 otherwise; with no glob declared, that means 0
exactly when all lines are equal.

The train matrix, for both systems unless noted:

- ``a6``: the determinism acceptance commands (seed 7, 25 steps);
- ``readme-{mean,max,first}``: the README recipe (learning rate 0.2, no
  weight decay, batch 16, 300 pipeline / 400 joint steps) at each pooling;
- ``small-{mean,max,first}``: batch 3, weight decay 0.01, 120 steps;
- ``truncated``: the small setting (mean pooling) at a ``--max-len`` that
  cuts inputs: 16 for the pipeline, which cuts 26 of the fixture's 96
  evidence pairs, and 40 for the joint, which drops sentences from 7 of its
  20 premises and never all of one;
- ``predicted`` (pipeline only): the small setting with the entailment stage
  trained on predicted evidence.

The ensemble matrix combines the pipeline and joint predictions of each
setting both systems share at the default options, then the ``a6`` pair once
each with ``--max-evidence 1``, ``--tasks evidence``, ``--tasks entailment``
and ``--threshold 0.3``. The lines come in that order: train runs, ensemble
runs, reports.
"""

import argparse
import difflib
import fnmatch
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ctrnli.cli import main as cli  # noqa: E402

FIXTURE = ROOT / "data" / "fixture"
EXPECTED_CHANGES = Path(__file__).resolve().parent / "expected_output_changes.txt"
DATA = ["--corpus", "corpus.json", "--claims", "claims.json"]
README = ["--seed", "0", "--learning-rate", "0.2", "--weight-decay", "0", "--epochs", "999",
          "--batch-size", "16"]
SMALL = ["--seed", "0", "--learning-rate", "0.2", "--weight-decay", "0.01", "--epochs", "999",
         "--batch-size", "3", "--max-steps", "120"]
TRUNCATED_MAX_LEN = {"pipeline": "16", "joint": "40"}
ENSEMBLE_OPTIONS = {
    "max-evidence-1": ["--max-evidence", "1"],
    "tasks-evidence": ["--tasks", "evidence"],
    "tasks-entailment": ["--tasks", "entailment"],
    "threshold-0.3": ["--threshold", "0.3"],
}


def runs():
    """(name, system, train flags) for every run of the matrix."""
    for system in ("pipeline", "joint"):
        yield "a6", system, ["--seed", "7", "--max-steps", "25"]
        steps = "300" if system == "pipeline" else "400"
        for pooling in ("mean", "max", "first"):
            yield f"readme-{pooling}", system, [*README, "--max-steps", steps, "--pooling", pooling]
            yield f"small-{pooling}", system, [*SMALL, "--pooling", pooling]
        yield "truncated", system, [*SMALL, "--max-len", TRUNCATED_MAX_LEN[system]]
    yield "predicted", "pipeline", [*SMALL, "--evidence-source", "predicted"]


def ensembles():
    """(name, setting, ensemble flags) for every ensemble run of the matrix."""
    for name, system, _ in runs():
        if system == "joint":
            yield name, name, []
    for option, flags in ENSEMBLE_OPTIONS.items():
        yield f"a6-{option}", "a6", flags


def _cli(*args: str) -> None:
    with redirect_stdout(StringIO()):
        code = cli(list(args))
    if code != 0:
        raise SystemExit(f"{' '.join(args)}: the CLI exited {code}")


def _digests(run: Path) -> list[str]:
    paths = sorted(p for p in run.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path}" for path in paths]


def digest_lines() -> list[str]:
    """Run the matrix in the current directory and digest what it writes."""
    for name in ("corpus.json", "claims.json"):
        shutil.copyfile(FIXTURE / name, name)
    lines, predictions = [], []
    for name, system, flags in runs():
        run = Path(f"{system}-{name}")
        _cli("train", "--system", system, *DATA, "--out", str(run / "checkpoint"), *flags)
        _cli("predict", "--checkpoint", str(run / "checkpoint"), *DATA,
             "--out", str(run / "predictions.json"))
        lines += _digests(run)
        predictions.append(run / "predictions.json")
    for name, setting, flags in ensembles():
        run = Path(f"ensemble-{name}")
        run.mkdir()
        _cli("ensemble", f"pipeline-{setting}/predictions.json",
             f"joint-{setting}/predictions.json", "--out", str(run / "predictions.json"), *flags)
        lines += _digests(run)
        predictions.append(run / "predictions.json")
    reports = Path("reports")
    reports.mkdir()
    for path in predictions:
        _cli("evaluate", *DATA, "--predictions", str(path),
             "--out", str(reports / f"{path.parent}.json"))
    return lines + _digests(reports)


def run_matrix() -> list[str]:
    """The digest lines of the matrix, run in a temporary directory."""
    with tempfile.TemporaryDirectory(prefix="ctrnli-digests-") as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            return digest_lines()
        finally:
            os.chdir(cwd)


def _fail(message: str) -> None:
    """Exit 2, so that a failed run is never mistaken for a difference."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _git_archive(rev: str, dest: str) -> None:
    result = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True)
    if result.returncode != 0:
        _fail(f"git archive {rev}: {result.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(result.stdout)) as tar:
        tar.extractall(dest, filter="data")


def expected_changes() -> list[str]:
    """The path globs declared in ``expected_output_changes.txt``."""
    lines = [line.strip() for line in EXPECTED_CHANGES.read_text(encoding="utf-8").splitlines()]
    return [line for line in lines if line and not line.startswith("#")]


def judge(diff: list[str], globs: list[str]) -> int:
    """0 when the differing lines of ``diff`` (a unified diff of digest lines)
    are exactly the ones ``globs`` declare, 1 otherwise; says why on stdout."""
    changed = {line[1:].split("  ", 1)[1] for line in diff[2:] if line[:1] in "+-"}
    unexpected = sorted(p for p in changed if not any(fnmatch.fnmatchcase(p, g) for g in globs))
    unused = [g for g in globs if not any(fnmatch.fnmatchcase(p, g) for p in changed)]
    for path in unexpected:
        print(f"undeclared change: {path}")
    for glob in unused:
        print(f"declared change that did not happen: {glob}")
    if unexpected or unused:
        return 1
    if changed:
        print(f"{len(changed)} paths differ, each one declared in {EXPECTED_CHANGES.name}")
    return 0


def compare_against(rev: str) -> int:
    """Print the lines where REV's matrix and this tree's differ, and judge
    them against the declared changes."""
    with tempfile.TemporaryDirectory(prefix="ctrnli-against-") as tmp:
        _git_archive(rev, tmp)
        theirs = subprocess.Popen(
            [sys.executable, str(Path(tmp) / "scripts" / "output_digests.py")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            ours = run_matrix()
        except BaseException:
            theirs.kill()
            raise
        out, err = theirs.communicate()
    if theirs.returncode != 0:
        _fail(f"{rev}: output_digests.py exited {theirs.returncode}: {err.strip()}")
    theirs_lines = out.splitlines()
    diff = list(difflib.unified_diff(theirs_lines, ours, rev, "this tree", lineterm="", n=0))
    if diff:
        print("\n".join(diff))
    else:
        print(f"all {len(ours)} lines equal to {rev}")
    return judge(diff, expected_changes())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="run REV's copy of this script too and print only differing lines")
    args = parser.parse_args()
    if args.against:
        sys.exit(compare_against(args.against))
    print("\n".join(run_matrix()))


if __name__ == "__main__":
    main()
