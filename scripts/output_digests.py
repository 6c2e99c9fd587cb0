#!/usr/bin/env python3
"""Print one sha256 per output file of a fixed matrix of CLI train+predict runs.

Each run trains a checkpoint on the bundled fixture and predicts with it, so
the digests cover ``config.json``, ``manifest.json``, ``params.bin``,
``loss_curve.json`` and the prediction file. Run it on two checkouts and
diff the output: equal lines mean byte-identical checkpoints and
predictions. The package is imported from the ``src/`` next to this script,
so each checkout measures its own code:

    python scripts/output_digests.py > digests.txt

The matrix, for both systems unless noted:

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
"""

import argparse
import hashlib
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ctrnli.cli import main as cli  # noqa: E402

FIXTURE = ROOT / "data" / "fixture"
README = ["--seed", "0", "--learning-rate", "0.2", "--weight-decay", "0", "--epochs", "999",
          "--batch-size", "16"]
SMALL = ["--seed", "0", "--learning-rate", "0.2", "--weight-decay", "0.01", "--epochs", "999",
         "--batch-size", "3", "--max-steps", "120"]
TRUNCATED_MAX_LEN = {"pipeline": "16", "joint": "40"}


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


def digest_lines(work: Path) -> list[str]:
    data = ["--corpus", str(FIXTURE / "corpus.json"), "--claims", str(FIXTURE / "claims.json")]
    lines = []
    for name, system, flags in runs():
        run = work / f"{system}-{name}"
        ckpt, preds = run / "checkpoint", run / "predictions.json"
        with redirect_stdout(StringIO()):
            code = cli(["train", "--system", system, *data, "--out", str(ckpt), *flags])
            if code == 0:
                code = cli(["predict", "--checkpoint", str(ckpt), *data, "--out", str(preds)])
        if code != 0:
            raise SystemExit(f"{run.name}: the CLI exited {code}")
        for path in sorted(p for p in run.rglob("*") if p.is_file()):
            sha = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{sha}  {path.relative_to(work)}")
    return lines


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    with tempfile.TemporaryDirectory(prefix="ctrnli-digests-") as tmp:
        print("\n".join(digest_lines(Path(tmp))))


if __name__ == "__main__":
    main()
