#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for ctrnli.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the package in-process through its public API in the order the CLI
runs it: load -> train -> checkpoint save/load -> predict -> ensemble ->
evaluate. Everything runs in this one process with BLAS pinned to one
thread. Work files go to ``.bench_work/<workload>/`` under the repository
root, which is wiped at the start of each run.

With ``--trace 0`` the run sets up several times, then repeats rounds of the
timed phases for ``--seconds`` and prints the end-to-end metrics, timed in
reference seconds (see ``speed.py``). With ``--trace 1`` it sets up and
runs one round twice, untraced and then traced, and prints the per-layer
metrics of the traced pass; the difference between the two is reported as
the tracing overhead.

Every output is checked: dataset validation, fixture quality, checkpoint
round trips, and prediction digests that must not change between
repetitions. The last stdout line is one JSON object; the exit code is 0
only when every check and every operation passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
BLAS_THREADS = "1"
BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# The README's overfitting recipe for the toy encoder.
RECIPE = dict(learning_rate=0.2, weight_decay=0.0, epochs=999, batch_size=16, seed=0)
STEPS = {"evidence": 300, "entailment": 300, "joint": 400}
POOLING = "max"

# p98 leaves at least ten samples above it from 500 on; every round predicts
# at least this many claims per system.
MIN_LATENCY_SAMPLES = 500
RELOAD_CHECK_CLAIMS = 40

# set-ups per --trace 0 run of each workload; setup_s is their median
SETUP_REPEATS = {"fixture-train": 25, "scaled-predict": 3, "shared-trials-predict": 3}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_steps_per_s.pipeline": "1/s",
    "train_steps_per_s.joint": "1/s",
    "predict_claims_per_s.pipeline": "1/s",
    "predict_claims_per_s.joint": "1/s",
    "predict_claims_per_s.ensemble": "1/s",
    "claim_ms.p50.pipeline": "ms",
    "claim_ms.p50.joint": "ms",
    "claim_ms.p98.pipeline": "ms",
    "claim_ms.p98.joint": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "share",
    "evidence_f1": "share",
    "entailment_macro_f1": "share",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def git_sha() -> str:
    """HEAD of the enclosing git checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Bench:
    """State of one benchmark run: samples, digests, checks and failures."""

    def __init__(self, ctrnli, speed, workload: str, seed: int):
        # The package is reached through attribute lookups at call time, so
        # the tracer's wrappers apply while they are installed.
        self.C = ctrnli
        self.speed = speed
        self.workload = workload
        self.seed = seed
        self.dir = WORK / workload
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        # timings in reference seconds (see speed.py); raw_samples in wall seconds
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.raw_samples: dict[str, list[float]] = defaultdict(list)
        self.latency_ms: dict[str, list[float]] = {"pipeline": [], "joint": []}
        self.digests: dict[str, set[str]] = defaultdict(set)
        self.synthetic_f1: tuple[float, float] | None = None
        self.tracer = None
        self.models = None  # in-memory models of the latest training
        self.data_dir = self.fixture_dir = self.ckpt_dir = self.last_pass = None
        self.n_claims = self.rounds = 0

    # -- bookkeeping -------------------------------------------------------

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.set_phase(name)

    def attempt(self, phase: str, fn, *args):
        """Run one operation; an exception counts as a failure of ``phase``."""
        self.attempted[phase] += 1
        try:
            return fn(*args)
        except Exception:
            self.failed[phase] += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted["checks"] += 1
        if not ok:
            self.failed["checks"] += 1
            print(f"check failed: {name} {detail}", file=sys.stderr)

    def sample(self, name: str, value: float, raw: float) -> None:
        self.samples[name].append(value)
        self.raw_samples[name].append(raw)

    def digest(self, kind: str, path: Path) -> None:
        self.digests[kind].add(sha256(path))

    # -- set-up ------------------------------------------------------------

    def write_dataset(self, corpus, claims, directory: Path) -> None:
        from ctrnli.corpus import dump_claims, dump_corpus

        directory.mkdir(parents=True)
        dump_corpus(corpus, directory / "corpus.json")
        dump_claims(claims, directory / "claims.json")
        for name in ("corpus.json", "claims.json"):
            self.digest(f"inputs.{directory.name}.{name}", directory / name)
        report = self.C.validate_dataset(corpus, claims)
        self.attempted["setup"] += 1
        if not report.ok:
            self.failed["setup"] += 1
            print(report.render(), file=sys.stderr)

    def setup(self, k: int) -> None:
        """Generate and write the inputs; on predict workloads also train
        the models on the fixture and save their checkpoints."""
        from workloads import GENERATORS

        self.phase("setup")
        clock = self.speed.clock()
        base = self.dir / f"setup-{k}"
        self.fixture_dir = base / "fixture"
        self.write_dataset(*self.C.build_fixture(), self.fixture_dir)
        if self.workload == "fixture-train":
            self.data_dir = self.fixture_dir
        else:
            self.data_dir = base / "data"
            self.write_dataset(*GENERATORS[self.workload](self.seed), self.data_dir)
        clock.lap()
        total, raw = clock.s, clock.raw_s
        if self.workload != "fixture-train":
            self.ckpt_dir = base / "checkpoints"
            train_clock = self.train(self.fixture_dir, self.ckpt_dir)
            total, raw = total + train_clock.s, raw + train_clock.raw_s
        self.sample("setup_s", total, raw)

    def train(self, data_dir: Path, ckpt_dir: Path):
        """The fixture recipe for both systems, each saved as a checkpoint.

        Returns the clock that timed the whole of it."""
        C = self.C
        self.phase("train")
        clock = self.speed.clock()
        corpus = C.load_corpus(data_dir / "corpus.json")
        claims = C.load_claims(data_dir / "claims.json", corpus=corpus)

        def hp(steps):
            return C.Hyperparams(max_steps=steps, **RECIPE)

        clock.lap()
        evidence = C.train_evidence_model(claims, corpus, hp(STEPS["evidence"]), pooling=POOLING)
        evidence_s = clock.lap()
        entailment = C.train_entailment_model(
            claims, corpus, hp(STEPS["entailment"]), pooling=POOLING
        )
        entailment_s = clock.lap()
        pipeline = C.PipelineModel(
            evidence_encoder=evidence.encoder, evidence_head=evidence.head,
            entailment_encoder=entailment.encoder, entailment_head=entailment.head,
            pooling=POOLING,
        )
        C.save_pipeline_model(pipeline, ckpt_dir / "pipeline")
        clock.lap()
        joint = C.train_joint(claims, corpus, hp(STEPS["joint"]), pooling=POOLING)
        joint_s = clock.lap()
        C.save_joint_model(joint.model, ckpt_dir / "joint")
        clock.lap()

        pipeline_steps = len(evidence.loss_curve) + len(entailment.loss_curve)
        joint_steps = len(joint.loss_curve["total"])
        self.check("pipeline train steps", pipeline_steps == STEPS["evidence"] + STEPS["entailment"])
        self.check("joint train steps", joint_steps == STEPS["joint"])
        self.sample(
            "train_steps_per_s.pipeline",
            pipeline_steps / (evidence_s[0] + entailment_s[0]),
            pipeline_steps / (evidence_s[1] + entailment_s[1]),
        )
        self.sample("train_steps_per_s.joint", joint_steps / joint_s[0], joint_steps / joint_s[1])
        for system in ("pipeline", "joint"):
            self.digest(f"checkpoint.{system}", ckpt_dir / system / "params.bin")
        self.models = {"pipeline": pipeline, "joint": joint.model}
        return clock

    # -- timed phases --------------------------------------------------------

    def predict_pass(self, out_dir: Path) -> dict:
        """What a user of predict, ensemble and evaluate waits for, once.

        Returns the metrics report of each system (ensemble included)."""
        C = self.C
        out_dir.mkdir(parents=True)
        preds, waited = {}, {}
        for system, predict in (("pipeline", "predict_pipeline"), ("joint", "predict_joint")):
            phase = f"predict.{system}"
            self.phase(phase)
            path = out_dir / f"{system}.json"
            clock = self.speed.clock()
            corpus = C.load_corpus(self.data_dir / "corpus.json")
            claims = C.load_claims(self.data_dir / "claims.json", corpus=corpus)
            _, model = C.load_any_model(self.ckpt_dir / system)
            fn = getattr(C, predict)
            out = []
            for claim in claims:
                calibrated = self.speed.calibrating_s
                s = time.perf_counter()
                pred = self.attempt(phase, fn, claim, corpus, model)
                if pred is not None:
                    clock.note(time.perf_counter() - s - (self.speed.calibrating_s - calibrated))
                    out.append(pred)
            C.save_predictions(out, path)
            clock.lap()
            waited[system] = clock
            self.latency_ms[system].extend(t * 1e3 for t in clock.latencies_s)
            n = len(claims)
            self.sample(f"predict_claims_per_s.{system}", n / clock.s, n / clock.raw_s)
            self.digest(f"predictions.{system}", path)
            preds[system] = out

        self.phase("ensemble")
        clock = self.speed.clock()
        members = [C.load_predictions(out_dir / f"{s}.json") for s in ("pipeline", "joint")]
        combined = self.attempt("ensemble", C.ensemble_predictions, *members, C.EnsembleConfig())
        if combined is not None:
            C.save_predictions(combined, out_dir / "ensemble.json")
            clock.lap()
            clocks = (waited["pipeline"], waited["joint"], clock)
            self.sample(
                "predict_claims_per_s.ensemble",
                n / sum(c.s for c in clocks),
                n / sum(c.raw_s for c in clocks),
            )
            self.digest("predictions.ensemble", out_dir / "ensemble.json")
            preds["ensemble"] = combined

        self.phase("evaluate")
        golds = C.build_gold_view(claims, corpus)
        reports = {}
        for system, system_preds in preds.items():
            report = self.attempt("evaluate", C.build_report, system_preds, golds)
            if report is not None:
                C.write_report(report, out_dir / f"report.{system}.json")
                reports[system] = report
        self.check("every claim predicted", all(len(p) == len(claims) for p in preds.values()))
        return reports

    def round(self, r: int) -> None:
        """One repetition of the timed phases."""
        base = self.dir / f"round-{r}"
        if self.workload == "fixture-train":
            self.ckpt_dir = base / "checkpoints"
            self.train(self.data_dir, self.ckpt_dir)
        passes = -(-MIN_LATENCY_SAMPLES // self.n_claims)
        for p in range(passes):
            self.last_pass = base / f"pass-{p}"
            reports = self.predict_pass(self.last_pass)
            if self.workload == "fixture-train":
                self.record_quality(reports)
            elif "ensemble" in reports:
                ens = reports["ensemble"]
                self.synthetic_f1 = (ens.evidence_micro.f1, ens.entailment_macro_f1)

    def record_quality(self, reports: dict) -> None:
        """Every system must reproduce the fixture exactly."""
        for system in ("pipeline", "joint", "ensemble"):
            report = reports.get(system)
            ok = report is not None and (report.evidence_micro.f1, report.entailment_macro_f1) == (1.0, 1.0)
            self.check(f"fixture F1 of {system}", ok)
        if "ensemble" in reports:
            self.samples["evidence_f1"].append(reports["ensemble"].evidence_micro.f1)
            self.samples["entailment_macro_f1"].append(reports["ensemble"].entailment_macro_f1)

    def execute(self, setup_repeats: int, seconds: float | None) -> float:
        """Set up, then run rounds for ``seconds`` (one round when None).

        Returns the wall time of the whole execution."""
        shutil.rmtree(self.dir, ignore_errors=True)
        start = time.perf_counter()
        for k in range(setup_repeats):
            self.setup(k)
        self.n_claims = len(json.loads((self.data_dir / "claims.json").read_text()))
        t0 = time.perf_counter()
        r = 0
        while r == 0 or (seconds is not None and time.perf_counter() - t0 < seconds):
            self.round(r)
            r += 1
        self.rounds = r
        return time.perf_counter() - start

    # -- checks outside the timed work ------------------------------------------

    def post_checks(self) -> None:
        for kind, seen in sorted(self.digests.items()):
            self.check(f"{kind} identical across repetitions", len(seen) == 1, str(sorted(seen)))
        shipped = ROOT / "data" / "fixture"
        for name in ("corpus.json", "claims.json"):
            self.check(
                f"generated fixture {name} matches data/fixture",
                (shipped / name).is_file()
                and sha256(shipped / name) == sha256(self.fixture_dir / name),
            )
        # a raise inside either counts as one failed check
        self.attempt("checks", self.check_reload)
        if self.workload != "fixture-train":
            self.attempt("checks", self.check_fixture_quality)

    def check_fixture_quality(self) -> None:
        """The set-up's checkpoints must reproduce the fixture exactly."""
        C = self.C
        corpus = C.load_corpus(self.fixture_dir / "corpus.json")
        claims = C.load_claims(self.fixture_dir / "claims.json", corpus=corpus)
        preds = {}
        for system, fn in (("pipeline", C.predict_pipeline), ("joint", C.predict_joint)):
            _, model = C.load_any_model(self.ckpt_dir / system)
            preds[system] = [fn(c, corpus, model) for c in claims]
        preds["ensemble"] = C.ensemble_predictions(
            preds["pipeline"], preds["joint"], C.EnsembleConfig()
        )
        golds = C.build_gold_view(claims, corpus)
        self.record_quality({s: C.build_report(p, golds) for s, p in preds.items()})

    def check_reload(self) -> None:
        """Predictions of the in-memory models, with their parameters rounded
        to float32 as a checkpoint stores them, must be byte-identical to
        the predictions the reloaded checkpoints wrote."""
        C = self.C
        pipeline, joint = self.models["pipeline"], self.models["joint"]
        param_dicts = [
            pipeline.evidence_encoder.params, pipeline.evidence_head.params,
            pipeline.entailment_encoder.params, pipeline.entailment_head.params,
            joint.encoder.params, joint.evidence_head.params, joint.verdict_head.params,
        ]
        for params in param_dicts:
            for arr in params.values():
                arr[...] = arr.astype("<f4")
        corpus = C.load_corpus(self.data_dir / "corpus.json")
        claims = C.load_claims(self.data_dir / "claims.json", corpus=corpus)[:RELOAD_CHECK_CLAIMS]
        check_dir = self.dir / "reload-check"
        check_dir.mkdir()
        for system, model, fn in (
            ("pipeline", pipeline, C.predict_pipeline),
            ("joint", joint, C.predict_joint),
        ):
            C.save_predictions([fn(c, corpus, model) for c in claims], check_dir / "memory.json")
            reloaded = C.load_predictions(self.last_pass / f"{system}.json")[: len(claims)]
            C.save_predictions(reloaded, check_dir / "reloaded.json")
            self.check(
                f"{system} in-memory predictions match reloaded checkpoint",
                (check_dir / "memory.json").read_bytes() == (check_dir / "reloaded.json").read_bytes(),
            )
        shutil.rmtree(check_dir)

    # -- results ---------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        out = {name: statistics.median(values) for name, values in self.samples.items()}
        for system, latency in self.latency_ms.items():
            if len(latency) > 1:
                centiles = statistics.quantiles(latency, n=100, method="inclusive")
                out[f"claim_ms.p50.{system}"] = centiles[49]
                out[f"claim_ms.p98.{system}"] = centiles[97]
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted = sum(self.attempted.values())
        out["success_rate"] = 1.0 - sum(self.failed.values()) / max(attempted, 1)
        return {name: out[name] for name in END_TO_END_UNITS if name in out}

    def phase_errors(self) -> dict:
        return {
            phase: {
                "attempted": n,
                "failed": self.failed[phase],
                "error_rate": self.failed[phase] / n,
            }
            for phase, n in sorted(self.attempted.items())
        }


def metadata(np) -> dict:
    src = ROOT / "src" / "ctrnli"
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "src_ctrnli_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_REPEATS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ctrnli" / "__init__.py").is_file():
        print(f"no ctrnli sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import ctrnli
    import speed

    bench = Bench(ctrnli, speed.Speed(), args.workload, args.seed)
    info: dict = {"workload": args.workload, "seed": args.seed, "metadata": metadata(np)}
    if args.trace:
        import tracing

        def execute_once() -> tuple[float, float]:
            """Wall seconds of one execution, raw and in reference seconds
            (scaled by the mean slowdown of the calibrations it ran)."""
            first = len(bench.speed.calibrations)
            wall = bench.execute(1, None)
            slowdown = statistics.mean(bench.speed.calibrations[first:]) / speed.REFERENCE_S
            return wall, wall / slowdown

        untraced = execute_once()
        bench.post_checks()
        bench.tracer = tracing.Tracer()
        bench.tracer.install()
        try:
            traced = execute_once()
        finally:
            bench.tracer.uninstall()
        bench.post_checks()
        metrics = bench.tracer.layer_metrics()
        units = {name: tracing.unit_of(name) for name in metrics}
        info["properties"] = bench.tracer.properties()
        info["trace"] = {
            "untraced_wall_s": untraced[0],
            "traced_wall_s": traced[0],
            "untraced_reference_s": untraced[1],
            "traced_reference_s": traced[1],
            "overhead_reference_s": traced[1] - untraced[1],
            "spans": len(bench.tracer.start),
        }
        bench.tracer.write(bench.dir / "spans.json")
    else:
        info["timed_rounds_s"] = args.seconds
        with bench.speed.sampling():
            bench.execute(SETUP_REPEATS[args.workload], args.seconds)
        bench.post_checks()
        metrics = bench.end_to_end()
        units = END_TO_END_UNITS
        info["rounds"] = bench.rounds
        info["samples"] = {k: len(v) for k, v in sorted(bench.samples.items())}
        info["latency_samples"] = {k: len(v) for k, v in bench.latency_ms.items()}
        info["raw_medians"] = {
            k: statistics.median(v) for k, v in sorted(bench.raw_samples.items())
        }
        calibrations = bench.speed.calibrations
        info["calibration"] = {
            "reference_s": speed.REFERENCE_S,
            "runs": len(calibrations),
            "median_s": statistics.median(calibrations),
            "min_s": min(calibrations),
            "max_s": max(calibrations),
        }
        if bench.synthetic_f1:
            info["synthetic_ensemble_f1"] = {
                "evidence": bench.synthetic_f1[0],
                "entailment_macro": bench.synthetic_f1[1],
            }

    info["phases"] = bench.phase_errors()
    info["digests"] = {k: sorted(v) for k, v in sorted(bench.digests.items())}
    for name, value in metrics.items():
        print(f"{name:<36} {value:>16.6f} {units[name]}")
    print("info " + json.dumps(info, sort_keys=True))
    attempted = sum(bench.attempted.values())
    failed = sum(bench.failed.values())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
