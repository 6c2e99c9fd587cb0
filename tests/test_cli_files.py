"""Every file a command reads, damaged on purpose: each run ends in an exit
code of 0-3 with at most one stderr line and never a traceback.

The table ``TARGETS`` names each file and a command that reads it. A
workspace holds one copy of every file; a test damages one of them, runs the
command through ``main()`` and puts the file back. Log records at WARNING
and above count as stderr lines, since the command-line entry point sends
them there. A ``train`` config file is also filled, one field at a time,
with a value of each JSON type, and a small report, prediction file, claim
file and corpus are damaged node by node.
"""

import contextlib
import copy
import dataclasses
import io
import json
import logging
import reprlib
import shutil
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import time_limit

from ctrnli.checkpoint import save_joint_model
from ctrnli.cli import main
from ctrnli.config import SECTIONS, RunConfig
from ctrnli.corpus import check_unique_claim_ids, read_json
from ctrnli.ensemble import load_predictions, save_predictions
from ctrnli.errors import CtrnliError, MalformedJson
from ctrnli.joint import predict_joint
from ctrnli.metrics import GoldClaim, build_gold_view, build_report, write_report
from ctrnli.pipeline import SystemPrediction

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "fixture"


def _predict(ws, *extra):
    return [
        "predict", "--corpus", ws / "corpus.json", "--claims", ws / "claims", "--split", "dev",
        "--checkpoint", ws / "ckpt", "--out", ws / "out.json", *extra,
    ]


def _evaluate(ws):
    return [
        "evaluate", "--corpus", ws / "corpus.json", "--claims", ws / "claims", "--split", "dev",
        "--predictions", ws / "joint.json",
    ]


# file in the workspace -> command that reads it. The claims are given as a
# directory and a split, so a directory in place of the claim file is read as
# a file; a directory in place of the corpus file is scanned as an empty
# corpus.
TARGETS = {
    "corpus": ("corpus.json", _predict),
    "claims": ("claims/dev.json", _predict),
    "config": ("run.json", lambda ws: _predict(ws, "--config", ws / "run.json")),
    "predictions-ensemble": (
        "joint.json",
        lambda ws: ["ensemble", ws / "pipeline.json", ws / "joint.json", "--out", ws / "e.json"],
    ),
    "predictions-evaluate": ("joint.json", _evaluate),
    "report": ("report.json", lambda ws: ["report", "--report", ws / "report.json"]),
    "checkpoint-manifest": ("ckpt/manifest.json", _predict),
    "checkpoint-config": ("ckpt/config.json", _predict),
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, corpus, claims, joint_model):
    """One copy of every file in ``TARGETS``, all valid."""
    ws = tmp_path_factory.mktemp("files")
    shutil.copy(FIXTURE / "corpus.json", ws / "corpus.json")
    (ws / "claims").mkdir()
    shutil.copy(FIXTURE / "claims.json", ws / "claims" / "dev.json")
    (ws / "run.json").write_text(json.dumps({
        "threshold": 0.4,
        "encoder": {"pooling": "max", "dim": 32},
        "hyperparams": {"batch_size": 4, "seed": 1},
        "ensemble": {"w_pipeline": 0.5, "w_joint": 0.5},
    }))
    save_joint_model(joint_model, ws / "ckpt")
    preds = [predict_joint(claim, corpus, joint_model) for claim in claims]
    save_predictions(preds, ws / "joint.json")
    save_predictions(preds, ws / "pipeline.json")
    write_report(build_report(preds, build_gold_view(claims, corpus)), ws / "report.json")
    return ws


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def _run(argv):
    """(exit code, stderr lines) of one command; a warning fails the run."""
    err = io.StringIO()
    records = _Records()
    log = logging.getLogger("ctrnli")
    log.addHandler(records)
    try:
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([str(a) for a in argv])
    finally:
        log.removeHandler(records)
    return code, err.getvalue().splitlines() + records.lines


@contextlib.contextmanager
def _damaged(ws, rel, damage):
    """Apply ``damage`` to the file, then put the original back."""
    path = ws / rel
    original = path.read_bytes()
    try:
        damage(path, original)
        yield
    finally:
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()
        path.write_bytes(original)


def _as_directory(path, original):
    path.unlink()
    path.mkdir()


def _not_utf8(path, original):
    path.write_bytes(b'{"x": "\xff\xfe"}')


def _missing(path, original):
    path.unlink()


def _check(code, lines, expected=None):
    assert code in (0, 1, 2, 3), (code, lines)
    assert len(lines) <= 1, lines
    assert not any("Traceback" in line for line in lines), lines
    if expected is not None:
        assert code == expected, (code, lines)
        assert len(lines) == 1, lines


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize(
    "damage, expected",
    [(_not_utf8, 1), (_as_directory, 1), (_missing, 2)],
    ids=["not-utf8", "directory", "missing"],
)
def test_damaged_file_ends_in_its_exit_code(workspace, target, damage, expected):
    """Bytes that are not UTF-8 JSON and a directory in place of the file are
    data errors (1); a missing file is a usage error (2). Inside a checkpoint
    a missing file is a bad checkpoint (1); only a missing checkpoint
    directory is a usage error."""
    rel, command = TARGETS[target]
    if damage is _missing and rel.startswith("ckpt/"):
        expected = 1
    with _damaged(workspace, rel, damage):
        code, lines = _run(command(workspace))
    _check(code, lines, expected)


def _empty_list(path, original):
    path.write_text("[]")


def _train(ws):
    return [
        "train", "--corpus", ws / "corpus.json", "--claims", ws / "claims", "--split", "dev",
        "--seed", "0", "--max-steps", "1", "--out", ws / "trained",
    ]


def _validate(ws):
    return ["validate", "--corpus", ws / "corpus.json", "--claims", ws / "claims", "--split", "dev"]


# every command that reads a data file, with the file it reads, when that
# file holds an empty JSON list: (file, command, exit code, stderr lines)
_EMPTY_LIST_RUNS = {
    **{target: (rel, command, None, None) for target, (rel, command) in TARGETS.items()},
    "claims-validate": ("claims/dev.json", _validate, 0, 0),
    "claims-train": ("claims/dev.json", _train, 2, 1),
    "claims-predict": ("claims/dev.json", _predict, 0, 0),
    "claims-evaluate": ("claims/dev.json", _evaluate, 1, 1),
    "predictions-evaluate": ("joint.json", _evaluate, 1, 1),
}


@pytest.mark.parametrize("target", _EMPTY_LIST_RUNS)
def test_empty_list_ends_in_at_most_one_line(workspace, target):
    """A file holding ``[]`` is reported by the command that acted on it
    (``0 predictions written``, ``no labeled claims to train on``, ``no
    predictions to score``...), in at most one line."""
    rel, command, code_expected, n_lines = _EMPTY_LIST_RUNS[target]
    with _damaged(workspace, rel, _empty_list):
        code, lines = _run(command(workspace))
    shutil.rmtree(workspace / "trained", ignore_errors=True)
    _check(code, lines)
    if code_expected is not None:
        assert (code, len(lines)) == (code_expected, n_lines), (code, lines)


def test_missing_checkpoint_directory_is_a_usage_error(workspace, tmp_path):
    argv = _predict(workspace)
    argv[argv.index("--checkpoint") + 1] = tmp_path / "nope"
    code, lines = _run(argv)
    _check(code, lines, 2)


@pytest.mark.parametrize("target", TARGETS)
def test_empty_path_argument_is_a_usage_error(workspace, target):
    """Each path argument of a command that reads a file, given as "", is a
    usage error with one line, not the working directory; so is an empty
    ``--out``."""
    command = TARGETS[target][1](workspace)
    for i, arg in enumerate(command):
        if isinstance(arg, Path):
            code, lines = _run([*command[:i], "", *command[i + 1 :]])
            _check(code, lines, 2)
            assert "empty" in lines[0], lines


def test_train_out_under_a_regular_file_is_a_data_error(workspace, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, lines = _run([
        "train", "--corpus", workspace / "corpus.json", "--claims", workspace / "claims",
        "--split", "dev", "--max-steps", "1", "--seed", "0", "--out", blocker / "ckpt",
    ])
    _check(code, lines, 1)


def test_corpus_directory_holding_a_json_directory_is_a_data_error(workspace, tmp_path):
    shutil.copy(workspace / "corpus.json", tmp_path / "a.json")
    (tmp_path / "b.json").mkdir()
    code, lines = _run(["validate", "--corpus", tmp_path,
                        "--claims", workspace / "claims", "--split", "dev"])
    _check(code, lines, 1)


def _mutation():
    """A truncation, a one-byte overwrite, or a directory in place of the file."""
    return st.one_of(
        st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True), st.just(0)),
        st.tuples(st.just("overwrite"), st.floats(0, 1, exclude_max=True),
                  st.integers(0, 255)),
        st.tuples(st.just("directory"), st.just(0.0), st.just(0)),
    )


def _apply(mutation):
    kind, where, value = mutation

    def damage(path, original):
        at = int(where * len(original))
        if kind == "truncate":
            path.write_bytes(original[:at])
        elif kind == "overwrite":
            path.write_bytes(original[:at] + bytes([value]) + original[at + 1 :])
        else:
            _as_directory(path, original)

    return damage


@pytest.mark.parametrize("target", TARGETS)
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(mutation=_mutation())
def test_fuzzed_file_ends_in_one_line(workspace, target, mutation):
    rel, command = TARGETS[target]
    with _damaged(workspace, rel, _apply(mutation)):
        code, lines = _run(command(workspace))
    _check(code, lines)


# --- config values of every JSON type -------------------------------------------

_CONFIG_VALUES = [
    None, True, 0, -1, 1.5, float("nan"), 10**30, 10**400, "", "x", "x" * 100_000,
    [], [1], {}, {"a": 1},
]
# values that ask for a huge allocation or run rather than being of a wrong type
_HUGE = {("encoder", "vocab_size"), ("encoder", "dim"), ("encoder", "n_layers"),
         ("hyperparams", "max_steps")}
_PATH_FIELDS = {("corpus",), ("claims",)}
_CONFIG_FIELDS = [
    (f.name,) for f in dataclasses.fields(RunConfig)
] + [
    (section, f.name) for section, cls in SECTIONS.items() for f in dataclasses.fields(cls)
]


@pytest.mark.parametrize("path", _CONFIG_FIELDS, ids=[".".join(p) for p in _CONFIG_FIELDS])
def test_any_config_value_ends_in_one_line(tmp_path, monkeypatch, path):
    """Every run-config and section field of a ``train --config`` file, set to
    each JSON type, trains or is refused with an exit code of 0-3 and at most
    one stderr line of under 200 characters. Paths are relative, so a path of
    "" would read the workspace itself: it is a usage error (2)."""
    shutil.copy(FIXTURE / "corpus.json", tmp_path / "corpus.json")
    (tmp_path / "claims").mkdir()
    shutil.copy(FIXTURE / "claims.json", tmp_path / "claims" / "dev.json")
    monkeypatch.chdir(tmp_path)
    stray = []
    for value in _CONFIG_VALUES:
        if value in (10**30, 10**400) and path in _HUGE:
            continue
        config = {
            "corpus": "corpus.json", "claims": "claims", "split": "dev",
            "hyperparams": {"seed": 0, "max_steps": 1},
        }
        parent = config
        for key in path[:-1]:
            parent = parent.setdefault(key, {})
        parent[path[-1]] = value
        (tmp_path / "run.json").write_text(json.dumps(config))
        expected = 2 if value == "" and path in _PATH_FIELDS else None
        try:
            code, lines = _run(["train", "--config", "run.json", "--out", "ckpt"])
            _check(code, lines, expected)
            assert all(len(line) < 200 for line in lines), lines
        except Exception as exc:  # noqa: BLE001 - any escape is the finding
            stray.append((reprlib.repr(value), str(exc)[:300]))
        shutil.rmtree(tmp_path / "ckpt", ignore_errors=True)
    assert stray == []


# --- a report, damaged node by node ------------------------------------------------


def _small_report() -> dict:
    """A valid metrics/1 report of two claims, one tagged with a challenge,
    one decided by the fallback."""
    preds = [
        SystemPrediction("c0", (0.9, 0.2), (0,), (0.8, 0.2), "Entailment"),
        SystemPrediction("c1", (0.4, 0.3), (0,), (0.3, 0.7), "Contradiction", fallback_used=True),
    ]
    golds = {
        "c0": GoldClaim("c0", 2, frozenset({0}), "Entailment", challenge="numerical"),
        "c1": GoldClaim("c1", 2, frozenset({1}), "Entailment"),
    }
    return build_report(preds, golds, {"split": "dev"}).to_json_obj()


def _nodes(value, path=()):
    """The path of every node of a JSON value, the root first."""
    yield path
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _nodes(child, (*path, key))


_REPORT = _small_report()
# each node's replacements: ROADMAP item 14's values, plus -Infinity
_NODE_VALUES = [
    None, True, False, 0, -1, 2**63, 10**400, -0.0, 1e308, 0.5,
    float("nan"), float("inf"), float("-inf"),
    "", " ", "\ud800", "x", "Entailment", "x" * 100_000,
    [], [0], [[]], {}, {"a": 1},
]
_DELETED = object()


def _with_node(tree, path, value):
    """A copy of the JSON value ``tree`` whose node at ``path`` is ``value``,
    or is gone when ``value`` is ``_DELETED``."""
    if not path:
        return value
    tree = copy.deepcopy(tree)
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETED:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return tree


@pytest.mark.parametrize(
    "path", list(_nodes(_REPORT)), ids=lambda path: ".".join(map(str, path)) or "root"
)
def test_report_damaged_node_by_node_ends_in_one_line(tmp_path, path):
    """Every node of a valid report, replaced by each value of
    ``_NODE_VALUES``, and every key, deleted: ``report`` prints its table
    (exit 0, nothing on stderr) or refuses the file in one line of under 200
    characters (exit 1), never with a traceback."""
    deletion = [_DELETED] if path and isinstance(path[-1], str) else []
    report = tmp_path / "report.json"
    for value in _NODE_VALUES + deletion:
        report.write_text(json.dumps(_with_node(_REPORT, path, value)))
        with time_limit(20):
            code, lines = _run(["report", "--report", report])
        shown = "deleted" if value is _DELETED else reprlib.repr(value)
        assert code in (0, 1) and len(lines) == code, (shown, code, lines)
        assert all(len(line) < 200 and "Traceback" not in line for line in lines), (shown, lines)


# --- a prediction file, damaged node by node -----------------------------------------


@pytest.fixture(scope="module")
def two_predictions(tmp_path_factory, corpus, claims, joint_model):
    """A workspace of the fixture corpus, its first two claims as the dev
    split, and their predictions by the overfit joint model, written twice:
    ``pipeline.json`` stays intact, ``joint.json`` is the one damaged."""
    ws = tmp_path_factory.mktemp("predictions")
    shutil.copy(FIXTURE / "corpus.json", ws / "corpus.json")
    (ws / "claims").mkdir()
    dev = json.loads((FIXTURE / "claims.json").read_text())[:2]
    (ws / "claims" / "dev.json").write_text(json.dumps(dev))
    by_id = {claim.claim_id: claim for claim in claims}
    preds = [predict_joint(by_id[obj["claim_id"]], corpus, joint_model) for obj in dev]
    save_predictions(preds, ws / "pipeline.json")
    return ws, json.loads((ws / "pipeline.json").read_text())


@pytest.mark.parametrize(
    "value", _NODE_VALUES + [_DELETED],
    ids=lambda value: "deleted" if value is _DELETED else reprlib.repr(value),
)
def test_predictions_damaged_node_by_node_end_in_one_line(two_predictions, value):
    """Every node of a valid two-record prediction file replaced by ``value``
    (or every key deleted, for ``_DELETED``): ``ensemble`` (against the intact
    file) and ``evaluate`` each succeed (exit 0) or refuse the file (exit 1),
    with at most one stderr line of under 200 characters and never a
    traceback."""
    ws, records = two_predictions
    commands = {
        "ensemble": ["ensemble", ws / "pipeline.json", ws / "joint.json", "--out", ws / "e.json"],
        "evaluate": _evaluate(ws),
    }
    stray = []
    for path in _nodes(records):
        if value is _DELETED and not (path and isinstance(path[-1], str)):
            continue
        (ws / "joint.json").write_text(json.dumps(_with_node(records, path, value)))
        for name, argv in commands.items():
            with time_limit(20):
                code, lines = _run(argv)
            ok = code in (0, 1) and len(lines) <= 1
            if not ok or any(len(line) >= 200 or "Traceback" in line for line in lines):
                stray.append((name, path, code, [line[:200] for line in lines]))
    assert stray == []


def _outcome(load, path):
    """What loading a prediction file gives: each record's fields exactly
    (type and repr, so the sign of a zero counts), or the refusal."""
    try:
        preds = load(path)
    except CtrnliError as exc:
        return type(exc).__name__, str(exc)
    return [[(type(v), repr(v)) for v in dataclasses.astuple(p)] for p in preds]


def _load_each_alone(path):
    """``load_predictions`` as it was before records were shared: every
    record parsed on its own."""
    payload = read_json(path)
    if not isinstance(payload, list):
        raise MalformedJson(f"{path}: expected a JSON list of predictions")
    preds = [SystemPrediction.from_json_obj(obj) for obj in payload]
    check_unique_claim_ids((p.claim_id for p in preds), str(path))
    return preds


@pytest.mark.parametrize(
    "value", _NODE_VALUES + [_DELETED],
    ids=lambda value: "deleted" if value is _DELETED else reprlib.repr(value),
)
def test_damaged_repeated_records_load_as_each_record_alone(two_predictions, value):
    """The prediction file of the node-by-node test, with a third record
    that repeats the first apart from ``claim_id``, damaged the same way:
    ``load_predictions``, which shares a repeated record, loads the same
    fields or refuses the file with the same exception and message as
    parsing every record on its own."""
    ws, records = two_predictions
    records = [*records, {**records[0], "claim_id": "again"}]
    path = ws / "repeated.json"
    differ = []
    for node in _nodes(records):
        if value is _DELETED and not (node and isinstance(node[-1], str)):
            continue
        path.write_text(json.dumps(_with_node(records, node, value)))
        expected = _outcome(_load_each_alone, path)
        if _outcome(load_predictions, path) != expected:
            differ.append((node, expected))
    assert differ == []


# --- a claim file, damaged node by node ------------------------------------------------


@pytest.fixture(scope="module")
def two_claims(workspace, tmp_path_factory):
    """A workspace of the fixture corpus and, as the dev split, the fixture's
    first comparison claim and a renamed copy of it: the copy's text and
    premise equal the original's, so a loaded model answers it from its memo."""
    ws = tmp_path_factory.mktemp("claims")
    shutil.copy(FIXTURE / "corpus.json", ws / "corpus.json")
    (ws / "claims").mkdir()
    claim = next(c for c in json.loads((FIXTURE / "claims.json").read_text()) if "secondary_ctr" in c)
    records = [claim, {**claim, "claim_id": f"{claim['claim_id']}-again"}]
    shutil.copytree(workspace / "ckpt", ws / "ckpt")
    return ws, records


@pytest.mark.parametrize(
    "value", _NODE_VALUES + [_DELETED],
    ids=lambda value: "deleted" if value is _DELETED else reprlib.repr(value),
)
def test_claims_damaged_node_by_node_end_in_one_line(two_claims, value):
    """Every node of a valid two-claim file replaced by ``value`` (or every
    key deleted, for ``_DELETED``): ``predict`` on a joint checkpoint succeeds
    (exit 0) or refuses the file (exit 1), with at most one stderr line of
    under 200 characters and never a traceback."""
    ws, records = two_claims
    stray = []
    for path in _nodes(records):
        if value is _DELETED and not (path and isinstance(path[-1], str)):
            continue
        (ws / "claims" / "dev.json").write_text(json.dumps(_with_node(records, path, value)))
        with time_limit(20):
            code, lines = _run(_predict(ws))
        ok = code in (0, 1) and len(lines) <= 1
        if not ok or any(len(line) >= 200 or "Traceback" in line for line in lines):
            stray.append((path, code, [line[:200] for line in lines]))
    assert stray == []


# --- a corpus, damaged node by node ------------------------------------------------------


@pytest.fixture(scope="module")
def two_trials(workspace, tmp_path_factory):
    """A workspace of the fixture trials ``trial-01`` and ``trial-02`` as the
    corpus, the fixture's first two claims, one on each, as the dev split, and
    the joint checkpoint."""
    ws = tmp_path_factory.mktemp("trials")
    trials = json.loads((FIXTURE / "corpus.json").read_text())[:2]
    claims = json.loads((FIXTURE / "claims.json").read_text())[:2]
    assert [c["primary_ctr"] for c in claims] == [r["ctr_id"] for r in trials]
    (ws / "claims").mkdir()
    (ws / "claims" / "dev.json").write_text(json.dumps(claims))
    shutil.copytree(workspace / "ckpt", ws / "ckpt")
    return ws, trials


@pytest.mark.parametrize(
    "value", _NODE_VALUES + [_DELETED],
    ids=lambda value: "deleted" if value is _DELETED else reprlib.repr(value),
)
def test_corpus_damaged_node_by_node_ends_in_one_line(two_trials, value):
    """Every node of a valid two-trial corpus replaced by ``value`` (or every
    key deleted, for ``_DELETED``): ``validate`` and ``predict`` on a joint
    checkpoint each succeed (exit 0) or refuse the data (exit 1), with at
    most one stderr line of under 200 characters and never a traceback."""
    ws, trials = two_trials
    commands = {"validate": _validate(ws), "predict": _predict(ws)}
    stray = []
    for path in _nodes(trials):
        if value is _DELETED and not (path and isinstance(path[-1], str)):
            continue
        (ws / "corpus.json").write_text(json.dumps(_with_node(trials, path, value)))
        for name, argv in commands.items():
            with time_limit(20):
                code, lines = _run(argv)
            ok = code in (0, 1) and len(lines) <= 1
            if not ok or any(len(line) >= 200 or "Traceback" in line for line in lines):
                stray.append((name, path, code, [line[:200] for line in lines]))
    assert stray == []


# --- a checkpoint, damaged node by node ---------------------------------------------------

_CHECKPOINT_FILES = ("config.json", "manifest.json")


@pytest.fixture(scope="module")
def two_claims_checkpoint(workspace, tmp_path_factory):
    """A workspace of the fixture corpus, its first two claims as the dev
    split, the joint checkpoint, and the checkpoint's two JSON files as
    loaded: its config and its manifest."""
    ws = tmp_path_factory.mktemp("checkpoint")
    shutil.copy(FIXTURE / "corpus.json", ws / "corpus.json")
    (ws / "claims").mkdir()
    dev = json.loads((FIXTURE / "claims.json").read_text())[:2]
    (ws / "claims" / "dev.json").write_text(json.dumps(dev))
    shutil.copytree(workspace / "ckpt", ws / "ckpt")
    files = {name: json.loads((ws / "ckpt" / name).read_text()) for name in _CHECKPOINT_FILES}
    return ws, files


def _checkpoint_nodes(name, tree):
    """Every node of the config; the manifest's ``system`` and its first two
    tensor entries with every node below them."""
    if name == "config.json":
        return list(_nodes(tree))
    tensors = [path for path in _nodes(tree) if path[:2] in (("tensors", 0), ("tensors", 1))]
    return [("system",), *tensors]


@pytest.mark.parametrize("name", _CHECKPOINT_FILES)
def test_checkpoint_damaged_node_by_node_ends_in_one_line(two_claims_checkpoint, name):
    """Every node of a joint checkpoint's config, and of its manifest's
    ``system`` and first two tensor entries, replaced by each value of
    ``_NODE_VALUES`` and, under a key, deleted: ``predict`` on two claims
    succeeds (exit 0) or refuses the checkpoint (exit 1), with at most one
    stderr line of at most 200 characters and never a traceback."""
    ws, files = two_claims_checkpoint
    tree = files[name]
    path = ws / "ckpt" / name
    stray = []
    try:
        for node in _checkpoint_nodes(name, tree):
            deletion = [_DELETED] if node and isinstance(node[-1], str) else []
            for value in _NODE_VALUES + deletion:
                path.write_text(json.dumps(_with_node(tree, node, value)))
                with time_limit(20):
                    code, lines = _run(_predict(ws))
                if code not in (0, 1) or len(lines) > 1 or any(
                    len(line) > 200 or "Traceback" in line for line in lines
                ):
                    shown = "deleted" if value is _DELETED else reprlib.repr(value)
                    stray.append((node, shown, code, [line[:200] for line in lines]))
    finally:
        path.write_text(json.dumps(tree))
    assert stray == []


# --- a long claim id paired with a second fault ------------------------------------------

_LONG = "x" * 100_000
_FIRST = json.loads((FIXTURE / "claims.json").read_text())[0]

# a second fault of the first fixture claim once its id holds 100,000
# characters: the keys it replaces (``_DELETED`` deletes one)
_SECOND_FAULTS = {
    "no text": {"text": _DELETED},
    "text not a string": {"text": 1},
    "empty text": {"text": " "},
    "lone surrogate in text": {"text": "a \ud800"},
    "section_id not a string": {"section_id": 1},
    "unknown section_id": {"section_id": _LONG},
    "primary_ctr not a string": {"primary_ctr": None},
    "lone surrogate in primary_ctr": {"primary_ctr": "\ud800"},
    "secondary_ctr not a string": {"secondary_ctr": 1},
    "secondary_ctr equals primary_ctr": {"secondary_ctr": _FIRST["primary_ctr"]},
    "unknown label": {"label": "bad"},
    "long unknown label": {"label": _LONG},
    "evidence not an object": {"evidence": []},
    "evidence on another trial": {"evidence": {_LONG: [0]}},
    "negative evidence index": {"evidence": {_FIRST["primary_ctr"]: [-1]}},
    "challenge not a string": {"challenge": 1},
}


@pytest.mark.parametrize("fault", _SECOND_FAULTS)
def test_long_claim_id_with_a_second_fault_ends_in_one_short_line(tmp_path, fault):
    """``validate`` refuses a claim whose id holds 100,000 characters and
    that has one more fault with exit 1 and one stderr line of at most 200
    characters: the refusal names the id by its ends."""
    claim = {**_FIRST, "claim_id": _LONG, **_SECOND_FAULTS[fault]}
    claim = {key: value for key, value in claim.items() if value is not _DELETED}
    shutil.copy(FIXTURE / "corpus.json", tmp_path / "corpus.json")
    (tmp_path / "claims").mkdir()
    (tmp_path / "claims" / "dev.json").write_text(json.dumps([claim]))
    code, lines = _run(_validate(tmp_path))
    assert code == 1 and len(lines) == 1 and len(lines[0]) <= 200, (code, [x[:200] for x in lines])


def test_train_on_many_claims_with_a_missing_trial_ends_in_one_short_line(tmp_path):
    """``train`` on 2,000 claims whose trial is missing exits 1 with one line
    of at most 200 characters: the refusal counts the claims and names the
    first three."""
    claims = [
        {**_FIRST, "claim_id": f"claim-{i:04d}", "primary_ctr": "missing", "evidence": {}}
        for i in range(2000)
    ]
    shutil.copy(FIXTURE / "corpus.json", tmp_path / "corpus.json")
    (tmp_path / "claims").mkdir()
    (tmp_path / "claims" / "dev.json").write_text(json.dumps(claims))
    code, lines = _run(_train(tmp_path))
    assert code == 1 and len(lines) == 1 and len(lines[0]) <= 200, (code, [x[:200] for x in lines])
    assert "2000 claim(s)" in lines[0] and "claim-0000" in lines[0], lines
