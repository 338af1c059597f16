import codecs
import contextlib
import csv
import errno
import io
import json
import math
import os
import re
import shlex
import struct
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcan import cli, data, interpret, model


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = run_cli("synth", "--out", str(out), "--size", "24", "--seed", "3")
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = run_cli("train", "--config", str(synth_dir / "config.cfg"),
                   "--out", str(out), "--set", "hp.max_epochs=3")
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_writes_all_artifacts(synth_dir):
    for name in ("dataset.jsonl", "entities.jsonl", "embeddings.txt",
                 "meta.json", "config.cfg"):
        assert (synth_dir / name).exists(), name
    meta = json.loads((synth_dir / "meta.json").read_text())
    assert meta["size"] == 24
    assert meta["labels"] == {"fake": 12, "real": 12}


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("synth", "--out", str(a), "--size", "10", "--seed", "7") == 0
    assert run_cli("synth", "--out", str(b), "--size", "10", "--seed", "7") == 0
    assert (a / "dataset.jsonl").read_bytes() == (b / "dataset.jsonl").read_bytes()
    assert (a / "embeddings.txt").read_bytes() == (b / "embeddings.txt").read_bytes()


def test_synth_rejects_bad_signal(tmp_path):
    assert run_cli("synth", "--out", str(tmp_path / "x"), "--signal", "bogus") == 1


@pytest.mark.parametrize("flag, value, setting", [
    ("--entity-slots", "0", "max_entity_sentences"),
    ("--entity-slots", "-2", "max_entity_sentences"),
    ("--dim", "0", "embedding_dim"),
])
def test_synth_refuses_a_config_it_could_not_train(tmp_path, capsys, flag, value, setting):
    out = tmp_path / "corpus"
    assert run_cli("synth", "--out", str(out), "--size", "10", flag, value) == 1
    err = capsys.readouterr().err
    assert setting in err
    assert f"{flag} ({setting}) must be at least 1, got {value}" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_artifacts(trained_dir):
    assert (trained_dir / "checkpoint.bin").exists()
    assert (trained_dir / "epochs.csv").exists()
    report = json.loads((trained_dir / "metrics.json").read_text())
    assert set(report) == {"accuracy", "precision_pos", "recall_pos", "f1_pos",
                           "precision_macro", "recall_macro", "f1_macro", "pr_auc"}


def test_train_scores_the_params_it_trained_without_reading_the_checkpoint(
        tmp_path, monkeypatch):
    corpus, out = tmp_path / "corpus", tmp_path / "run"
    assert run_cli("synth", "--out", str(corpus), "--size", "40") == 0

    def refuse(*args):
        raise AssertionError("train re-read its checkpoint")

    monkeypatch.setattr(model, "load_checkpoint", refuse)
    monkeypatch.setattr(model, "restore_params", refuse)
    assert run_cli("train", "--config", str(corpus / "config.cfg"), "--out", str(out),
                   "--set", "hp.max_epochs=2") == 0
    for name in ("checkpoint.bin", "epochs.csv", "metrics.json"):
        assert (out / name).is_file(), name


def test_run_directories_hold_no_temporary_files(trained_dir, synth_dir, tmp_path):
    assert sorted(p.name for p in trained_dir.iterdir()) == [
        "checkpoint.bin", "epochs.csv", "metrics.json"]
    out = tmp_path / "explain"
    assert run_cli("explain", "--config", str(synth_dir / "config.cfg"), "--checkpoint",
                   str(trained_dir / "checkpoint.bin"), "--out", str(out)) == 0
    assert not [p.name for p in out.iterdir() if p.suffix == ".tmp"]


class _Unprintable:
    def __repr__(self):
        raise RuntimeError("no repr")


class _PayloadFails:
    def astype(self, *args, **kwargs):
        raise RuntimeError("payload fails")


def _checkpoint_failing_after_its_header(path):
    hp = model.HyperParams()
    named = model.ModelParams.create(hp).named
    model.save_checkpoint(path, hp, SimpleNamespace(named=named, values=_PayloadFails()))


# each artifact writer, given an input that raises once part of the file is written
FAILING_WRITES = {
    "checkpoint.bin": _checkpoint_failing_after_its_header,
    "epochs.csv": lambda path: cli._write_epoch_csv(
        path, [model.EpochLog(1, 0.5, 1.0, {"accuracy": 1.0, "f1_macro": _Unprintable()})]),
    "metrics.json": lambda path: data.write_json(path, {"accuracy": 1.0, "f1_macro": object()}),
    "attention_report.json": lambda path: data.write_json(
        path, {"samples": [{"id": "d0", "label": object()}], "skipped": []}),
}


@pytest.mark.parametrize("earlier", [False, True], ids=["new", "over-an-earlier-file"])
@pytest.mark.parametrize("name", FAILING_WRITES)
def test_a_write_that_raises_partway_leaves_no_file_and_no_temporary(tmp_path, monkeypatch,
                                                                     name, earlier):
    path = tmp_path / name
    if earlier:
        path.write_bytes(b"an earlier run")
    removed = []
    remove = os.remove

    def sized_remove(p):
        removed.append(os.path.getsize(p))
        remove(p)

    monkeypatch.setattr(os, "remove", sized_remove)
    with pytest.raises((RuntimeError, TypeError)):
        FAILING_WRITES[name](path)
    assert len(removed) == 1 and removed[0] > 0      # it did fail partway
    assert [p.name for p in tmp_path.iterdir()] == ([name] if earlier else [])
    if earlier:
        assert path.read_bytes() == b"an earlier run"


class _DiskFull:
    """A text file with room for 8 characters: the write that would pass them
    stores what fits, then fails as a full disk would."""

    def __init__(self, fh):
        self._fh, self._room = fh, 8

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, text):
        self._fh.write(text[:self._room])
        if len(text) > self._room:
            raise OSError(errno.ENOSPC, "No space left on device")
        self._room -= len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


@pytest.mark.parametrize("earlier", [False, True], ids=["new", "over-an-earlier-file"])
def test_a_heatmap_write_that_fails_partway_leaves_no_file_and_no_temporary(
        tmp_path, monkeypatch, earlier):
    path = tmp_path / "attention_news_entity.svg"
    if earlier:
        path.write_bytes(b"an earlier run")
    removed = []
    remove, real_open = os.remove, open

    def sized_remove(p):
        removed.append(os.path.getsize(p))
        remove(p)

    monkeypatch.setattr(os, "remove", sized_remove)
    monkeypatch.setattr("builtins.open", lambda *args, **kwargs: _DiskFull(
        real_open(*args, **kwargs)))
    with pytest.raises(OSError, match="No space left"):
        interpret.render_heatmap_svg(path, np.ones((2, 2)), ["d0", "d1"], "news sentences")
    monkeypatch.undo()
    assert len(removed) == 1 and removed[0] > 0      # it did fail partway
    assert [p.name for p in tmp_path.iterdir()] == ([path.name] if earlier else [])
    if earlier:
        assert path.read_bytes() == b"an earlier run"


# the files synth writes, in the order it writes them
SYNTH_FILES = ["dataset.jsonl", "entities.jsonl", "embeddings.txt", "meta.json", "config.cfg"]


@pytest.mark.parametrize("earlier", [False, True], ids=["new", "over-an-earlier-file"])
@pytest.mark.parametrize("name", SYNTH_FILES)
def test_a_synth_write_that_fails_partway_leaves_no_file_and_no_temporary(
        tmp_path, monkeypatch, name, earlier):
    out = tmp_path / "corpus"
    path = out / name
    if earlier:
        out.mkdir()
        path.write_bytes(b"an earlier run")
    removed = []
    remove, real_open = os.remove, open

    def sized_remove(p):
        removed.append(os.path.getsize(p))
        remove(p)

    def open_on_a_full_disk(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        return _DiskFull(fh) if os.path.basename(str(file)).startswith(f"{name}.") else fh

    monkeypatch.setattr(os, "remove", sized_remove)
    monkeypatch.setattr("builtins.open", open_on_a_full_disk)
    with pytest.raises(OSError, match="No space left"):
        run_cli("synth", "--out", str(out), "--size", "10")
    monkeypatch.undo()
    assert len(removed) == 1 and removed[0] > 0      # it did fail partway
    before = SYNTH_FILES[:SYNTH_FILES.index(name)]
    assert sorted(p.name for p in out.iterdir()) == sorted(before + ([name] if earlier else []))
    if earlier:
        assert path.read_bytes() == b"an earlier run"


def test_train_epoch_csv_structure(trained_dir):
    lines = (trained_dir / "epochs.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["epoch", "train_loss"]
    assert "val_f1_macro" in header
    assert len(lines) >= 2


def test_train_epoch_csv_columns(trained_dir):
    with (trained_dir / "epochs.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["epoch", "train_loss", "grad_norm", "val_accuracy",
                             "val_precision_pos", "val_recall_pos", "val_f1_pos",
                             "val_precision_macro", "val_recall_macro", "val_f1_macro",
                             "val_pr_auc"]
    assert [int(row["epoch"]) for row in rows] == list(range(1, len(rows) + 1))
    assert all(0.0 < float(row["grad_norm"]) < math.inf for row in rows)


def test_train_deterministic_bit_identical(synth_dir, tmp_path):
    runs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = run_cli("train", "--config", str(synth_dir / "config.cfg"),
                       "--out", str(out), "--set", "hp.max_epochs=2")
        assert code == 0
        runs.append(out)
    assert (runs[0] / "checkpoint.bin").read_bytes() == (runs[1] / "checkpoint.bin").read_bytes()
    assert (runs[0] / "epochs.csv").read_bytes() == (runs[1] / "epochs.csv").read_bytes()


def test_train_zero_learning_rate_keeps_initial_params(synth_dir, tmp_path):
    out = tmp_path / "zero"
    code = run_cli("train", "--config", str(synth_dir / "config.cfg"),
                   "--out", str(out), "--set", "hp.learning_rate=0.0",
                   "--set", "hp.max_epochs=2")
    assert code == 0
    hp, values = model.load_checkpoint(out / "checkpoint.bin")
    fresh = model.ModelParams.create(hp)
    for name, tensor in fresh.named().items():
        assert (values[name] == tensor.data).all(), name


def test_a_diverging_train_reports_one_line_and_no_numpy_warning(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert run_cli("synth", "--out", str(corpus), "--size", "40", "--seed", "1") == 0
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("train", "--config", str(corpus / "config.cfg"), "--out",
                       str(tmp_path / "run"), "--set", "hp.learning_rate=1e308")
    assert code == 3
    assert [w.category.__name__ for w in caught] == []
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    assert err.splitlines()[-1] == \
        "numerical failure: non-finite loss in epoch 1, batch starting at 8"


def test_train_missing_config_is_data_error(tmp_path):
    assert run_cli("train", "--config", str(tmp_path / "nope.cfg")) == 2


def test_train_unknown_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mystery = 1\n")
    assert run_cli("train", "--config", str(cfg)) == 1


def test_train_missing_dataset_path(tmp_path):
    cfg = tmp_path / "cfg.cfg"
    cfg.write_text("dataset = /nonexistent.jsonl\nembeddings = /nonexistent.txt\n")
    assert run_cli("train", "--config", str(cfg)) == 2


def test_train_refuses_duplicate_ids_before_training(synth_dir, tmp_path, capsys):
    lines = (synth_dir / "dataset.jsonl").read_text().splitlines(keepends=True)
    first, second = json.loads(lines[0]), json.loads(lines[1])
    lines[1] = json.dumps(dict(second, id=first["id"])) + "\n"
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("".join(lines))
    cfg = tmp_path / "cfg.cfg"
    cfg.write_text(re.sub(r"dataset = .*", f"dataset = {dataset}",
                          (synth_dir / "config.cfg").read_text()))
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"data error: document id {first['id']!r} appears more than once" in err
    assert not out.exists()


@pytest.mark.parametrize("layout", ["one-file", "split-files"])
def test_repeated_document_id_names_both_lines(synth_dir, tmp_path, capsys, layout):
    lines = (synth_dir / "dataset.jsonl").read_text().splitlines(keepends=True)
    repeated = json.loads(lines[0])["id"]
    cfg_text = (synth_dir / "config.cfg").read_text()
    if layout == "one-file":
        # line 5 repeats the id of line 1
        files = {"dataset": lines}
        lines[4] = json.dumps(dict(json.loads(lines[4]), id=repeated)) + "\n"
        places = ("dataset", 1), ("dataset", 5)
    else:
        # line 3 of the test split repeats the id of line 1 of the train split
        files = {"train": lines[:16], "val": lines[16:20], "test": lines[20:]}
        files["test"][2] = json.dumps(dict(json.loads(lines[22]), id=repeated)) + "\n"
        cfg_text = re.sub(r"dataset = .*\n", "", cfg_text)
        places = ("train", 1), ("test", 3)
    overrides = []
    for key, part in files.items():
        (tmp_path / f"{key}.jsonl").write_text("".join(part))
        overrides += ["--set", f"{key}={tmp_path / f'{key}.jsonl'}"]
    cfg = tmp_path / "cfg.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg), "--out", str(out), *overrides) == 2
    (a, line_a), (b, line_b) = places
    assert (f"data error: document id {repeated!r} appears more than once, at "
            f"{tmp_path / f'{a}.jsonl'}:{line_a} and {tmp_path / f'{b}.jsonl'}:{line_b}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("target", ["dataset", "entities", "embeddings", "config"])
def test_non_utf8_input_is_data_error(synth_dir, tmp_path, capsys, target):
    # one 0xFF byte, which no UTF-8 text holds, appended to a line of its own
    cfg_text = (synth_dir / "config.cfg").read_text()
    cfg = tmp_path / "cfg.cfg"
    bad, line, column = cfg, len(cfg_text.splitlines()) + 1, 3
    if target != "config":
        bad = tmp_path / f"{target}.copy"
        original = Path(re.search(rf"{target} = (.*)", cfg_text).group(1)).read_bytes()
        bad.write_bytes(original + b"\xff\n")
        cfg_text = re.sub(rf"{target} = .*", f"{target} = {bad}", cfg_text)
        line, column = len(original.splitlines()) + 1, 1
    cfg.write_bytes(cfg_text.encode() + (b"# \xff\n" if target == "config" else b""))
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "can't decode byte 0xff" in err
    assert f"{bad}:{line}: not UTF-8, can't decode byte 0xff at column {column}" in err
    assert not out.exists()


def _snapshot_contents(path) -> list:
    resolver = data.SnapshotResolver(path)
    return [(name, pattern, resolver.lookup(name)) for name, pattern in resolver.patterns]


@pytest.mark.parametrize("target", ["dataset", "entities", "embeddings", "config"])
def test_a_file_with_a_byte_order_mark_reads_like_the_plain_one(synth_dir, tmp_path, target):
    # a UTF-8 BOM before line 1 is dropped, not read into the first record,
    # token or key
    name = {"dataset": "dataset.jsonl", "entities": "entities.jsonl",
            "embeddings": "embeddings.txt", "config": "config.cfg"}[target]
    plain, marked = synth_dir / name, tmp_path / name
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    vocab = data.Vocabulary.build(data.read_dataset(synth_dir / "dataset.jsonl")[0])
    read = {"dataset": data.read_dataset, "entities": _snapshot_contents,
            "embeddings": lambda path: data.load_embeddings(path, vocab).matrix.tolist(),
            "config": cli.parse_config_file}[target]
    assert read(marked) == read(plain)


def _no_data_read(*args):
    raise AssertionError("data was read")


@pytest.mark.parametrize("command, key, code", [
    ("train", "config", 2), ("train", "dataset", 2), ("eval", "embeddings", 2),
    ("eval", "checkpoint", 2), ("train", "out", 1), ("explain", "out", 1), ("eval", "out", 1),
])
def test_path_of_the_wrong_kind_exits_before_reading_data(synth_dir, trained_dir, tmp_path,
                                                          capsys, monkeypatch, command, key,
                                                          code):
    # a directory where a file is read or written, a file where a run
    # directory is written
    probe = tmp_path / "probe"
    if key == "out" and command != "eval":
        probe.write_text("kept\n")
        expected = f"usage error: out path exists and is not a directory: {probe}"
    elif key == "out":
        probe.mkdir()
        expected = f"usage error: out path is a directory: {probe}"
    else:
        probe.mkdir()
        where = key if key in ("config", "checkpoint") else f"configured {key}"
        expected = f"data error: {where} path is not a file: {probe}"
    monkeypatch.setattr(cli, "prepare_data", _no_data_read)
    argv = [command, "--config", str(probe if key == "config" else synth_dir / "config.cfg")]
    if command != "train":
        checkpoint = probe if key == "checkpoint" else trained_dir / "checkpoint.bin"
        argv += ["--checkpoint", str(checkpoint)]
    if key == "out":
        argv += ["--out", str(probe)]
    elif key not in ("config", "checkpoint"):
        argv += ["--set", f"{key}={probe}"]
    assert run_cli(*argv) == code
    assert expected in capsys.readouterr().err
    if probe.is_file():
        assert probe.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["train", "eval", "explain"])
def test_out_under_a_file_exits_before_reading_data(synth_dir, trained_dir, tmp_path, capsys,
                                                    monkeypatch, command):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    # eval writes a metrics file, train and explain a run directory
    out = afile / "sub" / "metrics.json" if command == "eval" else afile / "run"
    monkeypatch.setattr(cli, "prepare_data", _no_data_read)
    monkeypatch.setattr(model, "load_checkpoint", _no_data_read)
    argv = [command, "--config", str(synth_dir / "config.cfg"), "--out", str(out)]
    if command != "train":
        argv += ["--checkpoint", str(trained_dir / "checkpoint.bin")]
    assert run_cli(*argv) == 1
    assert f"usage error: out path is under a file: {afile}" in capsys.readouterr().err
    assert afile.read_text() == "kept\n"


@pytest.mark.parametrize("command, key", [("train", "dataset"), ("eval", "embeddings"),
                                          ("eval", "checkpoint")])
def test_unreadable_input_exits_2_naming_path(synth_dir, trained_dir, tmp_path, capsys,
                                              monkeypatch, command, key):
    # mode bits do not stop root from reading, so open itself refuses the file
    cfg_text = (synth_dir / "config.cfg").read_text()
    target = (trained_dir / "checkpoint.bin" if key == "checkpoint"
              else Path(re.search(rf"{key} = (.*)", cfg_text).group(1)))
    real_open = open

    def refusing_open(path, *args, **kwargs):
        if str(path) == str(target):
            raise PermissionError(13, "Permission denied", str(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", refusing_open)
    out = tmp_path / "run"
    argv = [command, "--config", str(synth_dir / "config.cfg")]
    if command == "eval":
        argv += ["--checkpoint", str(trained_dir / "checkpoint.bin")]
    else:
        argv += ["--out", str(out)]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert f"data error: {target}: cannot read: Permission denied" in err
    assert not out.exists()


@pytest.mark.parametrize("empty", ["train", "val", "test"])
def test_train_refuses_an_empty_split_before_training(synth_dir, tmp_path, capsys, empty):
    lines = (synth_dir / "dataset.jsonl").read_text().splitlines(keepends=True)
    parts = {"train": lines[:16], "val": lines[16:20], "test": lines[20:]}
    parts[empty] = []
    overrides = []
    for split, part in parts.items():
        (tmp_path / f"{split}.jsonl").write_text("".join(part))
        overrides += ["--set", f"{split}={tmp_path / f'{split}.jsonl'}"]
    cfg = tmp_path / "cfg.cfg"
    cfg.write_text(re.sub(r"dataset = .*\n", "", (synth_dir / "config.cfg").read_text()))
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg), "--out", str(out), *overrides) == 2
    assert f"data error: {empty} split is empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("record", ['"name and description"', '["name", "description"]', "5"])
def test_train_refuses_a_snapshot_record_that_is_not_an_object(synth_dir, tmp_path, capsys,
                                                                record):
    lines = (synth_dir / "entities.jsonl").read_text().splitlines(keepends=True)
    entities = tmp_path / "entities.jsonl"
    entities.write_text("".join(lines) + record + "\n")
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(synth_dir / "config.cfg"), "--out", str(out),
                   "--set", f"entities={entities}") == 2
    err = capsys.readouterr().err
    assert f"data error: {entities}:{len(lines) + 1}: " in err and "Traceback" not in err
    assert not out.exists()


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    assert run_cli("synth", "--out", str(out), "--size", "20", "--seed", "2") == 0
    return {name: (out / name).read_bytes()
            for name in ("dataset.jsonl", "entities.jsonl", "embeddings.txt", "config.cfg")}


# byte substitutions, deletions and truncations only, so no numeric setting
# grows by more than a digit; positions are fractions of the file length
_CORRUPTION = st.one_of(
    st.tuples(st.just("substitute"), st.floats(0, 1, exclude_max=True), st.integers(0, 255)),
    st.tuples(st.just("delete"), st.floats(0, 1, exclude_max=True), st.integers(1, 8)),
    st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True), st.just(0)),
)


def _corrupt(raw: bytes, edits) -> bytes:
    for kind, where, arg in edits:
        at = int(where * len(raw))
        if kind == "substitute" and raw:
            raw = raw[:at] + bytes([arg]) + raw[at + 1:]
        elif kind == "delete":
            raw = raw[:at] + raw[at + arg:]
        elif kind == "truncate":
            raw = raw[:at]
    return raw


@settings(max_examples=25, deadline=None)
@given(target=st.sampled_from(["dataset.jsonl", "entities.jsonl", "embeddings.txt",
                               "config.cfg"]),
       edits=st.lists(_CORRUPTION, min_size=1, max_size=4))
def test_corrupted_inputs_exit_with_a_documented_code(small_corpus, target, edits):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = dict(small_corpus)
        config = files["config.cfg"].decode()
        for key, name in (("dataset", "dataset.jsonl"), ("entities", "entities.jsonl"),
                          ("embeddings", "embeddings.txt")):
            config = re.sub(rf"{key} = .*", f"{key} = {tmp / name}", config)
        files["config.cfg"] = config.encode()
        files[target] = _corrupt(files[target], edits)
        for name, raw in files.items():
            (tmp / name).write_bytes(raw)
        out, err = tmp / "run", io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_cli("train", "--config", str(tmp / "config.cfg"), "--out", str(out),
                           "--set", "hp.max_epochs=1")
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code in (1, 2):
            assert not out.exists()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_reproduces_logged_test_metrics(synth_dir, trained_dir, tmp_path, capsys):
    out_file = tmp_path / "metrics.json"
    code = run_cli("eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                   "--config", str(synth_dir / "config.cfg"),
                   "--out", str(out_file))
    assert code == 0
    logged = json.loads((trained_dir / "metrics.json").read_text())
    again = json.loads(out_file.read_text())
    assert logged == again


def test_eval_prints_metrics(synth_dir, trained_dir, capsys):
    code = run_cli("eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                   "--config", str(synth_dir / "config.cfg"))
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert "accuracy" in printed


def test_eval_prints_data_warnings(synth_dir, trained_dir, tmp_path, capsys):
    cfg_text = (synth_dir / "config.cfg").read_text()
    dataset = tmp_path / "dataset.jsonl"
    lines = (synth_dir / "dataset.jsonl").read_text().splitlines(keepends=True)
    dataset.write_text("".join(lines) + "{not json\n")
    cfg = tmp_path / "cfg.cfg"
    cfg.write_text(re.sub(r"dataset = .*", f"dataset = {dataset}", cfg_text))
    assert run_cli("eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                   "--config", str(cfg)) == 0
    assert f"warning: {dataset}:{len(lines) + 1}: skipped (" in capsys.readouterr().err


def test_eval_with_ablation_mode(synth_dir, trained_dir):
    code = run_cli("eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                   "--config", str(synth_dir / "config.cfg"), "--mode", "N+C")
    assert code == 0


def test_eval_overfit_model_scores_training_set_perfectly(synth_dir, tmp_path, capsys):
    out = tmp_path / "overfit"
    code = run_cli("train", "--config", str(synth_dir / "config.cfg"),
                   "--out", str(out), "--set", "hp.max_epochs=40",
                   "--set", "hp.patience=40", "--set", "hp.learning_rate=0.01")
    assert code == 0
    capsys.readouterr()
    code = run_cli("eval", "--checkpoint", str(out / "checkpoint.bin"),
                   "--config", str(synth_dir / "config.cfg"), "--split", "train")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["accuracy"] == 1.0


def test_eval_checkpoint_with_bad_hyperparameter_exits_2(synth_dir, trained_dir, tmp_path,
                                                         capsys):
    raw = (trained_dir / "checkpoint.bin").read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(raw.replace(b"\nhp batch_size 8\n", b"\nhp batch_size 8.5\n", 1))
    assert run_cli("eval", "--checkpoint", str(bad),
                   "--config", str(synth_dir / "config.cfg")) == 2
    assert "batch_size" in capsys.readouterr().err


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("command", ["eval", "explain"])
def test_eval_and_explain_reject_non_finite_checkpoint_payload(synth_dir, trained_dir, tmp_path,
                                                                capsys, command, value):
    # the first tensor's first float becomes NaN or Inf: a data error naming
    # the tensor, before any output is written
    raw = (trained_dir / "checkpoint.bin").read_bytes()
    start = raw.index(b"\nend\n") + 5
    bad = tmp_path / "bad.bin"
    bad.write_bytes(raw[:start] + struct.pack("<d", value) + raw[start + 8:])
    out = tmp_path / "out"
    target = out / "metrics.json" if command == "eval" else out
    assert run_cli(command, "--checkpoint", str(bad), "--config", str(synth_dir / "config.cfg"),
                   "--out", str(target)) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "tensor news.word.fwd.reset.w holds non-finite" in err
    assert not out.exists()


def test_eval_missing_checkpoint(synth_dir, tmp_path):
    assert run_cli("eval", "--checkpoint", str(tmp_path / "none.bin"),
                   "--config", str(synth_dir / "config.cfg")) == 2


def test_eval_embedding_dim_mismatch_is_contract_error(synth_dir, trained_dir, tmp_path):
    emb = tmp_path / "bad_emb.txt"
    emb.write_text("market 0.1 0.2\n")
    cfg = tmp_path / "cfg.cfg"
    base = (synth_dir / "config.cfg").read_text()
    base = re.sub(r"embeddings = .*", f"embeddings = {emb}", base)
    cfg.write_text(base)
    assert run_cli("eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                   "--config", str(cfg)) == 2


def test_prepare_data_embedding_dim_mismatch_is_dataset_error(synth_dir, tmp_path):
    emb = tmp_path / "bad_emb.txt"
    emb.write_text("market 0.1 0.2\n")
    config = cli.RunConfig(dataset=str(synth_dir / "dataset.jsonl"), embeddings=str(emb))
    with pytest.raises(data.DatasetFormatError, match="bad_emb.txt"):
        cli.prepare_data(config, model.HyperParams())


def test_eval_empty_dataset_errors(trained_dir, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    emb = tmp_path / "emb.txt"
    emb.write_text("market " + " ".join(["0.0"] * 16) + "\n")
    cfg = tmp_path / "cfg.cfg"
    cfg.write_text(f"dataset = {empty}\nembeddings = {emb}\n")
    assert run_cli("eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                   "--config", str(cfg)) == 2


def _config_with_nan_embedding(synth_dir, tmp_path):
    """The synthetic config pointed at a copy of its embeddings whose ``a``
    line starts with nan; returns (config path, embeddings path, line)."""
    lines = (synth_dir / "embeddings.txt").read_text().splitlines(keepends=True)
    line_no = next(i for i, line in enumerate(lines, start=1) if line.startswith("a "))
    values = lines[line_no - 1].split(" ")
    lines[line_no - 1] = " ".join(["a", "nan"] + values[2:])
    emb = tmp_path / "nan_emb.txt"
    emb.write_text("".join(lines))
    cfg = tmp_path / "cfg.cfg"
    cfg.write_text(re.sub(r"embeddings = .*", f"embeddings = {emb}",
                          (synth_dir / "config.cfg").read_text()))
    return cfg, emb, line_no


@pytest.mark.parametrize("command", ["train", "eval"])
def test_non_finite_embedding_is_data_error_before_training(synth_dir, trained_dir, tmp_path,
                                                            capsys, command):
    cfg, emb, line_no = _config_with_nan_embedding(synth_dir, tmp_path)
    out = tmp_path / "out"
    argv = ["--config", str(cfg), "--out", str(out / "metrics.json" if command == "eval" else out)]
    if command == "eval":
        argv += ["--checkpoint", str(trained_dir / "checkpoint.bin")]
    else:
        argv += ["--set", "hp.max_epochs=1"]
    assert run_cli(command, *argv) == 2
    err = capsys.readouterr().err
    assert f"data error: {emb}:{line_no}: non-finite value for token 'a'" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", [("--profile", "gossipcop"), ("--seed", "3"),
                                  ("--set", "hp.batch_size=1"), ("--set", "hp.hidden_size=999")])
@pytest.mark.parametrize("command", ["eval", "explain"])
def test_eval_and_explain_refuse_hyperparameter_flags(synth_dir, trained_dir, tmp_path, capsys,
                                                      command, flag):
    # the checkpoint fixes the hyperparameters; a flag that would set them is
    # refused by name instead of being silently replaced
    out = tmp_path / "out"
    code = run_cli(command, "--checkpoint", str(trained_dir / "checkpoint.bin"),
                   "--config", str(synth_dir / "config.cfg"), "--out", str(out), *flag)
    assert code == 1
    assert " ".join(flag) in capsys.readouterr().err
    assert not out.exists()


def readme_commands():
    """The ``dualcan`` command lines of the README's "Command line" block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line, comments=True)[1:]
            for line in block.replace("\\\n", " ").splitlines() if line.startswith("dualcan ")]


def test_readme_command_lines_run(tmp_path, monkeypatch):
    # run as written, in a fresh directory, on a smaller corpus and two epochs;
    # eval and explain read the training config, hp.* lines included
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert [argv[0] for argv in commands] == ["synth", "train", "eval", "explain"]
    shorter = {"synth": ["--size", "24"], "train": ["--set", "hp.max_epochs=2"]}
    for argv in commands:
        assert run_cli(*argv, *shorter.get(argv[0], [])) == 0, argv
    assert (tmp_path / "corpus" / "explain" / "attention_report.json").exists()


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------


def test_explain_writes_report_and_heatmaps(synth_dir, trained_dir, tmp_path):
    out = tmp_path / "explain"
    code = run_cli("explain", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                   "--config", str(synth_dir / "config.cfg"),
                   "--split", "test", "--out", str(out))
    assert code == 0
    report = json.loads((out / "attention_report.json").read_text())
    assert report["samples"]
    for family in ("news_entity", "entity", "news_comment", "comment"):
        assert (out / f"attention_{family}.svg").exists()
    for entry in report["samples"]:
        for key, mask_key in (("news_entity", "news"), ("entity", "entity"),
                              ("news_comment", "news"), ("comment", "comment")):
            weights = np.array(entry["attention"][key])
            mask = np.array(entry["masks"][mask_key])
            assert abs(weights[mask].sum() - 1.0) <= 1e-6


def test_explain_skips_unknown_ids(synth_dir, trained_dir, tmp_path, capsys):
    out = tmp_path / "explain2"
    report_path = out / "attention_report.json"
    docs, _ = data.read_dataset(synth_dir / "dataset.jsonl")
    known = docs[0].doc_id
    code = run_cli("explain", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                   "--config", str(synth_dir / "config.cfg"),
                   "--split", "full", "--ids", f"{known},ghost-id", "--out", str(out))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert [e["id"] for e in report["samples"]] == [known]
    assert report["skipped"] == ["ghost-id"]


def _explain_report(synth_dir, trained_dir, out, *extra):
    code = run_cli("explain", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                   "--config", str(synth_dir / "config.cfg"), "--out", str(out), *extra)
    assert code == 0
    return json.loads((out / "attention_report.json").read_text())


@pytest.mark.parametrize("mode", ["N+C+E", "N+E"])
def test_explain_batches_match_batch_one_path(synth_dir, trained_dir, tmp_path, mode):
    report = _explain_report(synth_dir, trained_dir, tmp_path / "explain",
                             "--split", "full", "--mode", mode)
    args = cli.build_parser().parse_args(
        ["explain", "--checkpoint", str(trained_dir / "checkpoint.bin"),
         "--config", str(synth_dir / "config.cfg"), "--mode", mode])
    hp, params, _, prepared = cli._load_for_eval(args)
    samples = prepared.train + prepared.val + prepared.test
    assert len(samples) > hp.batch_size
    assert [e["id"] for e in report["samples"]] == [s.doc_id for s in samples]
    assert report["skipped"] == []
    for entry, sample in zip(report["samples"], samples):
        logits, attn = model.run_sample(model.ablate(sample, mode), params,
                                        prepared.embeddings, hp)
        probs = model.predict_probs(logits)
        assert entry["prediction"] == model.predicted_label(probs)
        np.testing.assert_allclose([entry["probabilities"]["real"],
                                    entry["probabilities"]["fake"]], probs, rtol=0, atol=1e-12)
        for family in ("news_entity", "entity", "news_comment", "comment"):
            np.testing.assert_allclose(entry["attention"][family], getattr(attn, family),
                                       rtol=0, atol=1e-12)
        for side in ("news", "entity", "comment"):
            assert entry["masks"][side] == getattr(attn, f"{side}_mask").tolist()


def test_explain_keeps_requested_id_order(synth_dir, trained_dir, tmp_path):
    docs, _ = data.read_dataset(synth_dir / "dataset.jsonl")
    wanted = [docs[5].doc_id, "ghost-id", docs[0].doc_id, docs[3].doc_id]
    report = _explain_report(synth_dir, trained_dir, tmp_path / "explain",
                             "--split", "full", "--ids", ",".join(wanted))
    assert [e["id"] for e in report["samples"]] == [wanted[0], wanted[2], wanted[3]]
    assert report["skipped"] == ["ghost-id"]


def test_explain_reports_each_requested_id_once(synth_dir, trained_dir, tmp_path):
    docs, _ = data.read_dataset(synth_dir / "dataset.jsonl")
    a, b = docs[4].doc_id, docs[1].doc_id
    out = tmp_path / "explain"
    report = _explain_report(synth_dir, trained_dir, out, "--split", "full",
                             "--ids", f"{a},ghost-id,{b},{a},ghost-id,{b}")
    assert [e["id"] for e in report["samples"]] == [a, b]
    assert report["skipped"] == ["ghost-id"]
    heatmap = (out / "attention_comment.svg").read_text(encoding="utf-8")
    assert heatmap.count(f">{a}</text>") == heatmap.count(f">{b}</text>") == 1


def test_explain_all_unknown_ids_is_error(synth_dir, trained_dir, tmp_path):
    code = run_cli("explain", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                   "--config", str(synth_dir / "config.cfg"),
                   "--ids", "ghost1,ghost2", "--out", str(tmp_path / "x"))
    assert code == 2


def test_heatmap_shading_is_monotone(tmp_path):
    from dualcan import interpret

    weights = np.array([[0.7, 0.05], [0.2, 0.9], [0.1, 0.05]])
    path = tmp_path / "map.svg"
    interpret.render_heatmap_svg(path, weights, ["s1", "s2"], "test")
    svg = path.read_text()
    fills = [int(m.group(1)) for m in re.finditer(r'fill="rgb\((\d+),', svg)]
    assert len(fills) == 6
    # cells are written row by row; reconstruct columns and check ordering
    grid = np.array(fills).reshape(3, 2)
    # darker (smaller rgb) = larger weight, per column
    assert grid[0, 0] < grid[1, 0] < grid[2, 0]
    assert grid[1, 1] < grid[0, 1] == grid[2, 1]
    # column max is fully dark
    assert grid[0, 0] == 0 and grid[1, 1] == 0


# sha256 of each SVG, pinned when shading was computed cell by cell with
# Python's round (which, like np.rint, rounds half to even)
PINNED_HEATMAPS = {
    "half-way-levels-and-a-zero-column": (
        np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.25, 0.25, 0.0]]),
        "f4abafa85e25c2237708fa03947f58ebe322e0f31bf27da56b00d488c38c9ca3"),
    # every level below the first row is exactly k + 0.5
    "levels-at-k-and-a-half": (
        np.vstack([np.ones(3), 1.0 - (np.arange(9.0).reshape(3, 3) * 21 + 0.5) / 255]),
        "83429582e003104b28661ecf560aea706338b2d45c3b8dca145a9561685890d5"),
    "negative-weights": (
        np.array([[-0.5, 0.2], [0.3, -0.1], [0.3, 0.0]]),
        "061955f243e730e225a84cefff7e8d1acd514295fe8ca271dbac8c590bc70166"),
    "no-rows": (
        np.zeros((0, 2)),
        "c608623ec1cf6a73b13e722d064f8e2056089e0ecdaf278d7d0c26e17bef1b76"),
}


@pytest.mark.parametrize("name", PINNED_HEATMAPS)
def test_heatmap_svg_bytes_are_pinned(tmp_path, name):
    import hashlib

    weights, digest = PINNED_HEATMAPS[name]
    path = tmp_path / f"{name}.svg"
    interpret.render_heatmap_svg(path, weights, [f"s{j}" for j in range(weights.shape[1])],
                                 name)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_heatmap_levels_equal_the_cell_by_cell_rule(tmp_path):
    def level(weight, col_max):
        # the per-cell rule: a column's max is darkest, a zero-max column white
        frac = 0.0 if col_max <= 0 else min(max(weight / col_max, 0.0), 1.0)
        return int(round(255 * (1.0 - frac)))

    rng = np.random.default_rng(11)
    path = tmp_path / "map.svg"
    for trial in range(60):
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        weights = [rng.uniform(-0.2, 1, (rows, cols)),                 # negatives
                   rng.integers(0, 5, (rows, cols)) / 4.0,             # ties, zero columns
                   1.0 - (rng.integers(0, 255, (rows, cols)) + 0.5) / 255,  # near k + 0.5
                   ][trial % 3]
        interpret.render_heatmap_svg(path, weights, [f"s{j}" for j in range(cols)], "t")
        fills = [int(m.group(1)) for m in re.finditer(r'fill="rgb\((\d+),', path.read_text())]
        col_max = weights.max(axis=0)
        assert fills == [level(weights[i, j], col_max[j])
                         for i in range(rows) for j in range(cols)], trial


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_heatmap_weight_raises_before_any_file_is_written(tmp_path, value):
    with pytest.raises(ValueError):
        interpret.render_heatmap_svg(tmp_path / "map.svg", np.array([[0.5, value], [0.2, 0.1]]),
                                     ["a", "b"], "news")
    assert list(tmp_path.iterdir()) == []


def test_heatmaps_escape_ids_and_titles(tmp_path):
    import xml.etree.ElementTree as ET

    from dualcan import interpret

    ids = ["a&b<c", "plain>id"]
    attn = model.AttentionReport(*(np.array([0.25, 0.75]) for _ in range(4)),
                                 *(np.array([True, True]) for _ in range(3)))
    entries = [interpret.report_entry(i, 0, [0.5, 0.5], attn) for i in ids]
    written = interpret.export_heatmaps(tmp_path, entries)
    assert len(written) == 4
    titled = tmp_path / "titled.svg"
    interpret.render_heatmap_svg(titled, np.ones((1, 1)), ["x"], "news & <co>")

    def texts(path):
        return {t.text for t in ET.parse(path).iter("{http://www.w3.org/2000/svg}text")}

    for path in written:
        assert set(ids) <= texts(path)
    assert "news & <co>" in texts(titled)


def test_single_sentence_sample_heatmap_is_full_dark(synth_dir, trained_dir, tmp_path):
    # a news side with one real sentence puts weight 1.0 in one full-dark cell
    hp, values = model.load_checkpoint(trained_dir / "checkpoint.bin")
    params = model.restore_params(hp, values)
    from conftest import tiny_embeddings
    vocab = data.Vocabulary()
    vocab.add("market")
    emb = tiny_embeddings(vocab, hp.embedding_dim)
    doc = data.Document("solo", [["market", "market"]], [], [], 0)
    sample = data.encode_document(doc, vocab, hp)
    _, attn = model.run_sample(sample, params, emb, hp)
    assert attn.news_entity[0] == pytest.approx(1.0, abs=1e-12)
    from dualcan import interpret
    entry = interpret.report_entry("solo", 0, [0.5, 0.5], attn)
    path = tmp_path / "solo.svg"
    interpret.render_heatmap_svg(path, np.array([entry["attention"]["news_entity"]]).T,
                                 ["solo"], "news")
    fills = [int(m.group(1)) for m in re.finditer(r'fill="rgb\((\d+),', path.read_text())]
    assert fills[0] == 0


# ---------------------------------------------------------------------------
# parser and config
# ---------------------------------------------------------------------------


def test_usage_errors_exit_1():
    assert run_cli("bogus-command") == 1
    assert run_cli("eval") == 1  # missing --checkpoint


def test_numerical_failure_exits_3(monkeypatch):
    def explode(args):
        raise model.DivergenceError("non-finite loss in epoch 1, batch starting at 0")

    monkeypatch.setitem(cli._COMMANDS, "train", explode)
    assert run_cli("train") == 3


def test_bad_hyperparameter_overrides_exit_1(synth_dir, capsys):
    assert run_cli("train", "--config", str(synth_dir / "config.cfg"),
                   "--set", "hp.hidden_size=0") == 1
    assert run_cli("train", "--config", str(synth_dir / "config.cfg"),
                   "--set", "hp.hidden_size=abc") == 1
    err = capsys.readouterr().err
    assert "usage error" in err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_learning_rate_exits_1_before_reading_data(synth_dir, tmp_path, capsys,
                                                              monkeypatch, value):
    def no_data(*args):
        raise AssertionError("data was read")

    monkeypatch.setattr(cli, "prepare_data", no_data)
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(synth_dir / "config.cfg"), "--out", str(out),
                   "--set", f"hp.learning_rate={value}") == 1
    assert (f"usage error: hyperparameter learning_rate must be finite and at least 0, "
            f"got {value}") in capsys.readouterr().err
    assert not out.exists()


def test_eval_checkpoint_with_infinite_learning_rate_exits_2(synth_dir, trained_dir, tmp_path,
                                                             capsys):
    raw = (trained_dir / "checkpoint.bin").read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(raw.replace(b"\nhp learning_rate 0.005\n", b"\nhp learning_rate inf\n", 1))
    assert bad.read_bytes() != raw
    assert run_cli("eval", "--checkpoint", str(bad),
                   "--config", str(synth_dir / "config.cfg")) == 2
    assert "learning_rate must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "explain"])
def test_eval_and_explain_name_an_empty_split(synth_dir, trained_dir, tmp_path, capsys, command):
    lines = (synth_dir / "dataset.jsonl").read_text().splitlines(keepends=True)
    overrides = []
    for split, part in {"train": lines[:16], "val": [], "test": lines[16:]}.items():
        (tmp_path / f"{split}.jsonl").write_text("".join(part))
        overrides += ["--set", f"{split}={tmp_path / f'{split}.jsonl'}"]
    cfg = tmp_path / "cfg.cfg"
    cfg.write_text(re.sub(r"dataset = .*\n", "", (synth_dir / "config.cfg").read_text()))
    out = tmp_path / "out"
    assert run_cli(command, "--checkpoint", str(trained_dir / "checkpoint.bin"),
                   "--config", str(cfg), "--split", "val", "--out", str(out), *overrides) == 2
    assert "data error: split 'val' has no usable samples" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seeds_exit_1(synth_dir, tmp_path, capsys):
    # numpy refuses a negative seed; both are refused before anything is written
    out = tmp_path / "out"
    assert run_cli("train", "--config", str(synth_dir / "config.cfg"), "--out", str(out),
                   "--set", "split_seed=-1") == 1
    assert run_cli("synth", "--out", str(out), "--seed", "-1", "--size", "10") == 1
    assert capsys.readouterr().err.count("usage error: ") == 2
    assert not out.exists()


def test_parse_config_roundtrip(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment line\ndataset = a.jsonl\nhp.hidden_size = 12\n"
                   "hp.learning_rate = 0.01\nmode = N+C\n")
    entries = cli.parse_config_file(cfg)
    assert entries == {"dataset": "a.jsonl", "hp.hidden_size": "12",
                       "hp.learning_rate": "0.01", "mode": "N+C"}
    config = cli.build_run_config(cli.build_parser().parse_args(["train", "--config", str(cfg)]))
    assert (config.hp.hidden_size, config.hp.learning_rate) == (12, 0.01)
    assert (config.dataset, config.mode) == ("a.jsonl", "N+C")


def test_config_values_are_not_guessed(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("   # indented comment = still a comment\nout = 1e3\n"
                   "entities = c/ent#1.jsonl\nsplit_seed = 7\n")
    args = cli.build_parser().parse_args(["train", "--config", str(cfg),
                                          "--set", "dataset=d#2.jsonl"])
    config = cli.build_run_config(args)
    assert (config.out, config.entities, config.dataset) == ("1e3", "c/ent#1.jsonl", "d#2.jsonl")
    assert config.split_seed == 7


@pytest.mark.parametrize("line, key", [("hp.batch_size = 8.9", "hp.batch_size"),
                                       ("split_seed = 2.5", "split_seed"),
                                       ("seed = 3", "seed"),
                                       ("dataset =", "dataset"),
                                       ("hp = 3", "hp")])
def test_bad_config_value_exits_1_naming_key(tmp_path, capsys, line, key):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    assert run_cli("train", "--config", str(cfg)) == 1
    assert f"'{key}'" in capsys.readouterr().err


def test_synth_config_reads_back_as_synthetic_profile(tmp_path):
    out = tmp_path / "corpus"
    assert run_cli("synth", "--out", str(out), "--size", "10", "--dim", "12",
                   "--entity-slots", "4", "--seed", "5") == 0
    config = cli.build_run_config(
        cli.build_parser().parse_args(["train", "--config", str(out / "config.cfg")]))
    assert config.hp == replace(model.HyperParams.profile("synthetic"), embedding_dim=12,
                                max_entity_sentences=4, seed=5)
    assert (config.split_seed, config.out) == (5, str(out / "run"))


def test_parse_config_rejects_malformed(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("just some words\n")
    with pytest.raises(cli.UsageError):
        cli.parse_config_file(cfg)


def test_build_run_config_profile_and_overrides(synth_dir):
    parser = cli.build_parser()
    args = parser.parse_args(["train", "--config", str(synth_dir / "config.cfg"),
                              "--profile", "coaid", "--seed", "42",
                              "--set", "hp.batch_size=4"])
    config = cli.build_run_config(args)
    # profile supplies the base, config file and --set refine it
    assert config.hp.batch_size == 4
    assert config.hp.seed == 42
    assert config.hp.embedding_dim == 16  # config file overrides the profile
    assert config.mode == "N+C+E"


def test_mode_validation(synth_dir):
    parser = cli.build_parser()
    args = parser.parse_args(["train", "--config", str(synth_dir / "config.cfg")])
    config = cli.build_run_config(args)
    config.mode = "X+Y"
    with pytest.raises(cli.UsageError):
        config.validate_paths()
