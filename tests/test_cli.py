import csv
import json
import math
import re
import shlex
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dualcan import cli, data, model


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


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_artifacts(trained_dir):
    assert (trained_dir / "checkpoint.bin").exists()
    assert (trained_dir / "epochs.csv").exists()
    report = json.loads((trained_dir / "metrics.json").read_text())
    assert set(report) == {"accuracy", "precision_pos", "recall_pos", "f1_pos",
                           "precision_macro", "recall_macro", "f1_macro", "pr_auc"}


def test_train_epoch_csv_structure(trained_dir):
    lines = (trained_dir / "epochs.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["epoch", "train_loss"]
    assert "val_f1_macro" in header
    assert len(lines) >= 2


def test_train_epoch_csv_columns(trained_dir):
    rows = list(csv.DictReader((trained_dir / "epochs.csv").open()))
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


def _no_data_read(*args):
    raise AssertionError("data was read")


@pytest.mark.parametrize("command, key, code", [
    ("train", "config", 2), ("train", "dataset", 2), ("eval", "embeddings", 2),
    ("train", "out", 1), ("explain", "out", 1),
])
def test_path_of_the_wrong_kind_exits_before_reading_data(synth_dir, trained_dir, tmp_path,
                                                          capsys, monkeypatch, command, key,
                                                          code):
    # a directory where a file is read, a file where a run directory is written
    probe = tmp_path / "probe"
    if key == "out":
        probe.write_text("kept\n")
        expected = f"usage error: out path exists and is not a directory: {probe}"
    else:
        probe.mkdir()
        where = "config" if key == "config" else f"configured {key}"
        expected = f"data error: {where} path is not a file: {probe}"
    monkeypatch.setattr(cli, "prepare_data", _no_data_read)
    argv = [command, "--config", str(probe if key == "config" else synth_dir / "config.cfg")]
    if command != "train":
        argv += ["--checkpoint", str(trained_dir / "checkpoint.bin")]
    if key == "out":
        argv += ["--out", str(probe)]
    elif key != "config":
        argv += ["--set", f"{key}={probe}"]
    assert run_cli(*argv) == code
    assert expected in capsys.readouterr().err
    if key == "out":
        assert probe.read_text() == "kept\n"


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
