"""Named sha256 digests of what the program computes, to check that a change
keeps every bit.

    python tests/digest.py                 # this checkout's digests
    python tests/digest.py --against REV   # and which of them differ at REV

On the benchmark's train-synth inputs (2 epochs) and train-paper inputs (1
epoch on 16 samples), and at the coaid profile's h = d = 300 (batch 2, 1
epoch on 4 samples of a ``paper_corpus`` whose embedding rows are repeated
to 300 dimensions), all generated with seed 1, there is one digest each
for what ``cli.prepare_data`` returns (the vocabulary's tokens and each
split's samples), for one batch's gradients and for ``predict`` outputs
under every input mode, for the trained flat values and for ``run_sample``
logits. Then there is one per artifact of ``synth --size 200 --seed 3``,
then ``train`` (3 epochs) and ``explain --split full`` under every mode; the
run's own directory in a file reads as ``<work>``.

``--against REV`` extracts the files committed at REV into a temporary
directory, runs this same script there, prints each digest that differs and
exits 1 if one does. Float digests depend on the BLAS build, so compare trees
on one machine; no test pins one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

CHECKOUT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":   # measure this checkout's package and benchmark inputs
    sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT)]

from dualcan import cli, model  # noqa: E402
from dualcan.autodiff import Graph  # noqa: E402


def sha(*arrays) -> str:
    """sha256 over the dtype, shape and bytes of each array in turn."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def prepared_digest(prepared) -> str:
    """Digest of the vocabulary's tokens in id order, then per split of each
    sample's id, label, and token ids and sentence lengths per source."""
    arrays = [np.array(prepared.vocab.tokens())]
    for split in (prepared.train, prepared.val, prepared.test):
        arrays += [np.array([s.doc_id for s in split]), np.array([s.label for s in split])]
        arrays += [a for s in split for source in (s.news, s.entities, s.comments)
                   for a in (source.ids, source.lengths)]
    return sha(*arrays)


def model_digests(prepared, hp: model.HyperParams, params: model.ModelParams) -> dict:
    """Digests of the prepared data, of one batch's gradients at ``params``
    under every input mode, then of the flat values ``model.train`` makes of
    them, and of ``predict`` (every mode) and ``run_sample`` on the test
    split with the trained values."""
    emb = prepared.embeddings

    def batch_grads(mode: str) -> str:
        params.zero_grads()
        graph = Graph()
        with graph:
            batch = [model.ablate(s, mode) for s in prepared.train[:hp.batch_size]]
            encoded = model.encode_samples(batch, params, emb, hp)
            loss = model.cross_entropy(model.forward(encoded, params)[0], encoded.labels)
        graph.backward(loss)
        return sha(params.grads)

    out = {"prepared_data": prepared_digest(prepared), "batch_grads": batch_grads("N+C+E"),
           **{f"batch_grads.{mode}": batch_grads(mode) for mode in ("N+C", "N+E")}}
    trained = model.train(prepared.train, prepared.val, hp, params, emb).params
    out["trained_values"] = sha(trained.values)
    for mode in model.MODES:
        out[f"predict.{mode}"] = sha(*(a for probs, r in model.predict(
            prepared.test, trained, emb, hp, mode)
            for a in (probs, r.news_entity, r.entity, r.news_comment, r.comment)))
    out["run_sample"] = sha(*(model.run_sample(s, trained, emb, hp)[0].data
                              for s in prepared.test))
    return out


def _coaid_width_corpus(out: Path, seed: int) -> dict:
    """A small ``gen.paper_corpus`` whose embedding rows are each repeated
    three times, so its vectors have the coaid profile's 300 dimensions."""
    from perfbench import gen

    paths = gen.paper_corpus(out, seed, n_train=4, n_val=2, n_test=2)
    rows = paths["embeddings"].read_text(encoding="utf-8").splitlines()
    paths["embeddings"].write_text("".join(
        f"{token} {vector} {vector} {vector}\n"
        for token, vector in (row.split(" ", 1) for row in rows)), encoding="utf-8")
    return paths


def _benchmark_digests(work: Path) -> dict:
    from perfbench import gen, workloads

    synth, paper = workloads.WORKLOADS["train-synth"], workloads.WORKLOADS["train-paper"]
    inputs = {"train-synth": (synth.hp, 2, synth.corpus),
              "train-paper": (paper.hp, 1, lambda out, seed: gen.paper_corpus(
                  out, seed, n_train=16, n_val=4, n_test=8)),
              "coaid-width": (replace(model.HyperParams.profile("coaid"), batch_size=2), 1,
                              _coaid_width_corpus)}
    out = {}
    for name, (hp, epochs, corpus) in inputs.items():
        hp = replace(hp, max_epochs=epochs, patience=epochs)
        paths = {k: str(v) for k, v in corpus(work / name, 1).items()}
        config = cli.RunConfig(train=paths["train"], val=paths["val"], test=paths["test"],
                               entities=paths["entities"], embeddings=paths["embeddings"], hp=hp)
        prepared = cli.prepare_data(config, hp)
        digests = model_digests(prepared, hp, model.ModelParams.create(hp))
        out.update((f"{name}.{key}", value) for key, value in digests.items())
    return out


def _artifact_digests(work: Path) -> dict:
    corpus, run = work / "corpus", work / "run"
    commands = [["synth", "--out", str(corpus), "--size", "200", "--seed", "3"],
                ["train", "--config", str(corpus / "config.cfg"), "--out", str(run),
                 "--set", "hp.max_epochs=3"]]
    commands += [["explain", "--config", str(corpus / "config.cfg"), "--checkpoint",
                  str(run / "checkpoint.bin"), "--split", "full", "--mode", mode,
                  "--out", str(work / f"explain-{mode}")] for mode in model.MODES]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            if cli.main(argv) != 0:
                raise RuntimeError(f"dualcan {' '.join(argv)} failed")
    return {f"cli.{path.relative_to(work)}": hashlib.sha256(
        path.read_bytes().replace(str(work).encode(), b"<work>")).hexdigest()
        for path in sorted(work.rglob("*")) if path.is_file()}


def collect() -> dict:
    """Every digest of this checkout, by name."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "cli").mkdir()
        return {**_benchmark_digests(Path(tmp)), **_artifact_digests(Path(tmp) / "cli")}


def digests_at(rev: str) -> dict:
    """:func:`collect` run by this script on the files committed at ``rev``."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(CHECKOUT), "archive", rev],
                                 check=True, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        script = Path(tmp) / "tests" / "digest.py"
        script.parent.mkdir(exist_ok=True)
        script.write_bytes(Path(__file__).read_bytes())
        printed = subprocess.run([sys.executable, str(script)], check=True,
                                 stdout=subprocess.PIPE, text=True).stdout
    return {name: value for value, name in (line.split() for line in printed.splitlines())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="also compute the digests at git revision REV and compare")
    args = parser.parse_args(argv)
    if Path(model.__file__).resolve().parent != CHECKOUT / "src" / "dualcan":
        raise SystemExit(f"digest: imported dualcan from {model.__file__}, not {CHECKOUT}/src")
    mine = collect()
    for name, value in mine.items():
        print(f"{value}  {name}")
    if not args.against:
        return 0
    theirs = digests_at(args.against)
    differ = sorted(name for name in mine.keys() | theirs.keys()
                    if mine.get(name) != theirs.get(name))
    for name in differ:
        print(f"differs at {args.against}: {name}")
    print(f"{len(differ)} of {len(mine.keys() | theirs.keys())} digests differ "
          f"at {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
