"""Deterministic benchmark inputs, generated from a seed.

Two corpus shapes are written as the files the program reads (JSONL train,
val and test splits, an entity snapshot and a text embedding file):

* ``synthetic_corpus``: the package's own ``gen_synthetic`` corpus at the
  synthetic profile, re-split by the benchmark, with a fixed share of the
  training labels flipped so that the training loss settles on a noise
  floor instead of decaying towards zero (a last-epoch loss near zero would
  differ by orders of magnitude between seeds).
* ``paper_corpus``: a gossipcop-shaped corpus written here: about 20 news
  sentences of about 25 words, about 20 comments, entity descriptions filled
  from the snapshot, and a d=100 embedding file that also lists tokens the
  corpus never uses, as a pretrained file would. Fake and real documents
  draw part of their words from two class lexicons whose vectors are offset
  along a fixed direction, so the label is learnable from any source.

Evaluation splits alternate labels, so every evaluation batch holds both
classes (PR-AUC is undefined for a batch without a positive label).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from dualcan import data


def _write_jsonl(path: Path, records: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _alternate_labels(records: list) -> list:
    """Alternate fake and real records (extras of the larger class go last)."""
    fake = [r for r in records if r["label"] == 1]
    real = [r for r in records if r["label"] == 0]
    out = []
    for i in range(max(len(fake), len(real))):
        out.extend(group[i] for group in (fake, real) if i < len(group))
    return out


def _split(records: list, rng, n_train: int, n_val: int) -> tuple:
    """Stratified split into train/val/test of the given sizes."""
    by_label = {0: [], 1: []}
    for i in rng.permutation(len(records)):
        by_label[records[i]["label"]].append(records[i])
    train, val, test = [], [], []
    for group in by_label.values():
        a = n_train * len(group) // len(records)
        b = a + n_val * len(group) // len(records)
        train += group[:a]
        val += group[a:b]
        test += group[b:]
    order = rng.permutation(len(train))
    return [train[i] for i in order], _alternate_labels(val), _alternate_labels(test)


def _write_splits(out: Path, train: list, val: list, test: list) -> dict:
    paths = {}
    for name, records in (("train", train), ("val", val), ("test", test)):
        paths[name] = out / f"{name}.jsonl"
        _write_jsonl(paths[name], records)
    return paths


def synthetic_corpus(out_dir, seed: int, size: int, n_train: int, n_val: int,
                     label_noise: float) -> dict:
    """``gen_synthetic`` corpus split n_train/n_val/rest, with ``label_noise``
    of the training labels flipped. Returns the file paths by role."""
    out = Path(out_dir)
    raw = data.gen_synthetic(data.SyntheticSpec(size=size, seed=seed), out / "raw")
    with open(raw["dataset"], "r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    train, val, test = _split(records, rng, n_train, n_val)
    dups = rng.choice(len(train), size=int(round(label_noise * len(train))), replace=False)
    for i in dups:
        train.append(dict(train[i], id=train[i]["id"] + "x", label=1 - train[i]["label"]))
    paths = _write_splits(out, train, val, test)
    paths["entities"] = Path(raw["entities"])
    paths["embeddings"] = Path(raw["embeddings"])
    return paths


# ---------------------------------------------------------------------------
# paper-shaped corpus
# ---------------------------------------------------------------------------

PAPER_DIM = 100
_SHARED_WORDS = 4000      # tokens both classes draw from
_CLASS_WORDS = 300        # tokens per class lexicon
_UNUSED_WORDS = 6000      # embedding-file tokens the corpus never uses
_CLASS_SHARE = 0.3        # share of a document's words drawn from its class lexicon
_ENTITIES = 400           # snapshot size
_DIRECTION_SEED = 7919    # fixed, so the class direction is the same for every seed


def _zipf_pick(rng, n: int, count: int) -> np.ndarray:
    # rank-frequency close to natural text: p(rank) ~ 1 / (rank + 10)
    weights = 1.0 / (np.arange(n) + 10.0)
    return rng.choice(n, size=count, p=weights / weights.sum())


def _paper_sentence(rng, label: int, lo: int, hi: int) -> str:
    n = int(rng.integers(lo, hi + 1))
    shared = _zipf_pick(rng, _SHARED_WORDS, n)
    from_class = rng.uniform(size=n) < _CLASS_SHARE
    lexicon = "f" if label == 1 else "r"
    words = [f"{lexicon}{int(rng.integers(_CLASS_WORDS))}" if c else f"w{s}"
             for s, c in zip(shared, from_class)]
    return " ".join(words) + "."


def _neutral_sentence(rng, lo: int, hi: int) -> str:
    n = int(rng.integers(lo, hi + 1))
    return " ".join(f"w{s}" for s in _zipf_pick(rng, _SHARED_WORDS, n)) + "."


def paper_corpus(out_dir, seed: int, n_train: int, n_val: int, n_test: int,
                 news_sentences: int = 20, comments: int = 20, entities: int = 5,
                 words: int = 25) -> dict:
    """Gossipcop-shaped corpus; sentence counts vary by up to 2 around the
    given means and sentence lengths by up to 40% around ``words``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 202]))
    lo, hi = int(words * 0.6), int(words * 1.4)

    snapshot = {f"ent{i}": " ".join(_neutral_sentence(rng, lo, hi) for _ in range(4))
                for i in range(_ENTITIES)}
    size = n_train + n_val + n_test
    labels = [i % 2 for i in range(size)]
    records = []
    for idx in range(size):
        label = labels[idx]
        n_news = news_sentences + int(rng.integers(-2, 3))
        n_comments = comments + int(rng.integers(-2, 3))
        names = rng.choice(_ENTITIES, size=entities, replace=False)
        records.append({
            "id": f"paper{idx:04d}",
            "label": label,
            "news": " ".join(_paper_sentence(rng, label, lo, hi) for _ in range(n_news)),
            "comments": [_paper_sentence(rng, label, lo, hi) for _ in range(n_comments)],
            "entities": [{"name": f"ent{int(i)}", "description": ""} for i in names],
        })
    train, val, test = _split(records, rng, n_train, n_val)
    paths = _write_splits(out, train, val, test)

    paths["entities"] = out / "entities.jsonl"
    _write_jsonl(paths["entities"], [{"name": k, "description": v}
                                     for k, v in sorted(snapshot.items())])

    # class lexicons sit at +/- a fixed direction from random vectors
    direction = np.random.default_rng(_DIRECTION_SEED).standard_normal(PAPER_DIM)
    direction /= np.linalg.norm(direction)
    emb_rng = np.random.default_rng(np.random.SeedSequence([seed, 303]))
    tokens = [f"w{i}" for i in range(_SHARED_WORDS)]
    tokens += [f"f{i}" for i in range(_CLASS_WORDS)] + [f"r{i}" for i in range(_CLASS_WORDS)]
    tokens += [f"u{i}" for i in range(_UNUSED_WORDS)] + ["."]
    vectors = emb_rng.uniform(-0.5, 0.5, size=(len(tokens), PAPER_DIM))
    for row, token in enumerate(tokens):
        if token[0] in "fr" and token[1:].isdigit():
            vectors[row] += (1.5 if token[0] == "f" else -1.5) * direction
    paths["embeddings"] = out / "embeddings.txt"
    with open(paths["embeddings"], "w", encoding="utf-8") as fh:
        for token, vec in zip(tokens, vectors):
            fh.write(token + " " + " ".join(f"{v:.6f}" for v in vec) + "\n")
    return paths


def input_stats(samples: list) -> dict:
    """Word fill (real word slots over all word slots of the padded arrays)
    and mean real sentences per sample and source."""
    real = slots = 0
    sentences = {"news": 0, "entity": 0, "comment": 0}
    for s in samples:
        for side in sentences:
            word_mask = getattr(s, f"{side}_word_mask")
            real += int(word_mask.sum())
            slots += word_mask.size
            sentences[side] += int(getattr(s, f"{side}_sent_mask").sum())
    n = max(len(samples), 1)
    stats = {"input.word_fill": real / slots if slots else 0.0}
    for side, count in sentences.items():
        stats[f"input.{side}_sentences"] = count / n
    return stats
