"""The three benchmark workloads and the run that measures one of them.

A run is a closed loop in one process:

1. inputs are generated from the seed (not timed);
2. set-up, repeated ``SETUPS`` times: ``cli.prepare_data`` plus
   ``ModelParams.create`` (train workloads), or plus ``load_checkpoint`` and
   ``restore_params`` of the trained checkpoint (eval workload);
3. warm-up: one train step, two eval batches and one explain (not timed);
4. the timed run of ``seconds``: a first ``model.train`` call of
   ``max_epochs``, whose result is saved as the checkpoint and reloaded; then
   cycles of fixed work until the time is up. A cycle is one train unit
   (one epoch over a slice of the train split), one pass of eval batches
   over the test split and one pass of explained samples;
5. correctness gates (not timed).

Every timed unit (a set-up, a train unit, an eval batch, an explained
sample, a heatmap export) is followed by the calibration kernel of
``calibrate.py``, and its time is scaled to the reference host by the
kernel's speed in the same stretch: a set-up by the kernel run after it, a
phase of a cycle by the kernel runs after its units. The timing metrics are
medians of scaled times, except ``train_samples_per_s``, which sums them
over the train units (see README.md).
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from dualcan import cli, interpret, model

from . import calibrate, gen
from .spans import Tracer

SETUPS = 11
CALIBRATION_SHARE = 0.25     # kernel time after units, as a share of their time
CALIBRATION_QUANTUM_S = 0.05  # shorter units are gathered up to this before the kernel runs
ORACLE_SAMPLES = 3
ORACLE_TOLERANCE = 1e-12     # acceptance criterion 02
MIN_TEST_ACCURACY = 0.95     # acceptance criterion 07


@dataclass(frozen=True)
class Workload:
    corpus: object             # (out_dir, seed) -> dict of input paths
    hp: model.HyperParams
    main: str                  # "train", or "eval": set-up then restores the checkpoint
    train_unit: int            # training samples in the train unit of a cycle
    eval_modes: tuple          # an eval pass covers the test split under each mode
    explain_samples: int       # an explain pass covers this many test samples
    oracle: bool               # compare logits with tests/oracles.model_forward_loops
    min_test_accuracy: float | None
    calibration: calibrate.Shape


# the seed varies the inputs only: initial weights and shuffle order stay fixed
_SYNTH_HP = replace(model.HyperParams.profile("synthetic"), max_epochs=6, patience=6, seed=0)
_PAPER_HP = replace(model.HyperParams.profile("gossipcop"), max_news_sentences=24,
                    max_entity_sentences=24, max_comment_sentences=24, batch_size=2,
                    max_epochs=1, patience=1, seed=0)

WORKLOADS = {
    "train-synth": Workload(
        corpus=lambda out, seed: gen.synthetic_corpus(out, seed, size=280, n_train=160,
                                                      n_val=20, label_noise=0.2),
        # 8 epochs: after 6, one seed in about 30 stayed below the accuracy floor
        hp=replace(_SYNTH_HP, max_epochs=8, patience=8), main="train", train_unit=48,
        eval_modes=("N+C+E",), explain_samples=20, oracle=True,
        min_test_accuracy=MIN_TEST_ACCURACY, calibration=calibrate.SYNTHETIC),
    "train-paper": Workload(
        corpus=lambda out, seed: gen.paper_corpus(out, seed, n_train=8, n_val=4, n_test=8),
        hp=_PAPER_HP, main="train", train_unit=2, eval_modes=("N+C+E",),
        explain_samples=4, oracle=False, min_test_accuracy=None,
        calibration=calibrate.PAPER),
    "eval-synth": Workload(
        corpus=lambda out, seed: gen.synthetic_corpus(out, seed, size=260, n_train=120,
                                                      n_val=20, label_noise=0.2),
        hp=_SYNTH_HP, main="eval", train_unit=24, eval_modes=("N+C+E", "N+C", "N+E"),
        explain_samples=20, oracle=True, min_test_accuracy=None,
        calibration=calibrate.SYNTHETIC),
}


class Checks:
    """Counts attempted and failed operations; keeps the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str, ops: int = 1) -> None:
        self.attempted += ops
        if not ok:
            self.failed += ops
            if len(self.problems) < 20:
                self.problems.append(what)


@dataclass
class Cycle:
    """Timings of one cycle: (seconds, samples) of its train unit, the
    seconds of each eval batch, (test index, seconds) of each explained
    sample with its share of the pass's heatmaps; and the host's speed
    sampled after the units of each phase."""
    traced: bool
    speed: dict
    train: tuple = (0.0, 0)
    eval_batches: list = field(default_factory=list)
    eval_samples: int = 0
    explains: list = field(default_factory=list)

    def scaled(self, phase: str, seconds: float) -> float:
        """``seconds`` of the phase, as on the reference host."""
        return seconds * self.speed[phase].scale()


def _config(paths: dict, hp) -> cli.RunConfig:
    return cli.RunConfig(train=str(paths["train"]), val=str(paths["val"]),
                         test=str(paths["test"]), entities=str(paths["entities"]),
                         embeddings=str(paths["embeddings"]), hp=hp)


def _finite_report(report: dict) -> bool:
    return all(v is None or math.isfinite(v) for v in report.values()) \
        and 0.0 <= report["accuracy"] <= 1.0


def _explain_ok(entry: dict, attn) -> bool:
    """Probabilities sum to 1; attention sums to 1 over real sentences and
    is exactly 0 on padding."""
    probs = entry["probabilities"]
    if abs(probs["real"] + probs["fake"] - 1.0) > 1e-9:
        return False
    for weights, mask in ((attn.news_entity, attn.news_mask), (attn.entity, attn.entity_mask),
                          (attn.news_comment, attn.news_mask), (attn.comment, attn.comment_mask)):
        if mask.any() and (np.any(weights[~mask] != 0.0) or abs(weights.sum() - 1.0) > 1e-9):
            return False
    return True


class Run:
    """One measured run of one workload."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, work_dir: Path):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer(f"{name}-seed{seed}") if trace else None
        self.work = work_dir
        self.checks = Checks()
        self.calibrator = calibrate.Calibrator(self.w.calibration, CALIBRATION_SHARE,
                                              CALIBRATION_QUANTUM_S)
        self.counts: dict = {}
        self.values: dict = {}
        self.inputs: dict = {}
        self.cycles: list[Cycle] = []
        self._eval_reports: dict = {}
        self._explain_dirs = 0

    # -- units of work -----------------------------------------------------

    @contextmanager
    def _tracing(self, on: bool):
        """Install the tracer around some work (traced runs only)."""
        active = self.tracer is not None and on
        if active:
            self.tracer.install()
        try:
            yield
        finally:
            if active:
                self.tracer.uninstall()

    def _setups(self, paths: dict, checkpoint: Path | None, count: int):
        """``count`` set-ups from the generated files to a ready model.
        Returns (seconds of each on the reference host, prepared data and
        params of the last)."""
        hp = self.w.hp
        times = []
        for _ in range(count):
            start = time.perf_counter()
            prepared = cli.prepare_data(_config(paths, hp), hp)
            if checkpoint is None:
                params = model.ModelParams.create(hp)
            else:
                saved_hp, values = model.load_checkpoint(checkpoint)
                params = model.restore_params(saved_hp, values)
            took = time.perf_counter() - start
            speed = self.calibrator.speed()
            self.calibrator.after(took, speed)
            self.calibrator.finish(speed)
            times.append(took * speed.scale())
        return times, prepared, params

    def _train_call(self, train: list, val: list, embeddings, params, init: dict,
                    epochs: int, key: str):
        """One model.train call of ``epochs`` from the initial parameters; its
        losses must repeat those of the first call under the same ``key``.
        Returns (result, seconds)."""
        hp = replace(self.w.hp, max_epochs=epochs, patience=epochs)
        params.load_values(init)
        start = time.perf_counter()
        result = model.train(train, val, hp, params, embeddings)
        took = time.perf_counter() - start
        history = [h.train_loss for h in result.history]
        first = self.values.setdefault(key, history)
        self.checks.record(all(math.isfinite(v) for v in history) and history == first,
                           f"train losses {history} (first call {first})",
                           math.ceil(len(train) / hp.batch_size) * epochs)
        return result, took

    def _eval_batch(self, mode: str, start: int, chunk: list, prepared, params) -> float:
        """One model.evaluate call; a repeated batch must reproduce its first
        report exactly. Returns its seconds."""
        t0 = time.perf_counter()
        report = model.evaluate(chunk, params, prepared.embeddings, self.w.hp, mode)
        took = time.perf_counter() - t0
        expected = self._eval_reports.setdefault((mode, start), report)
        self.checks.record(_finite_report(report) and report == expected,
                           f"eval batch {(mode, start)} report {report}", len(chunk))
        return took

    def _explain(self, sample, prepared, params):
        """One sample through the batch-1 path and its report entry.
        Returns (seconds, entry)."""
        t0 = time.perf_counter()
        logits, attn = model.run_sample(sample, params, prepared.embeddings, self.w.hp)
        probs = model.predict_probs(logits)
        entry = interpret.report_entry(sample.doc_id, sample.label, probs, attn)
        took = time.perf_counter() - t0
        self.checks.record(_explain_ok(entry, attn), f"explain {sample.doc_id}")
        return took, entry

    def _export(self, entries: list, out_dir: Path) -> float:
        """The heatmaps of a pass's entries, written once into a new
        directory as ``dualcan explain`` does. Returns its seconds."""
        self._explain_dirs += 1
        out_dir = out_dir / str(self._explain_dirs)
        out_dir.mkdir()
        t0 = time.perf_counter()
        written = interpret.export_heatmaps(out_dir, entries)
        took = time.perf_counter() - t0
        self.checks.record(len(written) == 4 and all(Path(f).stat().st_size for f in written),
                           f"heatmaps in {out_dir}")
        return took

    def _cycle(self, position: int, traced: bool, prepared, params, init: dict, ready,
               out_dir: Path) -> Cycle:
        """One train unit, one eval pass and one explain pass. The train unit
        and the explained samples move on through their splits with
        ``position``."""
        w = self.w
        units = range(0, len(prepared.train), w.train_unit)
        unit = units[position % len(units)]
        unit_train = prepared.train[unit:unit + w.train_unit]
        # the validation slice keeps the split's val/train ratio
        unit_val = prepared.val[:max(1, round(w.train_unit * len(prepared.val)
                                              / len(prepared.train)))]
        test = prepared.test
        explained = [(position * w.explain_samples + k) % len(test)
                     for k in range(w.explain_samples)]
        cal = self.calibrator
        cycle = Cycle(traced, {phase: cal.speed() for phase in ("train", "eval", "explain")})
        with self._tracing(traced):
            _, took = self._train_call(unit_train, unit_val, prepared.embeddings, params,
                                       init, 1, f"unit_losses.{unit}")
            cal.after(took, cycle.speed["train"])
            cycle.train = (took, len(unit_train))
            size = w.hp.batch_size
            for mode in w.eval_modes:
                for start in range(0, len(test), size):
                    chunk = test[start:start + size]
                    took = self._eval_batch(mode, start, chunk, prepared, ready)
                    cal.after(took, cycle.speed["eval"])
                    cycle.eval_batches.append(took)
                    cycle.eval_samples += len(chunk)
            entries, times = [], []
            for index in explained:
                took, entry = self._explain(test[index], prepared, ready)
                cal.after(took, cycle.speed["explain"])
                entries.append(entry)
                times.append(took)
            took = self._export(entries, out_dir)
            cal.after(took, cycle.speed["explain"])
            # each sample carries an equal share of the pass's heatmaps
            cycle.explains = [(index, t + took / len(times)) for index, t in zip(explained, times)]
        for speed in cycle.speed.values():
            cal.finish(speed)
        return cycle

    def _warm_up(self, prepared, params, init: dict, out_dir: Path) -> None:
        hp = replace(self.w.hp, max_epochs=1, patience=1)
        model.train(prepared.train[:hp.batch_size], prepared.val[:2], hp, params,
                    prepared.embeddings)
        params.load_values(init)
        model.evaluate(prepared.test[:hp.batch_size * 2], params, prepared.embeddings, hp)
        logits, attn = model.run_sample(prepared.test[0], params, prepared.embeddings, hp)
        interpret.export_heatmaps(out_dir, [interpret.report_entry(
            "warmup", 0, model.predict_probs(logits), attn)])

    def _oracle(self, prepared, params) -> None:
        """Logits of the batch-1 path (``run_sample``) and of the batched path
        (one ``encode_samples`` call over a batch, then ``forward``), under
        every eval mode, against the step-by-step oracle."""
        from oracles import model_forward_loops  # tests/oracles.py
        hp, emb = self.w.hp, prepared.embeddings
        worst = 0.0

        def check(logits, sample, path):
            nonlocal worst
            expected, _ = model_forward_loops(sample, params, emb, hp)
            err = float(np.abs(logits.data.reshape(-1) - expected).max())
            worst = max(worst, err)
            self.checks.record(err <= ORACLE_TOLERANCE,
                               f"{path} logits differ from the oracle by {err:.3g} "
                               f"on {sample.doc_id}")

        for sample in prepared.test[:ORACLE_SAMPLES]:
            check(model.run_sample(sample, params, emb, hp)[0], sample, "run_sample")
        for mode in self.w.eval_modes:
            batch = [model.ablate(s, mode) for s in prepared.test[:hp.batch_size]]
            for sample, enc in zip(batch, model.encode_samples(batch, params, emb, hp)):
                check(model.forward(enc, params)[0], sample, f"batched {mode}")
        self.values["oracle_max_abs_err"] = worst

    # -- the run -----------------------------------------------------------

    def execute(self) -> None:
        w, hp = self.w, self.w.hp
        paths = w.corpus(self.work / "inputs", self.seed)
        heatmaps = self.work / "explain"
        heatmaps.mkdir(parents=True, exist_ok=True)
        checkpoint = self.work / "checkpoint.bin"
        fresh = w.main == "train"  # set-up creates the model; else restores the checkpoint

        with self._tracing(True):
            setup_times, prepared, params = self._setups(paths, None, SETUPS if fresh else 1)
        init = params.copy_values()
        self.inputs = gen.input_stats(prepared.train + prepared.val + prepared.test)
        self.inputs.update(samples_train=len(prepared.train), samples_val=len(prepared.val),
                           samples_test=len(prepared.test), vocab=len(prepared.vocab))
        self._warm_up(prepared, params, init, heatmaps)

        end = time.perf_counter() + self.seconds
        result, took = self._train_call(prepared.train, prepared.val, prepared.embeddings,
                                        params, init, hp.max_epochs, "train_losses")
        self.values["first_train_s"] = took
        saved = result.params.copy_values()
        with self._tracing(True):
            model.save_checkpoint(checkpoint, hp, result.params)
            if fresh:
                _, values = model.load_checkpoint(checkpoint)
                ready = model.restore_params(hp, values)
            else:
                setup_times, prepared, ready = self._setups(paths, checkpoint, SETUPS)
        loaded = ready.copy_values()
        self.checks.record(all(np.array_equal(saved[k], loaded[k]) for k in saved),
                           "checkpoint round trip is not bit-exact")

        # a traced run alternates untraced and traced cycles, so it needs two
        least = 2 if self.tracer is not None else 1
        while len(self.cycles) < least or time.perf_counter() < end:
            # an untraced cycle and the traced one after it do the same work
            position, traced = divmod(len(self.cycles), least)
            self.cycles.append(self._cycle(position, bool(traced), prepared, params, init,
                                           ready, heatmaps))
        self._summarise(setup_times)

        # correctness gates, outside the timed run
        test = model.evaluate(prepared.test, ready, prepared.embeddings, hp)
        self.values["test_f1_macro"] = test["f1_macro"]
        self.values["test_accuracy"] = test["accuracy"]
        if w.min_test_accuracy is not None:
            self.checks.record(test["accuracy"] >= w.min_test_accuracy,
                               f"test accuracy {test['accuracy']} < {w.min_test_accuracy}")
        if w.oracle:
            self._oracle(prepared, ready)
        self.values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _summarise(self, setup_times: list) -> None:
        v, c = self.values, self.counts
        plain = [cy for cy in self.cycles if not cy.traced]

        def train_s(cy):
            return cy.scaled("train", cy.train[0])

        def eval_s(cy):
            return cy.scaled("eval", sum(cy.eval_batches))

        v["setup_times"] = setup_times
        v["setup_s"] = statistics.median(setup_times)
        v["final_train_loss"] = v["train_losses"][-1]
        # the train units take turns over the split: samples over time, summed
        v["train_samples_per_s"] = sum(cy.train[1] for cy in plain) / sum(map(train_s, plain))
        v["eval_samples_per_s"] = statistics.median(cy.eval_samples / eval_s(cy) for cy in plain)
        # each batch's (sample's) median time over the cycles, then the
        # percentile over the batches (explained samples) of the split
        batch_ms = [1e3 * statistics.median(ts) for ts in zip(
            *([cy.scaled("eval", t) for t in cy.eval_batches] for cy in plain))]
        by_sample: dict = {}
        for cy in plain:
            for index, t in cy.explains:
                by_sample.setdefault(index, []).append(cy.scaled("explain", t))
        explain_ms = [1e3 * statistics.median(ts) for ts in by_sample.values()]
        for q in (50, 90):
            v[f"eval_batch_ms.p{q}"] = float(np.percentile(batch_ms, q))
            v[f"explain_ms.p{q}"] = float(np.percentile(explain_ms, q))
        # the host's speed as seen by the kernel, and the unscaled figures
        for phase in ("train", "eval", "explain"):
            v[f"host_scale.{phase}"] = statistics.median(cy.speed[phase].scale() for cy in plain)
        v["unscaled.train_samples_per_s"] = sum(cy.train[1] for cy in plain) / sum(
            cy.train[0] for cy in plain)
        v["unscaled.eval_samples_per_s"] = statistics.median(
            cy.eval_samples / sum(cy.eval_batches) for cy in plain)
        if self.tracer is not None:
            # time per sample of the main phase, traced over untraced cycles
            def per_sample(cycles):
                if self.w.main == "train":
                    return sum(map(train_s, cycles)) / sum(cy.train[1] for cy in cycles)
                return statistics.median(eval_s(cy) / cy.eval_samples for cy in cycles)
            traced = [cy for cy in self.cycles if cy.traced]
            v["overhead"] = per_sample(traced) / per_sample(plain) - 1.0
        c.update(setups=len(setup_times), cycles=len(self.cycles),
                 train_samples=sum(cy.train[1] for cy in self.cycles),
                 eval_batches=sum(len(cy.eval_batches) for cy in self.cycles),
                 explained=sum(len(cy.explains) for cy in self.cycles))

    # -- per-layer metrics from the spans ------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer numbers of a traced run (see README.md for each unit)."""
        t = self.tracer
        run = t.self_times()
        main = "model.train" if self.w.main == "train" else "model.evaluate"
        win = t.self_times(root=main)
        in_main = t.roots_of(main)
        batches = len(win["model.encode_samples"])

        def per_call_ms(name):
            spans = run.get(name)
            return 1e3 * statistics.median(d for d, _ in spans) if spans else 0.0

        def in_main_phase(counter):
            return sum(v for i, v in t.counters[counter] if i in in_main)

        out = {
            "autodiff.tape_nodes": float(statistics.median(
                v for _, v in t.counters["autodiff.tape_nodes"])),
            "autodiff.Graph.backward.ms": per_call_ms("autodiff.Graph.backward"),
            "layers.gru_sequence.useful_share": in_main_phase("layers.gru_sequence.useful")
            / in_main_phase("layers.gru_sequence.steps"),
        }
        trained = t.self_times(root="model.train")
        for name in ("layers.gru_sequence", "layers.bigru", "model.encode_samples",
                     "model.forward", "layers.co_attention", "model.cross_entropy"):
            spans, per = win.get(name), batches
            if not spans:  # cross entropy on the eval workload: from its train units
                spans, per = trained[name], len(trained["model.encode_samples"])
            out[f"{name}.self_ms"] = 1e3 * sum(s for _, s in spans) / per
        for name in ("layers.gru_sequence", "layers.bigru"):
            out[f"{name}.calls"] = len(win.get(name, [])) / batches
        out["model.evaluate.self_ms"] = 1e3 * statistics.median(
            s for _, s in run["model.evaluate"])
        for name in ("model.clip_gradients", "model.adam_step", "metrics.metrics_report",
                     "model.save_checkpoint", "model.load_checkpoint",
                     "interpret.report_entry", "interpret.export_heatmaps"):
            out[f"{name}.ms"] = per_call_ms(name)
        setups = len(run["cli.prepare_data"])
        for name in ("data.read_dataset", "data.resolve_documents", "data.Vocabulary.build",
                     "data.load_embeddings", "data.encode_document"):
            out[f"{name}.s"] = sum(d for d, _ in run.get(name, [])) / setups
        train = run["model.train"]
        out["model.train.self_share"] = sum(s for _, s in train) / sum(d for d, _ in train)
        out["trace.overhead_share"] = self.values["overhead"]
        out.update({k: v for k, v in self.inputs.items() if k.startswith("input.")})
        return out
