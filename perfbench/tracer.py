"""Outside-in span tracer for the ``pal`` layers.

Nothing in ``src/pal`` is instrumented. :func:`installed` replaces the names
that callers look up at call time (for example ``pal.training.backward``,
which ``train_main`` resolves from its own module globals) with wrappers that
record one span per call, and restores every original on exit. A wrapper on
``pal.core.backward`` would record nothing, because ``pal.training`` imported
the function by name.

A span is ``[name, start, end, parent_index, run_id]``. Spans are kept in
memory for the whole run and written out once, at the end. A span's self
time is its duration minus the durations of its direct children; one caller
in one thread gives properly nested spans, so the children never overlap.

Counters that cost time (the graph walk behind ``core.graph_nodes_per_step``,
checkpoint digests behind ``training.redundant_stage_share``) live only in
the hooks below, so untraced runs never pay for them.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import time
from collections import defaultdict

import numpy as np

_now = time.perf_counter


class Tracer:
    """Span list, per-run counters and per-run timing samples."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = "setup"
        self.counters: dict[str, defaultdict] = defaultdict(lambda: defaultdict(float))
        self.samples: dict[str, defaultdict] = defaultdict(lambda: defaultdict(list))
        self.stage_digests: dict[str, set] = defaultdict(set)
        self.eval_depth = 0
        self.last_batch_t: float | None = None
        self.last_episode_t: float | None = None

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[self.run_id][name] += value

    def sample(self, name: str, value: float) -> None:
        self.samples[self.run_id][name].append(value)

    def wrap(self, name: str, fn, on_enter=None, on_exit=None):
        """Return ``fn`` wrapped in a span; hooks run outside the span."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(self, args, kwargs)
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            spans.append(record)
            stack.append(index)
            record[1] = _now()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = _now()
                stack.pop()
            if on_exit is not None:
                on_exit(self, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")

    def span_totals(self, run_id: str) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``s`` and ``self_s`` in one run."""
        child = defaultdict(float)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            if run != run_id:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[i]
        return out

    def parent_name(self, index: int) -> str | None:
        parent = self.spans[index][3]
        return self.spans[parent][0] if parent >= 0 else None


# ---- hooks -----------------------------------------------------------------

def _graph_nodes(tracer, args, kwargs):
    """Count the nodes ``backward`` will visit from this root."""
    root = args[0]
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    tracer.count("graph_nodes", len(seen))


def _batch_entry(tracer, args, kwargs):
    now = _now()
    if tracer.last_batch_t is not None:
        tracer.sample("step_ms", (now - tracer.last_batch_t) * 1e3)
    tracer.last_batch_t = now


def _anchor_entries(tracer, args, kwargs, anchors):
    tracer.count("anchor_entries", sum(len(p) for p in anchors.pos_indices)
                 + sum(len(n) for n in anchors.neg_indices))


def _encode_rows(tracer, args, kwargs):
    x = np.asarray(args[1])
    rows = 1 if x.ndim == 1 else x.shape[0]
    tracer.count("encode_rows", rows)
    if tracer.eval_depth:
        tracer.count("eval_rows", rows)


def _saved_bytes(tracer, args, kwargs, out):
    tracer.count("save_bytes", os.path.getsize(args[1]))


def _stage_enter(tracer, args, kwargs):
    tracer.last_batch_t = None


def _stage_exit(tracer, args, kwargs, result):
    """Digest the stage's output weights exactly as the checkpoint stores
    them (float32), and add up the skipped-positive counts of its metrics."""
    tracer.last_batch_t = None
    models = [result.encoder]
    if getattr(result, "classifier", None) is not None:
        models.append(result.classifier)
    h = hashlib.sha256()
    for model in models:
        for p in model.parameters():
            h.update(np.ascontiguousarray(p.data, dtype="<f4").tobytes())
    digest = h.hexdigest()
    seen = tracer.stage_digests[tracer.run_id]
    if digest in seen:
        tracer.count("redundant_stages")
    seen.add(digest)
    tracer.count("stage_runs")
    metrics = result.metrics if isinstance(result.metrics, dict) else {"main": result.metrics}
    for logger in metrics.values():
        tracer.count("skipped_instances",
                     sum(row["skipped_positive_instances"] for row in logger.rows))


def _evaluate_enter(tracer, args, kwargs):
    tracer.eval_depth += 1
    tracer.last_episode_t = None


def _evaluate_exit(tracer, args, kwargs, report):
    if tracer.last_episode_t is not None:
        tracer.sample("episode_ms", (_now() - tracer.last_episode_t) * 1e3)
    tracer.last_episode_t = None
    tracer.eval_depth -= 1


def _episode_entry(tracer, args, kwargs):
    now = _now()
    if tracer.last_episode_t is not None:
        tracer.sample("episode_ms", (now - tracer.last_episode_t) * 1e3)
    tracer.last_episode_t = now
    tracer.count("episodes")


class _FloorCounter(logging.Handler):
    """Adds up the entry counts of ``pal.losses`` KL-floor records."""

    def __init__(self, tracer):
        super().__init__(level=logging.DEBUG)
        self.tracer = tracer

    def emit(self, record):
        if record.getMessage().startswith("kl_loss: floored"):
            self.tracer.count("kl_floored_entries", float(record.args[0]))


def _targets():
    """``(owner, attribute, span name, on_enter, on_exit)`` for every name a
    caller resolves at call time. Each layer function is patched in the
    module that calls it, not only in the module that defines it."""
    import pal.ablation
    import pal.data
    import pal.encoders
    import pal.episodes
    import pal.losses
    import pal.training

    tr, ab = pal.training, pal.ablation
    return [
        (pal.data, "generate_synthetic", "data.generate_synthetic", None, None),
        (pal.data, "save_dataset", "data.save_dataset", None, None),
        (pal.data, "load_dataset", "data.load_dataset", None, None),
        (ab, "load_dataset", "data.load_dataset", None, None),
        (tr, "build_batch", "batching.build_batch", _batch_entry, None),
        (tr, "sample_anchor_sets", "batching.sample_anchor_sets", None, _anchor_entries),
        (pal.losses.ContrastiveBatchView, "supervised", "losses.view_supervised", None, None),
        (tr, "supct_loss", "losses.supct_loss", None, None),
        (tr, "feat_align_loss", "losses.feat_align_loss", None, None),
        (tr, "ce_loss_batch", "losses.ce_loss_batch", None, None),
        (tr, "logit_align_loss_batch", "losses.logit_align_loss_batch", None, None),
        (tr, "kl_loss_batch", "losses.kl_loss_batch", None, None),
        (tr, "backward", "core.backward", _graph_nodes, None),
        (pal.encoders.Encoder, "embed", "encoders.embed", None, None),
        (pal.encoders.Encoder, "encode", "encoders.encode", _encode_rows, None),
        (tr, "save_encoder", "encoders.save", None, _saved_bytes),
        (tr, "save_classifier", "encoders.save", None, _saved_bytes),
        (tr, "train_partner", "training.train_partner", _stage_enter, _stage_exit),
        (tr, "train_main", "training.train_main", _stage_enter, _stage_exit),
        (tr, "_train_mutual", "training.train_mutual", _stage_enter, _stage_exit),
        (tr.SGD, "step", "training.sgd_step", None, None),
        (tr, "train_variant", "training.train_variant", None, None),
        (ab, "train_variant", "training.train_variant", None, None),
        (pal.episodes, "evaluate", "episodes.evaluate", _evaluate_enter, _evaluate_exit),
        (ab, "evaluate", "episodes.evaluate", _evaluate_enter, _evaluate_exit),
        (pal.episodes, "sample_episode", "episodes.sample_episode", _episode_entry, None),
        (pal.episodes, "prototypes", "episodes.prototypes", None, None),
        (ab, "run_table", "ablation.run_table", None, None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every target for the duration of the block, then restore."""
    saved = []
    floor_logger = logging.getLogger("pal.losses")
    handler = _FloorCounter(tracer)
    old_level = floor_logger.level
    try:
        for owner, attr, name, on_enter, on_exit in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                patched = classmethod(tracer.wrap(name, original.__func__, on_enter, on_exit))
            else:
                patched = tracer.wrap(name, original, on_enter, on_exit)
            setattr(owner, attr, patched)
        floor_logger.addHandler(handler)
        floor_logger.setLevel(logging.DEBUG)
        yield tracer
    finally:
        floor_logger.setLevel(old_level)
        floor_logger.removeHandler(handler)
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# Per-layer metrics in output order, with units. Times are summed over one
# traced iteration (``.self_s`` excludes child spans, ``.s`` does not); the
# reported value is the median over traced iterations. ``.p50``/``.p95``/
# ``.p99`` pool the samples of all traced iterations, and ``.samples``
# states how many there were.
LAYER_UNITS = {
    "data.generate_synthetic.s": "s",
    "data.save_dataset.s": "s",
    "data.load_dataset.s": "s",
    "data.load_dataset.calls": "count",
    "batching.build_batch.self_s": "s",
    "batching.build_batch.calls": "count",
    "batching.sample_anchor_sets.self_s": "s",
    "batching.sample_anchor_sets.calls": "count",
    "batching.anchor_entries": "count",
    "losses.view_supervised.self_s": "s",
    "losses.supct_loss.self_s": "s",
    "losses.feat_align_loss.self_s": "s",
    "losses.ce_loss_batch.self_s": "s",
    "losses.logit_align_loss_batch.self_s": "s",
    "losses.kl_loss_batch.self_s": "s",
    "losses.skipped_instances": "count",
    "losses.kl_floored_entries": "count",
    "core.backward.self_s": "s",
    "core.backward.calls": "count",
    "core.graph_nodes_per_step": "count",
    "encoders.embed.self_s": "s",
    "encoders.embed.calls": "count",
    "encoders.encode.self_s": "s",
    "encoders.encode.calls": "count",
    "encoders.encode.rows": "rows",
    "encoders.save.s": "s",
    "encoders.save.bytes": "bytes",
    "training.stage_runs": "count",
    "training.redundant_stage_share": "fraction",
    "training.steps": "count",
    "training.sgd_step.self_s": "s",
    "training.step_ms.p50": "ms",
    "training.step_ms.p95": "ms",
    "training.step_ms.samples": "count",
    "episodes.evaluate.self_s": "s",
    "episodes.evaluate.calls": "count",
    "episodes.sample_episode.self_s": "s",
    "episodes.prototypes.self_s": "s",
    "episodes.episodes": "count",
    "episodes.rows_encoded_per_episode": "rows",
    "episodes.episode_ms.p50": "ms",
    "episodes.episode_ms.p99": "ms",
    "episodes.episode_ms.samples": "count",
    "ablation.run_table.self_s": "s",
    "ablation.rows": "count",
    "trace.iterations": "count",
    "trace.spans_per_iteration": "count",
    "trace.overhead_s": "s",
    "trace.overhead_share": "fraction",
}

# Functions called only while setting up, read from the traced set-up.
SETUP_METRICS = ("data.generate_synthetic.s", "data.save_dataset.s")
_SELF_TIMED = ("batching.build_batch", "batching.sample_anchor_sets", "losses.view_supervised",
               "losses.supct_loss", "losses.feat_align_loss", "losses.ce_loss_batch",
               "losses.logit_align_loss_batch", "losses.kl_loss_batch", "core.backward",
               "encoders.embed", "encoders.encode", "training.sgd_step", "episodes.evaluate",
               "episodes.sample_episode", "episodes.prototypes", "ablation.run_table")
_CALLS = ("data.load_dataset", "batching.build_batch", "batching.sample_anchor_sets",
          "core.backward", "encoders.embed", "encoders.encode", "episodes.evaluate")


def _run_values(tracer: Tracer, run_id: str) -> dict[str, float]:
    spans = tracer.span_totals(run_id)
    c = tracer.counters[run_id]

    def get(name, field):
        return spans[name][field] if name in spans else 0

    v = {f"{n}.self_s": get(n, "self_s") for n in _SELF_TIMED}
    v.update({f"{n}.calls": get(n, "calls") for n in _CALLS})
    for name in ("data.generate_synthetic", "data.save_dataset", "data.load_dataset",
                 "encoders.save"):
        v[f"{name}.s"] = get(name, "s")
    backward_calls = get("core.backward", "calls")
    stage_runs = c["stage_runs"]
    v.update({
        "batching.anchor_entries": c["anchor_entries"],
        "losses.skipped_instances": c["skipped_instances"],
        "losses.kl_floored_entries": c["kl_floored_entries"],
        "core.graph_nodes_per_step": c["graph_nodes"] / backward_calls if backward_calls else 0.0,
        "encoders.encode.rows": c["encode_rows"],
        "encoders.save.bytes": c["save_bytes"],
        "training.stage_runs": stage_runs,
        "training.redundant_stage_share": c["redundant_stages"] / stage_runs if stage_runs else 0.0,
        "training.steps": get("training.sgd_step", "calls"),
        "episodes.episodes": c["episodes"],
        "episodes.rows_encoded_per_episode":
            c["eval_rows"] / c["episodes"] if c["episodes"] else 0.0,
        "ablation.rows": sum(
            1 for i, s in enumerate(tracer.spans)
            if s[4] == run_id and s[0] == "training.train_variant"
            and tracer.parent_name(i) == "ablation.run_table"
        ),
        "trace.spans_per_iteration": sum(1 for s in tracer.spans if s[4] == run_id),
    })
    return v


def layer_metrics(tracer: Tracer, run_ids: list[str]) -> dict[str, float]:
    """Every per-layer metric except the overhead pair, which needs the
    untraced iterations too."""
    per_run = [_run_values(tracer, r) for r in run_ids]
    setup = _run_values(tracer, "setup")
    out = {}
    for name in LAYER_UNITS:
        if name in SETUP_METRICS:
            out[name] = float(setup[name])
        elif per_run and name in per_run[0]:
            out[name] = float(np.median([v[name] for v in per_run]))
    for key, pcts in (("step_ms", (50, 95)), ("episode_ms", (50, 99))):
        pooled = [x for r in run_ids for x in tracer.samples[r][key]]
        layer = "training" if key == "step_ms" else "episodes"
        for p in pcts:
            out[f"{layer}.{key}.p{p}"] = float(np.percentile(pooled, p)) if pooled else 0.0
        out[f"{layer}.{key}.samples"] = float(len(pooled))
    out["trace.iterations"] = float(len(run_ids))
    return out
