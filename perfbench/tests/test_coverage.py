"""Tracer coverage: each per-layer metric is non-zero exactly on the
workloads predicted to exercise it, wrappers sit where callers look names
up, and untraced runs install none.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import pal.ablation  # noqa: E402
import pal.batching  # noqa: E402
import pal.core  # noqa: E402
import pal.episodes  # noqa: E402
import pal.training  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

P, A, E = "pal_two_stage", "ablation_table5", "eval_sweep"
ALL = {P, A, E}
TRAINING = {P, A}

# Workloads on which each per-layer metric is predicted to be non-zero; it
# is predicted to be zero on the others.
NONZERO_ON = {
    "data.generate_synthetic.s": ALL,
    "data.save_dataset.s": ALL,
    "data.load_dataset.s": TRAINING,
    "data.load_dataset.calls": TRAINING,
    "batching.build_batch.self_s": TRAINING,
    "batching.build_batch.calls": TRAINING,
    "batching.sample_anchor_sets.self_s": TRAINING,
    "batching.sample_anchor_sets.calls": TRAINING,
    "batching.anchor_entries": TRAINING,
    "losses.view_supervised.self_s": TRAINING,
    "losses.supct_loss.self_s": TRAINING,
    "losses.feat_align_loss.self_s": TRAINING,
    "losses.ce_loss_batch.self_s": TRAINING,
    "losses.logit_align_loss_batch.self_s": TRAINING,
    "losses.kl_loss_batch.self_s": {A},
    "losses.skipped_instances": set(),  # every view has its other view as a positive
    "losses.kl_floored_entries": {A},
    "core.backward.self_s": TRAINING,
    "core.backward.calls": TRAINING,
    "core.graph_nodes_per_step": TRAINING,
    "encoders.embed.self_s": TRAINING,
    "encoders.embed.calls": TRAINING,
    "encoders.encode.self_s": ALL,
    "encoders.encode.calls": ALL,
    "encoders.encode.rows": ALL,
    "encoders.save.s": TRAINING,
    "encoders.save.bytes": TRAINING,
    "training.stage_runs": TRAINING,
    "training.redundant_stage_share": {A},  # five identical table-5 partners
    "training.steps": TRAINING,
    "training.sgd_step.self_s": TRAINING,
    "training.step_ms.p50": TRAINING,
    "training.step_ms.p95": TRAINING,
    "training.step_ms.samples": TRAINING,
    "episodes.evaluate.self_s": ALL,
    "episodes.evaluate.calls": ALL,
    "episodes.sample_episode.self_s": ALL,
    "episodes.prototypes.self_s": ALL,
    "episodes.episodes": ALL,
    "episodes.rows_encoded_per_episode": ALL,
    "episodes.episode_ms.p50": ALL,
    "episodes.episode_ms.p99": ALL,
    "episodes.episode_ms.samples": ALL,
    "ablation.run_table.self_s": {A},
    "ablation.rows": {A},
    "trace.iterations": ALL,
    "trace.spans_per_iteration": ALL,
}
# The overhead pair is a difference of two timings and may have either sign.
SIGNED = {"trace.overhead_s", "trace.overhead_share"}


def _traced_run(name, tmp_path):
    rec = run.run_workload(name, seed=3, seconds=0, trace=True, work=tmp_path,
                           sizes=workloads.TINY, setup_repeats=1)
    assert rec["ledger"].failures == []
    return run.layer_metrics(rec)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return {name: _traced_run(name, tmp_path_factory.mktemp(name)) for name in run.NAMES}


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_UNITS
    assert set(NONZERO_ON) | SIGNED == set(tracer.LAYER_UNITS)


@pytest.mark.parametrize("workload", run.NAMES)
def test_layer_metrics_nonzero_where_predicted(traced, workload):
    values = traced[workload]
    assert set(values) == set(tracer.LAYER_UNITS)
    wrong = {
        name: values[name]
        for name, where in NONZERO_ON.items()
        if (values[name] != 0) != (workload in where)
    }
    assert wrong == {}


def test_table5_stage_reuse_and_rows(traced):
    values = traced[A]
    assert values["training.stage_runs"] == 11
    assert values["training.redundant_stage_share"] == pytest.approx(4 / 11)
    assert values["ablation.rows"] == 6
    assert values["episodes.evaluate.calls"] == 12
    assert traced[P]["training.stage_runs"] == 2


def test_wrappers_patch_the_caller_namespace():
    targets = {(owner.__name__, attr) for owner, attr, *_ in tracer._targets()}
    assert {("pal.training", "sample_anchor_sets"), ("pal.training", "backward"),
            ("pal.ablation", "evaluate")} <= targets
    originals = (pal.batching.sample_anchor_sets, pal.core.backward, pal.episodes.evaluate)
    with tracer.installed(tracer.Tracer()):
        callers = (pal.training.sample_anchor_sets, pal.training.backward, pal.ablation.evaluate)
        assert all(c.__wrapped__ is o for c, o in zip(callers, originals))
    callers = (pal.training.sample_anchor_sets, pal.training.backward, pal.ablation.evaluate)
    assert all(c is o for c, o in zip(callers, originals))


def test_untraced_run_installs_no_wrapper(tmp_path, monkeypatch):
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in tracer._targets()]
    seen = []
    real_run = workloads.PalTwoStage.run

    def checked_run(self, out):
        seen.append(all(owner.__dict__[attr] is orig for owner, attr, orig in originals))
        return real_run(self, out)

    def refuse(*args, **kwargs):
        raise AssertionError("an untraced run created or installed a tracer")

    monkeypatch.setattr(workloads.PalTwoStage, "run", checked_run)
    monkeypatch.setattr(tracer, "installed", refuse)
    monkeypatch.setattr(tracer, "Tracer", refuse)
    rec = run.run_workload(P, seed=3, seconds=0, trace=False, work=tmp_path,
                           sizes=workloads.TINY, setup_repeats=1)
    assert rec["ledger"].failures == []
    assert seen == [True]
    assert rec["tracer"] is None
