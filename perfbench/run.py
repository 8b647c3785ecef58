"""Benchmark of the pal pipeline: one workload per process, closed loop.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pal_two_stage --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30   # each workload in a fresh process

One caller in one process runs the workload's body back to back until the
bodies add up to ``--seconds``. With ``--trace 0`` the last stdout line is a
JSON object with the end-to-end metrics; with ``--trace 1`` untraced and
traced bodies alternate, and it holds the per-layer metrics of the traced
ones plus the tracing overhead. Every body is followed by untimed
correctness checks. Run records (environment, per-iteration figures,
digests, spans) are written under ``.perfbench_work/records``.

Exit status: 0 when every operation succeeded, 1 when a check or a body
failed, 2 when the pal sources cannot be imported.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS thread unless the caller chose otherwise: on a small shared box
# the second thread adds more run-to-run spread than speed. Set before
# anything imports numpy; the values used are recorded with each result.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
NAMES = ("pal_two_stage", "ablation_table5", "eval_sweep")
SETUP_REPEATS = 5

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_samples_per_s": "rows/s",
    "eval_episodes_per_s": "episodes/s",
    "acc_5w1s": "fraction",
    "acc_5w5s": "fraction",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np
    import pal

    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "pal_version": pal.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 sizes=None, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Set up, loop the body for ``seconds`` of body time, check each body.

    Returns a record with the ledger, per-iteration figures, digests and,
    when tracing, the tracer. Only traced runs import or install the tracer;
    they set up once, traced, and alternate untraced and traced bodies.
    """
    from workloads import BENCH, WORKLOADS, Ledger

    workload = WORKLOADS[name](seed, sizes or BENCH)
    ledger = Ledger()
    tracer = None
    if trace:
        from tracer import Tracer, installed

        tracer = Tracer()
        setup_repeats = 1

    def spans(run_id: str, on: bool = True):
        if tracer is None or not on:
            return contextlib.nullcontext()
        tracer.run_id = run_id
        return installed(tracer)

    setup_s, setup_digests = [], []

    def set_up() -> None:
        # Set-ups after the first are spread between the bodies, so the
        # median samples the whole run rather than its first second.
        r = len(setup_s)
        start = time.perf_counter()
        with spans("setup"):
            workload.setup(work / f"setup{r}", ledger)
        setup_s.append(time.perf_counter() - start)
        setup_digests.append(workload.input_digests())
        if r:
            ledger.check(f"set-up {r} inputs equal set-up 0's",
                         setup_digests[r] == setup_digests[0], "generated files differ")
            shutil.rmtree(work / f"setup{r - 1}")

    set_up()
    plain, traced, traced_ids, first_digests = [], [], [], None
    body_s, i = 0.0, 0
    while not (body_s >= seconds and plain and (tracer is None or traced)):
        use_trace = tracer is not None and i % 2 == 1
        out = work / f"iter{i}"
        try:
            with spans(f"iter{i}", use_trace):
                it = workload.run(out)
            workload.check(out, it, ledger)
        except Exception:  # a failing body is a failed operation; report it and stop
            traceback.print_exc()
            ledger.fail(f"iteration {i} raised")
            break
        if first_digests is None:
            first_digests = it.digests
        else:
            changed = sorted(k for k in first_digests.keys() | it.digests.keys()
                             if it.digests.get(k) != first_digests.get(k))
            ledger.check(f"iteration {i} digests equal iteration 0", not changed,
                         f"differ at {changed[:5]}")
        it.state = {}  # drop the trained models before the next body
        (traced if use_trace else plain).append(it)
        if use_trace:
            traced_ids.append(f"iter{i}")
        shutil.rmtree(out, ignore_errors=True)
        body_s += it.wall_s
        i += 1
        if len(setup_s) < setup_repeats:
            set_up()
    while len(setup_s) < setup_repeats:
        set_up()
    return {
        "ledger": ledger,
        "setup_s": setup_s,
        "plain": plain,
        "traced": traced,
        "traced_ids": traced_ids,
        "digests": first_digests or {},
        "tracer": tracer,
    }


def e2e_metrics(rec: dict) -> dict[str, float]:
    """Medians over the untraced iterations; ``setup_s`` over set-ups."""
    plain = rec["plain"]
    out = {"setup_s": statistics.median(rec["setup_s"]),
           "wall_s": statistics.median(it.wall_s for it in plain)}
    for name in ("train_samples_per_s", "eval_episodes_per_s", "acc_5w1s", "acc_5w5s"):
        out[name] = statistics.median(it.metrics[name] for it in plain)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def layer_metrics(rec: dict) -> dict[str, float]:
    from tracer import LAYER_UNITS, layer_metrics as from_spans

    tracer = rec["tracer"]
    values = from_spans(tracer, rec["traced_ids"])
    plain_s = statistics.median(it.wall_s for it in rec["plain"])
    traced_s = statistics.median(it.wall_s for it in rec["traced"])
    values["trace.overhead_s"] = traced_s - plain_s
    values["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    return {name: values[name] for name in LAYER_UNITS}


def report(args, env: dict, rec: dict) -> int:
    ledger = rec["ledger"]
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("setup_s per repeat " + " ".join(f"{s:.4f}" for s in rec["setup_s"]))
    for label in ("plain", "traced"):
        if rec[label]:
            print(f"{label} body_s per iteration "
                  + " ".join(f"{it.wall_s:.4f}" for it in rec[label]))
    digests = rec["digests"]
    for key in sorted(digests):
        print(f"digest {digests[key]} {key}")
    combined = json.dumps(digests, sort_keys=True).encode()
    iterations = len(rec["plain"]) + len(rec["traced"])
    print(f"digest {hashlib.sha256(combined).hexdigest()} ALL ({len(digests)} items, "
          f"{iterations} iterations compared)")
    for failure in ledger.failures:
        print(f"FAILED {failure}")

    metrics, units, extras = {}, {}, {}
    if rec["plain"] and (rec["traced"] or not args.trace):
        if args.trace:
            from tracer import LAYER_UNITS

            metrics, units = layer_metrics(rec), LAYER_UNITS
        else:
            metrics, units = e2e_metrics(rec), E2E_UNITS
        extras = dict(rec["plain"][0].extras)
    extras["failed_op_share"] = ledger.failed / max(ledger.attempted, 1)
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for name, value in extras.items():
        print(f"extra {name} = {value:.6g} fraction")
    print(f"ops attempted={ledger.attempted} failed={ledger.failed}")

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    records = WORK_ROOT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (records / f"{stem}.json").write_text(json.dumps({
        "env": env,
        "result": result,
        "extras": extras,
        "setup_s": rec["setup_s"],
        "body_s": {k: [it.wall_s for it in rec[k]] for k in ("plain", "traced")},
        "iteration_metrics": [it.metrics for it in rec["plain"]],
        "digests": digests,
        "failures": ledger.failures,
    }, indent=1, sort_keys=True))
    if rec["tracer"] is not None:
        rec["tracer"].write_jsonl(records / f"{stem}-spans.jsonl")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, so warm state and peak RSS
    do not carry over from one workload to the next."""
    status, combined = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import pal.ablation
    except ImportError as exc:
        print(f"perfbench: cannot import pal from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(pal.ablation.__file__).resolve().parents:
        print(f"perfbench: pal was imported from {pal.ablation.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        env = environment(args.seed)
        rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
        return report(args, env, rec)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
