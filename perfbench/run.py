"""flowspec benchmark: one closed-loop workload per run, one process, one thread.

    python3 perfbench/run.py --workload check|roundtrip|explore \\
        [--seed N] [--seconds S] [--trace 0|1]

The run builds its inputs from ``--seed``, then times whole rounds of the
workload's operations, one after another, until the timed operations add up
to ``--seconds``.  Each output of the first round is judged by ``checks``; every
later round must reproduce the first exactly.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones).  See
README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3

PER_LAYER_UNITS = {
    "replay.check_suite_s": "s",
    "replay.check_suite.calls": "count",
    "replay.scenarios": "count",
    "replay.explore_s": "s",
    "replay.explore.calls": "count",
    "replay.explore.steps": "count",
    "replay.explore.configs": "count",
    "replay.explore.configs_per_step": "ratio",
    "patterns.lint_s": "s",
    "patterns.lint.calls": "count",
    "cli.self_s": "s",
    "cli.run.calls": "count",
    "dsl.parse_dsl_s": "s",
    "dsl.parse_dsl.calls": "count",
    "dsl.serialize_dsl_s": "s",
    "dsl.serialize_dsl.calls": "count",
    "dsl.bytes_parsed": "bytes",
    "xmlio.parse_xml_s": "s",
    "xmlio.parse_xml.calls": "count",
    "feature.parse_feature_s": "s",
    "feature.parse_feature.calls": "count",
    "feature.format_feature_s": "s",
    "feature.format_feature.calls": "count",
    "feature.bytes": "bytes",
    "emit.emit_feature_s": "s",
    "emit.emit_feature.calls": "count",
    "emit.scenarios": "count",
    "infer.infer_model_s": "s",
    "infer.infer_model.calls": "count",
    "canon.isomorphic_s": "s",
    "canon.isomorphic.calls": "count",
    "dot.render_dot_s": "s",
    "dot.render_dot.calls": "count",
    "skeletons.emit_skeletons_s": "s",
    "skeletons.emit_skeletons.calls": "count",
    "generator.random_model_s": "s",
    "generator.random_model.calls": "count",
    "trace.overhead_pct": "%",
}


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("check", "roundtrip", "explore"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


@contextmanager
def _workdir():
    path = OUT / f"work-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _fresh_setup_seconds(args, cal) -> float:
    """Time from starting a fresh interpreter until it has imported flowspec
    and built the workload's inputs (it then prints ``ready``)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    cal.sample()
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
        code = child.wait(timeout=120)
    if line != "ready\n" or code != 0:
        raise RuntimeError(f"set-up child failed (exit {code})")
    cal.sample()
    return (ready - start) * cal.scale((start + ready) / 2)


def _per_round(findings):
    """Failed operations of one round, with the reasons behind them."""
    reasons: dict[str, dict] = {}
    for i, f in findings:
        entry = reasons.setdefault(f.reason, {"known": f.known, "ops": set(), "rows": 0})
        entry["ops"].add(i)
        entry["rows"] += 1
    failed = len({i for i, _ in findings})
    return failed, {r: {"known": e["known"], "ops": len(e["ops"]), "rows": e["rows"]} for r, e in reasons.items()}


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "flowspec" / "__init__.py").is_file():
        print(f"perfbench: no flowspec sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from checks import Finding
    from clock import Calibration
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        with _workdir() as wd:
            workload.setup(wd)
            print("ready", flush=True)
        return 0

    cal = Calibration()
    setup_times = [] if args.trace else [_fresh_setup_seconds(args, cal) for _ in range(SETUP_REPEATS)]
    tracer = Tracer() if args.trace else None
    with _workdir() as wd:
        if tracer:
            tracer.install()
        cal.sample()
        workload.setup(wd)
        cal.sample()
        if tracer:
            tracer.uninstall()
            setup_layers = tracer.take(cal.scale)
        ops = workload.operations()

        timed = []  # per op run: (midpoint, measured seconds, traced?)
        work = Counter()
        layers = Counter()
        digests, findings, rounds, measured = [], [], 0, 0.0
        while True:
            traced = bool(tracer) and rounds % 2 == 1
            gc.collect()
            if traced:
                tracer.install()
            for i, op in enumerate(ops):
                cal.maybe_sample()
                start = time.perf_counter()
                out = op()
                end = time.perf_counter()
                cal.maybe_sample()  # before the output is judged, which takes time
                timed.append(((start + end) / 2, end - start, traced))
                measured += end - start
                if not traced:
                    w = workload.work(i, out)
                    work.update(scenarios=w.scenarios, transitions=w.transitions, runs=w.runs)
                # The first round is judged; later ones must repeat it exactly.
                digest = hashlib.sha256(repr(out).encode()).digest()
                if rounds == 0:
                    findings.extend((i, f) for f in workload.verify(i, out))
                    digests.append(digest)
                elif digest != digests[i]:
                    findings.append((i, Finding("a later round's output differs from the first", "")))
                del out
            cal.sample()
            if traced:
                tracer.uninstall()
                layers.update(tracer.take(cal.scale))
            rounds += 1
            if measured >= args.seconds and rounds >= (2 if tracer else 1):
                break

    failed_per_round, reasons = _per_round(findings)
    correct = all(f.known for _, f in findings)
    for i, f in findings:
        if not f.known:
            print(f"perfbench: op {i}: {f.reason}: {f.detail}", file=sys.stderr)
    print(json.dumps({"failures_per_round": reasons, "rounds": rounds, "ops_per_round": len(ops)}))

    scaled = {False: [], True: []}
    for mid, seconds, traced in timed:
        scaled[traced].append(seconds * cal.scale(mid))
    if tracer:
        n = rounds // 2
        metrics = {
            name: setup_layers.get(name, 0.0) + layers.get(name, 0.0) / n for name in PER_LAYER_UNITS
        }
        steps = metrics["replay.explore.steps"]
        metrics["replay.explore.configs_per_step"] = metrics["replay.explore.configs"] / steps if steps else 0.0
        metrics["trace.overhead_pct"] = 100.0 * (
            (sum(scaled[True]) / n) / (sum(scaled[False]) / (rounds - n)) - 1.0
        )
        units = PER_LAYER_UNITS
        _write_trace(args, tracer)
    else:
        total = sum(scaled[False])
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_p50_ms": 1000.0 * statistics.median(scaled[False]),
            "scenarios_per_s": work["scenarios"] / total,
            "transitions_per_s": work["transitions"] / total,
            "runs_per_s": work["runs"] / total,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "op_p50_ms": "ms", "scenarios_per_s": "1/s", "transitions_per_s": "1/s",
                 "runs_per_s": "1/s", "peak_rss_mb": "MB"}
    result = {
        "correct": correct,
        "attempted": len(ops) * rounds,
        "failed": failed_per_round * rounds,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _write_trace(args, tracer) -> None:
    """Every span of the run: name, start and end (s), parent index, counts."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "spans": tracer.spans}))


if __name__ == "__main__":
    sys.exit(main())
