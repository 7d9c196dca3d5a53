"""togglekit benchmark: one command, three in-process workloads.

    python3 bench/run.py --workload {synthesis,analysis,cli} --seed N
                         --seconds S --trace {0,1}

Run it from the repository root.  It imports togglekit from ``src/``; it
stops with exit code 2, before measuring anything, if that is missing.

Each workload is a closed loop in one process: one client, which sends the
next operation when the previous one has returned.  A run repeats whole
rounds of the same seeded operations until ``--seconds`` of timed rounds
have passed, so every run attempts (and fails) the same share of
operations.  Outputs of the first round are checked against the rotation
oracle in ``oracle.py`` and the method's own properties; every later round
must reproduce the first exactly.  Checks run between rounds, off the clock.
An operation that raises is counted as failed, and makes the run incorrect
unless the workload marks it as a known fault of the program.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds in which togglekit's modules are wrapped (see
``spans.py``), and reports the per-layer metrics per traced round, with the
tracing overhead.  The last line of stdout is the result as JSON; a copy
goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / "work"
WORKLOADS = ("synthesis", "analysis", "cli")
SETUP_PROBES = 15


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(workload: str) -> float:
    """Median over fresh interpreters of the time from process start to
    togglekit imported, plus one warm call of each kind of operation.

    perf_counter is CLOCK_MONOTONIC on Linux, so the child's readings are
    comparable with the parent's spawn time.  The child's import of the
    benchmark's own modules is left out.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), workload],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        imported, warm_s = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(imported - t0 + warm_s)
    return statistics.median(samples)


def run_round(ops):
    """Run every operation once; returns latencies, outputs and errors, and
    the round's wall time."""
    latencies, outputs, errors = [], [], []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out, err = op.call(), None
        except Exception as exc:   # a failed operation is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
        errors.append(err)
    return latencies, outputs, errors, time.perf_counter() - start


def check_round(ops, outputs, errors, reference):
    """Digests of this round's outputs plus a list of problems.  The first
    round (no reference yet) is checked in full; later rounds must match it.
    A failure the workload does not expect is a problem too."""
    digests, problems = [], []
    for op, out, err in zip(ops, outputs, errors):
        if err is not None:
            digests.append(("failed", err))
            if reference is None:
                print(f"failed: {op.name}: {err}", file=sys.stderr)
            if not op.may_fail:
                problems.append(f"{op.name}: unexpected failure: {err}")
            continue
        if reference is None:
            try:
                op.check(out)
            except Exception as exc:
                problems.append(f"{op.name}: {type(exc).__name__}: {exc}")
        digests.append(op.digest(out))
    if reference is not None:
        problems += [f"{op.name}: output differs from the first round"
                     for op, d, r in zip(ops, digests, reference) if d != r]
    return digests, problems


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def layer_metrics(tracer, rounds: int, extra: dict, overhead_ms: float) -> dict:
    calls, self_s, total, c = (tracer.layer_calls, tracer.layer_self,
                               tracer.func_total, tracer.counts)
    enum_s = total["search.enumerate_balanced"]

    def per(v):
        return v / rounds

    def ms(s):
        return 1e3 * s / rounds

    return {
        "rotcore.calls": _metric(per(calls["rotcore"]), "count/round"),
        "rotcore.rows": _metric(per(c["rotcore.rows"]), "count/round"),
        "rotcore.rows_per_call": _metric(c["rotcore.rows"] / max(calls["rotcore"], 1),
                                         "rows/call"),
        "rotcore.self_ms": _metric(ms(self_s["rotcore"]), "ms/round"),
        "seqmodel.calls": _metric(per(calls["seqmodel"]), "count/round"),
        "seqmodel.self_ms": _metric(ms(self_s["seqmodel"]), "ms/round"),
        "seqmodel.sequences_built": _metric(per(c["seqmodel.sequences_built"]), "count/round"),
        "toggling.self_ms": _metric(ms(self_s["toggling"]), "ms/round"),
        "averaging.oracle_ms": _metric(ms(total["averaging.numeric_error_expansion"]),
                                       "ms/round"),
        "averaging.kappa_ms": _metric(ms(total["averaging.kappa"]), "ms/round"),
        "averaging.self_ms": _metric(ms(self_s["averaging"]), "ms/round"),
        "profiles.convert_ms": _metric(ms(total["profiles.convert_m2_to_m4"]), "ms/round"),
        "search.enumerate_ms": _metric(ms(enum_s), "ms/round"),
        "search.space": _metric(per(c["search.space"]), "count/round"),
        "search.space_per_s": _metric(c["search.space"] / enum_s if enum_s else 0.0, "1/s"),
        "search.found": _metric(per(c["search.found"]), "count/round"),
        "search.dedupe_ms": _metric(ms(total["search.dedupe"]), "ms/round"),
        "search.unique": _metric(per(c["search.unique"]), "count/round"),
        "search.unique_per_found": _metric(
            c["search.unique"] / c["search.found"] if c["search.found"] else 0.0, "ratio"),
        "cli.calls": _metric(per(calls["cli"]), "count/round"),
        "cli.self_ms": _metric(ms(self_s["cli"]), "ms/round"),
        "cli.bytes_out": _metric(per(extra.get("cli.bytes_out", 0)), "bytes/round"),
        "catalog.self_ms": _metric(ms(self_s["catalog"]), "ms/round"),
        "ddsim.self_ms": _metric(ms(self_s["ddsim"]), "ms/round"),
        "ddsim.map_cells": _metric(per(c["ddsim.map_cells"]), "count/round"),
        "virtualmas.self_ms": _metric(ms(self_s["virtualmas"]), "ms/round"),
        "trace.overhead_ms": _metric(overhead_ms, "ms/round"),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "togglekit" / "__init__.py").is_file():
        print(f"error: togglekit sources not found under {SRC}", file=sys.stderr)
        return 2
    setup_s = None if args.trace else measure_setup(args.workload)

    # numpy and togglekit are imported only now, after the setup probes
    sys.path.insert(0, str(SRC))
    import numpy as np
    import togglekit

    import spans
    wl = importlib.import_module(f"wl_{args.workload}")

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = wl.build(args.seed, workdir)
        wl.warm()
        tracer = spans.Tracer(togglekit) if args.trace else None
        latencies, plain_walls, traced_walls = [], [], []
        attempted = failed = 0
        reference, problems, extra = None, [], {}
        timed = 0.0
        while True:
            gc.collect()
            # a traced run alternates plain and traced rounds, starting plain
            tracing = tracer is not None and len(plain_walls) > len(traced_walls)
            if tracing:
                tracer.install()
            try:
                lat, outputs, errors, wall = run_round(ops)
            finally:
                if tracing:
                    tracer.uninstall()
            if tracing:
                traced_walls.append(wall)
                for k, v in getattr(wl, "layer_counts", lambda o: {})(outputs).items():
                    extra[k] = extra.get(k, 0) + v
            else:
                plain_walls.append(wall)
            timed += wall
            latencies += lat
            attempted += len(ops)
            failed += sum(e is not None for e in errors)
            digests, found = check_round(ops, outputs, errors, reference)
            reference = reference or digests
            problems += found
            del outputs   # before the next round, so two rounds' outputs never coexist
            if timed >= args.seconds and (tracer is None or traced_walls):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace:
        overhead_ms = 1e3 * (statistics.median(traced_walls) - statistics.median(plain_walls))
        metrics = layer_metrics(tracer, len(traced_walls), extra, overhead_ms)
    else:
        p50, p90 = np.percentile(np.array(latencies) * 1e3, [50, 90])
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "ops_per_s": _metric(attempted / timed, "1/s"),
            "op_p50_ms": _metric(p50, "ms"),
            "op_p90_ms": _metric(p90, "ms"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                   "MB"),
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
