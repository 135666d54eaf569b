"""projlab benchmark: workloads of fresh-process experiment runs.

Usage, from the root of the repository:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--threads N]

A workload is a fixed list of `projlab <experiment> --seed N --out DIR
--threads T [--config FILE]` runs (see WORKLOADS).  Each experiment runs
in a fresh interpreter, as users run the command line, with `src/` of
this checkout on PYTHONPATH and BLAS/OpenMP pools pinned to one thread.
The processes run one after another from this one process, so the load
is closed-loop with one client.  A round runs every operation of the
workload once; rounds repeat while one more would still end within
`--seconds` (there is always at least one), and each metric is the
median over rounds.  After a round, and outside its timed
region, every output is checked (checks.py).  An operation fails when
its exit status is not 0 or a check finds a problem.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics:

* wall_s: launch of the first process of a round to exit of its last;
* setup_s: sum over the round's processes of process wall time minus the
  `runtime_seconds` that the run wrote to run_meta.json, i.e. interpreter
  start, imports, argument and config handling, and writing the summary;
* verdict_s.max: the longest single process of the round;
* peak_rss_mb: the largest peak resident set of any process (wait4).

With `--trace 1` one untraced round is followed by one round whose
processes run under traced.py, and the JSON holds the per-layer metrics:
self time and work counts per layer, bytes written, the tracing overhead
against the untraced round and the share of experiment runtime that the
layer self times account for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

from checks import check_output
from traced import COUNTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A workload's run ends within this: no round starts that could end
# later, and a process still running then is killed (and fails).
RUN_LIMIT_S = 170.0


class Op(NamedTuple):
    label: str
    experiment: str
    config: dict | None = None
    seed: int | None = None  # fixed seed, ignoring --seed


WORKLOADS = {
    # per-map inverse-regularity kernels on large sets, few maps
    "inverse-maps": [
        Op("holder-ceiling", "holder-ceiling"),
        Op("log-lip", "log-lip"),
        # The Gram-identity fault in inverse_continuity_modulus reports a
        # false exact collision (map 22, eps(0.5) = 0) at seed 42.  The
        # seed is fixed so that this operation fails on every run and the
        # failed share stays exact; the operation that mends the fault
        # then shows as one failure fewer.
        Op("dense-ball-discontinuity", "dense-ball-discontinuity", seed=42),
    ],
    # Python-level loops of greedy covering and Dirac scoring
    "cover-slice": [
        Op("assouad-probe", "assouad-probe"),
        Op("box-dim-t2", "box-dim", {"t": 2.0}),
        Op("box-dim-t3", "box-dim", {"t": 3.0}),
        Op("all-directions", "all-directions"),
        Op("ifs-translate", "ifs-translate"),
    ],
    # the per-map layer with tens of thousands of maps on small sets
    "many-maps": [
        Op("collision-scaling", "collision-scaling", {"n_maps": 20000}),
        Op("decode-sparse", "decode-sparse", {"n_maps": 1000}),
        Op("transversality", "transversality", {"n_maps": 1_000_000}),
        Op("digit-lemma", "digit-lemma"),
    ],
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "verdict_s.max": "s",
              "peak_rss_mb": "MB"}
SELF_LAYERS = ("embedding", "experiments", "dimension", "slicing",
               "constructions", "linalg")


def child_env():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    return env


def launch(cmd, log_path, deadline):
    """Run cmd to its end, or kill it at the deadline (perf_counter time);
    returns (exit code, start, end, ru_maxrss KiB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage.ru_maxrss


def prepare(ops, seed, threads, round_dir, traced):
    """Command, output directory and log of every operation of a round."""
    runs = []
    for op in ops:
        out = round_dir / op.label
        cli = [op.experiment, "--seed", str(seed if op.seed is None else op.seed),
               "--out", str(out), "--threads", str(threads)]
        if op.config:
            cfg = round_dir / (op.label + ".config.json")
            cfg.write_text(json.dumps(op.config))
            cli += ["--config", str(cfg)]
        if traced:
            cmd = [sys.executable, str(HERE / "traced.py"),
                   str(round_dir / (op.label + ".trace.json"))] + cli
        else:
            cmd = [sys.executable, "-m", "projlab.cli"] + cli
        runs.append((op, cmd, out, round_dir / (op.label + ".log")))
    return runs


def run_round(ops, seed, threads, round_dir, deadline, traced=False):
    round_dir.mkdir(parents=True)
    runs = prepare(ops, seed, threads, round_dir, traced)
    timed = [launch(cmd, log, deadline) for _, cmd, _, log in runs]
    results = []
    for (op, _, out, log), (code, start, end, rss_kib) in zip(runs, timed):
        problems = [] if code == 0 else ["exit status %d: %s" % (
            code, log.read_text(errors="replace").strip()[-300:])]
        problems += check_output(op.experiment, out)
        try:
            runtime = json.loads((out / "run_meta.json").read_text())[
                "runtime_seconds"]
            readable = True
        except (OSError, ValueError, KeyError):
            runtime, readable = 0.0, False
        results.append({"op": op, "out": out, "wall": end - start,
                        "runtime": runtime, "rss_mb": rss_kib / 1024.0,
                        "problems": problems, "readable": readable})
    return {"wall": timed[-1][2] - timed[0][1], "ops": results}


def round_metrics(rnd):
    ops = rnd["ops"]
    return {"wall_s": rnd["wall"],
            "setup_s": sum(r["wall"] - r["runtime"] for r in ops),
            "verdict_s.max": max(r["wall"] for r in ops),
            "peak_rss_mb": max(r["rss_mb"] for r in ops)}


def bytes_written(out):
    """Bytes of the deterministic outputs: summary, tables and plots."""
    files = [out / "summary.json"] + sorted((out / "tables").glob("*")) \
        + sorted((out / "plots").glob("*"))
    return sum(f.stat().st_size for f in files if f.is_file())


def layer_metrics(traced, round_dir):
    """Per-layer metrics of a traced round, and whether every trace was
    written and the layer self times account for the runtime that the
    runs themselves report (the root spans wrap what it times)."""
    self_s = dict.fromkeys(SELF_LAYERS + ("write",), 0.0)
    counts = dict.fromkeys(COUNTS, 0)
    complete = True
    for r in traced["ops"]:
        try:
            trace = json.loads((round_dir / (r["op"].label + ".trace.json")).read_text())
        except (OSError, ValueError):
            complete = False
            continue
        for layer in self_s:
            self_s[layer] += trace["self_s"][layer]
        for name, value in trace["counts"].items():
            counts[name] += value
    runtime = sum(r["runtime"] for r in traced["ops"])
    metrics = {"%s.self_s" % layer: (self_s[layer], "s") for layer in SELF_LAYERS}
    metrics["experiments.write_s"] = (self_s["write"], "s")
    metrics.update({name: (value, "count") for name, value in counts.items()})
    metrics["experiments.bytes_written"] = (
        sum(bytes_written(r["out"]) for r in traced["ops"]), "bytes")
    coverage = 100.0 * sum(self_s.values()) / runtime if runtime else 0.0
    metrics["trace.coverage_pct"] = (coverage, "%")
    return metrics, complete and 95.0 <= coverage <= 105.0


def run_workload(name, seed, seconds, trace, threads, work_dir):
    ops = WORKLOADS[name]
    rounds = []
    correct = True
    began = time.perf_counter()
    deadline = began + RUN_LIMIT_S
    if trace:
        rounds.append(run_round(ops, seed, threads, work_dir / "plain", deadline))
        rounds.append(run_round(ops, seed, threads, work_dir / "traced", deadline,
                                traced=True))
        metrics, correct = layer_metrics(rounds[1], work_dir / "traced")
        metrics["trace.overhead_pct"] = (
            100.0 * (rounds[1]["wall"] - rounds[0]["wall"]) / rounds[0]["wall"], "%")
    else:
        while True:
            rounds.append(run_round(ops, seed, threads,
                                    work_dir / ("round%d" % len(rounds)), deadline))
            # whole rounds only: none that would end past --seconds
            elapsed = time.perf_counter() - began
            if elapsed * (len(rounds) + 1) / len(rounds) > min(seconds, RUN_LIMIT_S):
                break
        per_round = [round_metrics(r) for r in rounds]
        metrics = {m: (statistics.median(p[m] for p in per_round), unit)
                   for m, unit in END_TO_END.items()}

    every_op = [r for rnd in rounds for r in rnd["ops"]]
    correct = correct and all(r["readable"] for r in every_op)
    failed = [r for r in every_op if r["problems"]]
    print("workload %s: seed %d, %d round(s), %d operations, %d failed"
          % (name, seed, len(rounds), len(every_op), len(failed)))
    for r in rounds[-1]["ops"]:
        print("  %-26s %7.2f s  setup %5.2f s  %7.1f MB  %s"
              % (r["op"].label, r["wall"], r["wall"] - r["runtime"], r["rss_mb"],
                 "FAIL" if r["problems"] else "ok"))
    seen = set()
    for r in failed:
        for problem in r["problems"]:
            if (r["op"].label, problem) not in seen:
                seen.add((r["op"].label, problem))
                print("  FAIL %s: %s" % (r["op"].label, problem))
    for metric, (value, unit) in metrics.items():
        print("  %-28s %14.6f %s" % (metric, value, unit))
    return {"correct": bool(correct), "attempted": len(every_op),
            "failed": len(failed),
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="--threads for every experiment (tracing needs 1)")
    args = parser.parse_args(argv)
    if args.trace and args.threads != 1:
        parser.error("tracing keeps one span stack and needs --threads 1")
    if not (ROOT / "src" / "projlab" / "cli.py").is_file():
        print("error: no projlab sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    work_dir = ROOT / ".bench_out" / str(os.getpid())
    try:
        work_dir.mkdir(parents=True)
        # untimed: writes the bytecode cache and warms the file cache
        code, *_ = launch([sys.executable, "-m", "projlab.cli", "list"],
                          work_dir / "warmup.log", time.perf_counter() + 60.0)
        if code != 0:
            print("error: `projlab list` exits %d:\n%s" % (
                code, (work_dir / "warmup.log").read_text()), file=sys.stderr)
            return 2
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace,
                                  args.threads, work_dir / name)
            print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
