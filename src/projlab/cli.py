"""Command line front end for the named experiments.

Usage:

    projlab list
    projlab <experiment> [--config FILE] [--seed N] [--out DIR]
                         [--threads N] [--export-points]

Exit status: 0 when every named check passes, 1 when the experiment ran
but a named check failed (the failing names are printed), and 2 when the
request itself is invalid (unknown experiment, bad config key or value,
missing seed for a seeded experiment, unreadable config file).
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import REGISTRY, experiment_names, run_experiment


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="projlab",
        description="dimension / projection / inverse-modulus experiments; "
                    "run `projlab list` to see the experiment names")
    parser.add_argument("experiment",
                        help="experiment name, or `list` to enumerate them")
    parser.add_argument("--config", help="JSON file with config overrides")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for random map draws (overrides config)")
    parser.add_argument("--out", default=None,
                        help="directory for summary.json, tables/, plots/")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker cap for the per-map loops of holder-ceiling "
                             "and log-lip; other experiments run single-threaded "
                             "(results identical)")
    parser.add_argument("--export-points", action="store_true",
                        help="also write constructed point sets as CSV")
    return parser


def _load_config(path):
    with open(path) as handle:
        cfg = json.load(handle)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    return cfg


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "list":
        for name in experiment_names():
            entry = REGISTRY[name]
            seeded = "seeded" if entry["needs_seed"] else "deterministic"
            print("%-26s %s" % (name, seeded))
        return 0

    try:
        config = _load_config(args.config) if args.config else {}
    except (OSError, ValueError) as exc:
        print("error: cannot read config: %s" % exc, file=sys.stderr)
        return 2
    if args.seed is not None:
        config["seed"] = args.seed

    try:
        summary = run_experiment(args.experiment, config=config,
                                 out_dir=args.out, threads=args.threads,
                                 export_points=args.export_points)
    except (KeyError, ValueError, TypeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    for chk in summary["checks"]:
        tag = "PASS" if chk["passed"] else "FAIL"
        print("[%s] %s: %s" % (tag, chk["name"], chk["detail"]))
    print("experiment %s: %d/%d checks passed (%.1fs, config %s)"
          % (summary["experiment"],
             sum(c["passed"] for c in summary["checks"]),
             len(summary["checks"]),
             summary["runtime_seconds"],
             summary["config_hash"][:12]))
    if not summary["all_passed"]:
        failing = [c["name"] for c in summary["checks"] if not c["passed"]]
        print("failed checks: %s" % ", ".join(failing), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
