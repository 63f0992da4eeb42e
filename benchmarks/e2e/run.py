"""The repository benchmark: six workloads, end-to-end and per-layer metrics.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1] [--out DIR] [--aa]

Prints every metric by name with its unit, checks outputs against the
oracle, and exits non-zero on a failed check.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See README.md in this directory for what is measured and why.

This file only schedules and reports.  The measuring is done by
``measure.py`` in fresh interpreter processes, one after the other and
never two at once: the speed of a Python process depends on where its
memory happened to land, by a few percent that stay put for the life of
the process, so a single process would report its own luck.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

from estimate import floors, nearest_rank

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
#: ``keyed_sharded`` runs three processes on this host's two cores: its
#: throughput spreads by 6-16 % between runs of the same code and its
#: median moved by 13 % between two sets of ten, too much for a 0.25
#: bound to gate later changes on.  It runs and reports like the others
#: but is not among the workloads of BENCHMARK.json.
UNGATED = ["keyed_sharded"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + UNGATED

#: Measuring processes per end-to-end run; ``--seconds`` is split among them.
#: Each costs a second or two of start-up, set-up and verification that
#: the driver's time limit counts and the run does not measure.
PROCESSES = 3

#: Values that must repeat exactly between two runs of the same code on
#: the same seed, beside every ``*.calls`` count.
EXACT = {
    "state_bytes_max", "slice_manager.ooo_adds", "slice_manager.splits", "share.requests",
    "window_manager.results", "keyed.batches", "keyed.keys", "sharded.batches",
    "checkpoint.bytes", "checkpoint.frame_bytes_max", "durability.bytes_written",
    "recovery.replayed_records", "recovery.deduped_results", "trace.spans",
}


class Report:
    """The outcome of one workload: checks and metric values."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.checked = 0
        self.failed = 0
        self.values: Dict[str, float] = {}

    def absorb(self, outcome: dict) -> None:
        self.checked += outcome["checked"]
        self.failed += outcome["failed"]

    def expect_digest(self, outcome: dict, expected: str) -> None:
        """A process that delivered other results counts all of them as failed."""
        self.checked += outcome["results"]
        if outcome["digest"] != expected:
            self.failed += outcome["results"]

    def json_line(self) -> str:
        units = {**END_TO_END, **PER_LAYER}
        return json.dumps({
            "correct": self.failed == 0,
            "attempted": self.checked,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]["unit"]}
                for name, value in self.values.items()
            },
        })


def measure(workload: str, args, *, trace: int, seconds: float, oracle: bool) -> dict:
    """One measuring process; its last line of output is its outcome."""
    command = [
        sys.executable, str(HERE / "measure.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(seconds), "--scale", str(args.scale),
        "--trace", str(trace), "--oracle", str(int(oracle)),
    ]
    if trace and args.out:
        command += ["--out", args.out]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"measuring {workload} failed with exit code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(name: str, args) -> Report:
    report = Report(name)
    print(f"\n== {name}, seed {args.seed}" + ("  (not in BENCHMARK.json)" if name in UNGATED else ""))
    if args.trace in (None, 0):
        outcomes = [
            measure(name, args, trace=0, seconds=args.seconds / PROCESSES, oracle=index == 0)
            for index in range(PROCESSES)
        ]
        # Same seed, same stream: every process must deliver what the
        # first did, and a pipeline what its single-process reference did.
        expected = outcomes[0]["reference_digest"] or outcomes[0]["digest"]
        for outcome in outcomes:
            report.absorb(outcome)
            report.expect_digest(outcome, expected)
        report.values.update(end_to_end(outcomes))
        _print_end_to_end(report.values, outcomes)
    if args.trace in (None, 1):
        outcome = measure(name, args, trace=1, seconds=args.seconds, oracle=args.trace == 1)
        report.absorb(outcome)
        if set(outcome["values"]) != set(PER_LAYER):
            raise SystemExit(f"per-layer metrics differ from BENCHMARK.json: "
                             f"{sorted(set(outcome['values']) ^ set(PER_LAYER))}")
        report.values.update(outcome["values"])
        _print_per_layer(outcome)
    print(f"  windows_checked {report.checked}  windows_failed {report.failed}  "
          f"failed_share {report.failed / report.checked:.6f}")
    return report


def end_to_end(outcomes: List[dict]) -> Dict[str, float]:
    """The end-to-end metrics of one run from its measuring processes.

    Timings are position-wise floors (``estimate.floors``) over every
    round of every process: the fastest observation of each timed
    segment and of the set-up.  Host interference only ever adds time,
    so the floor is the estimate it disturbs least.
    """
    rounds = [ns for o in outcomes for ns in o["round_ns"]]
    if outcomes[0]["repeatable"]:
        round_ns = sum(floors([o["segment_floor_ns"] for o in outcomes]))
    else:
        # A system whose duration varies of its own accord (see
        # measure.ShardedRun): all records over all timed seconds.
        round_ns = statistics.fmean(rounds)
    return {
        "throughput_rps": outcomes[0]["records"] / (round_ns / 1e9),
        "state_bytes_max": max(o["state_bytes_max"] for o in outcomes),
        "setup_s": min(o["setup_s"] for o in outcomes),
    }


def _print_end_to_end(values: Dict[str, float], outcomes: List[dict]) -> None:
    first = outcomes[0]
    rounds = [ns / 1e9 for o in outcomes for ns in o["round_ns"]]
    setups = [o["setup_s"] for o in outcomes]
    emits = sorted(floors([o["emit_floor_ns"] for o in outcomes]))
    how = (f"floor of {len(first['segment_floor_ns'])} segments" if first["repeatable"]
           else "all records / all seconds")
    beside = {
        "throughput_rps": f"{how} over {len(rounds)} rounds in {len(outcomes)} processes; round "
                          f"min {min(rounds):.3f} median {statistics.median(rounds):.3f} max {max(rounds):.3f} s",
        "state_bytes_max": f"min {min(o['state_bytes_max'] for o in outcomes)} over {len(outcomes)} processes",
        "setup_s": f"fastest set-up of {len(setups)} processes, slowest process {max(setups):.3f}",
    }
    for name, value in values.items():
        print(f"  {name:<24} {value:>16.4f} {END_TO_END[name]['unit']:<10} ({beside[name]})")
    # Not a bounded metric (see README, "Emit latency"); the traced run reports it.
    print(f"  emit latency p50 {nearest_rank(emits, 0.50) / 1e3:.4f} us, p99 "
          f"{nearest_rank(emits, 0.99) / 1e3:.4f} us ({len(emits)} emit positions, floor over "
          f"{sum(o['emit_rounds'] for o in outcomes)} rounds, {len(emits) // 100} positions beyond the p99)")


def _print_per_layer(outcome: dict) -> None:
    values, raw = outcome["values"], outcome["raw"]
    print(f"  -- traced: medians of {outcome['runs']} traced runs; "
          f"self_s is net of span cost, raw beside it")
    for name, metric in PER_LAYER.items():
        beside = raw.get(name.replace(".self_s", ".raw_self_s"))
        beside = f"(raw {beside:.4f})" if beside is not None else ""
        print(f"  {name:<38} {values[name]:>16.4f} {metric['unit']:<6} {beside}")


def _host_line(args) -> str:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        commit = ""
    return (f"nproc {os.cpu_count()}  python {platform.python_version()}  "
            f"commit {commit or 'unknown'}  seed {args.seed}  seconds {args.seconds}")


def _compare_passes(first: List[Report], second: List[Report]) -> bool:
    """The A/A table: two passes of the same code must agree."""
    ok = True
    print("\n== A/A: workload, metric, first, second, relative difference, bound")
    for a, b in zip(first, second):
        for name, one in a.values.items():
            two = b.values[name]
            if name in EXACT or name.endswith(".calls"):
                bound = 0.0
            elif name in END_TO_END:
                bound = END_TO_END[name]["bound"]
            else:
                continue  # per-layer timings carry no bound
            difference = abs(two - one) / abs(one) if one else float(two != one)
            verdict = "PASS" if difference <= bound else "FAIL"
            ok &= verdict == "PASS"
            if name in END_TO_END or verdict == "FAIL":
                print(f"  {a.workload:<24} {name:<24} {one:>14.4f} {two:>14.4f} "
                      f"{difference:>8.4f} {bound:>6.2f} {verdict}")
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all six")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer only; default: both")
    parser.add_argument("--out", help="directory for the traced run's spans and counts")
    parser.add_argument("--aa", action="store_true",
                        help="run everything twice and fail where the two passes disagree")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload (smoke test only; not a benchmark setting; "
                             "below about 0.2 the 10 s windows never close)")
    args = parser.parse_args(argv)

    print(_host_line(args))
    names = [args.workload] if args.workload else WORKLOADS
    passes = [[run_workload(name, args) for name in names] for _ in range(2 if args.aa else 1)]
    agree = _compare_passes(*passes) if args.aa else True
    reports = passes[-1]
    for report in reports:
        print(report.json_line())
    return 0 if agree and all(r.failed == 0 for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
