"""The bench ledger: one command for every workload, metric and check.

    python3 bench_ledger/run.py --workload NAME --seed N --seconds S --trace 0|1
        One run of one workload. ``--trace 0`` measures with tracing off and
        reports the end-to-end metrics; ``--trace 1`` splits the time into an
        untraced reference half and a traced half and reports the per-layer
        metrics. The last line of stdout is one JSON object:
        ``{"correct", "attempted", "failed", "metrics"}``.

    python3 bench_ledger/run.py [--runs K] [--traced] [--out FILE]
        The whole ledger: K untraced runs of all five workloads (and one
        traced run each with ``--traced``), every metric printed by name with
        its unit and sample count, every correctness check run; exit 1 when
        a check fails. ``--out`` writes the result file ``compare.py`` reads.

Inputs come from ``--seed``; the default seed's inputs are pinned by sha256
in ``ledger.json`` and a run on drifted inputs fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

LEDGER_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(LEDGER_DIR))
sys.path.insert(0, str(LEDGER_DIR.parent / "src"))

import harness  # noqa: E402
import metrics  # noqa: E402
import stats  # noqa: E402

WORKLOADS = {
    "table2_queries": "wl_table2",
    "annotation_load": "wl_annotation",
    "served_closed": "wl_served_closed",
    "served_openloop": "wl_served_openloop",
    "curation": "wl_curation",
}


def load_ledger() -> dict[str, Any]:
    return json.loads((LEDGER_DIR / "ledger.json").read_text())


def default_seconds() -> float:
    manifest = LEDGER_DIR.parent / "BENCHMARK.json"
    if manifest.exists():
        return float(json.loads(manifest.read_text())["run_seconds"])
    return 10.0


# ----------------------------------------------------------------- one run


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Measure one workload once; returns the full detail record."""
    import spans

    module = importlib.import_module(WORKLOADS[workload])
    inputs = module.make_inputs(seed)
    pinned = load_ledger()["input_sha256"].get(workload)
    if seed == harness.DEFAULT_SEED and inputs["digest"] != pinned:
        raise SystemExit(
            f"{workload}: the default seed's inputs drifted "
            f"(sha256 {inputs['digest']} != pinned {pinned}); the ruler moved "
            "— a change to repro.workload must come with a re-pinned ledger"
        )
    workdir = harness.new_workdir(workload)
    try:
        box = harness.box_facts(workdir)
        if not trace:
            untraced = module.run_pass(inputs, seconds, None, workdir)
            passes = [untraced]
            values = metrics.end_to_end(workload, untraced)
            units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
        else:
            for half in ("untraced", "traced"):
                (workdir / half).mkdir()
            untraced = module.run_pass(
                inputs, seconds / 2, None, workdir / "untraced", setup_reps=1
            )
            recorder = spans.Recorder()
            traced = module.run_pass(
                inputs, seconds / 2, recorder, workdir / "traced", setup_reps=1
            )
            passes = [untraced, traced]
            threads = list(recorder.threads().values())
            values = metrics.per_layer(
                workload, untraced, traced, spans.summarize(threads),
                spans.breakdown_by_root(threads, "client.insert"),
            )
            units = {name: unit for name, unit, _ in metrics.PER_LAYER}
    finally:
        harness.remove_workdir(workdir)

    checks = [c for run in passes for c in run.checks]
    # A failed check counts as failed operations even when no single
    # operation can be blamed for it.
    failed = max(
        sum(run.failed for run in passes),
        sum(1 for _, ok, _ in checks if not ok),
    )
    measured = passes[0]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "input_sha256": inputs["digest"],
        "correct": all(ok for _, ok, _ in checks) and failed == 0,
        "attempted": max(1, sum(run.attempted for run in passes)),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
        "latencies": {
            name: stats.summarize(samples, 1e3)
            for name, samples in measured.lat.items()
        },
        "cpu_factor": {"setup": measured.setup_factor, "timed": measured.timed_factor},
        "setup_samples": len(measured.setup_s),
        "timed_wall_s": [run.wall_s for run in passes],
        "checks": [list(c) for c in checks],
        "box": box,
        "facts": measured.facts,
        "traced_facts": passes[-1].facts if trace else {},
    }


def print_run(detail: dict[str, Any]) -> None:
    print(f"# {detail['workload']} seed={detail['seed']} "
          f"seconds={detail['seconds']:g} trace={detail['trace']} "
          f"wal_sync={detail['facts']['wal_sync']} "
          f"client_threads={detail['facts']['client_threads']} "
          f"wire={detail['facts'].get('wire', 'none (embedded)')}")
    box = detail["box"]
    print(f"# box: nproc={box['nproc']} python={box['python']} "
          f"loadavg={box['loadavg_at_start']} fsync_probe={box['fsync_probe']}")
    for name, entry in detail["metrics"].items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")
    factor = detail["cpu_factor"]
    print(f"# cpu factor (1.0 = reported as measured): setup={factor['setup']:.3f} "
          f"timed={factor['timed']:.3f}")
    print("# latency samples of the measured pass (ms, as measured)")
    for name, s in detail["latencies"].items():
        tail = f"p{s['tail_q'] * 100:g}={s['tail']:.4f}" if s["tail_q"] else "no tail"
        print(f"{name:40s} n={s['n']:<7d} p50={s['p50']:.4f} {tail}")
    for name, ok, note in detail["checks"]:
        print(f"check {'ok  ' if ok else 'FAIL'} {name} {note}")
    print(f"# attempted={detail['attempted']} failed={detail['failed']} "
          f"correct={detail['correct']}")


# ------------------------------------------------------------ whole ledger


def run_ledger(args: argparse.Namespace) -> int:
    workloads = args.only.split(",") if args.only else list(WORKLOADS)
    out: dict[str, Any] = {
        "seed": args.seed, "seconds": args.seconds, "runs": args.runs,
        "workloads": {},
    }
    all_correct = True
    first_box: dict[str, Any] = {}
    scratch = harness.new_workdir("ledger")
    try:
        for workload in workloads:
            plan = [0] * args.runs + ([1] if args.traced else [])
            details = []
            for index, trace in enumerate(plan):
                detail_path = scratch / f"{workload}-{index}.json"
                cmd = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--detail-out", str(detail_path),
                ]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                if not detail_path.exists():
                    print(proc.stdout)
                    print(f"{workload}: run {index} produced no result "
                          f"(exit {proc.returncode})")
                    return 1
                details.append(json.loads(detail_path.read_text()))
            first_box = first_box or details[0]["box"]
            entry = summarize_workload(details)
            out["workloads"][workload] = entry
            all_correct &= entry["correct"]
            print_workload(workload, entry)
    finally:
        harness.remove_workdir(scratch)
    out["box"] = first_box
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0 if all_correct else 1


def summarize_workload(details: list[dict[str, Any]]) -> dict[str, Any]:
    untraced = [d for d in details if not d["trace"]]
    traced = [d for d in details if d["trace"]]
    end_to_end = {}
    for name, unit, better, bound in metrics.END_TO_END:
        values = [d["metrics"][name]["value"] for d in untraced]
        quartiles = (
            statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        )
        end_to_end[name] = {
            "unit": unit, "better": better, "bound": bound, "values": values,
            "median": statistics.median(values),
            "q1": quartiles[0], "q3": quartiles[2],
            "spread": stats.spread(values),
        }
    return {
        "correct": all(d["correct"] for d in details),
        "attempted": sum(d["attempted"] for d in details),
        "failed": sum(d["failed"] for d in details),
        "input_sha256": details[0]["input_sha256"],
        "end_to_end": end_to_end,
        "latencies": untraced[0]["latencies"] if untraced else {},
        "facts": untraced[0]["facts"] if untraced else {},
        "per_layer": traced[0]["metrics"] if traced else {},
        "traced_facts": traced[0]["traced_facts"] if traced else {},
        "checks": [c for d in details for c in d["checks"] if not c[1]],
    }


def print_workload(workload: str, entry: dict[str, Any]) -> None:
    print(f"\n== {workload}: attempted={entry['attempted']} "
          f"failed={entry['failed']} correct={entry['correct']}")
    for name, e in entry["end_to_end"].items():
        print(f"  {name:28s} median={e['median']:<12.6g} {e['unit']:16s} "
              f"runs={len(e['values'])} spread={e['spread']:.3f} bound={e['bound']}")
    for name, s in entry["latencies"].items():
        tail = f"p{s['tail_q'] * 100:g}={s['tail']:.4f}" if s["tail_q"] else "no tail"
        print(f"  latency {name:26s} n={s['n']:<7d} p50={s['p50']:.4f}ms {tail}ms")
    for name, e in entry["per_layer"].items():
        print(f"  layer {name:38s} {e['value']:>14.6g} {e['unit']}")
    for name, _, note in entry["checks"]:
        print(f"  FAILED check {name}: {note}")


# --------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="one run: same as --trace 1; ledger: add a traced run")
    parser.add_argument("--runs", type=int, default=5,
                        help="ledger: untraced runs per workload")
    parser.add_argument("--only", default="",
                        help="ledger: comma-separated workloads")
    parser.add_argument("--out", default="", help="ledger: result file to write")
    parser.add_argument("--detail-out", default="",
                        help="one run: also write the full record here")
    args = parser.parse_args(argv)
    if not (harness.SRC_DIR / "repro").is_dir():
        print(f"no system to measure: {harness.SRC_DIR / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = default_seconds()
    if args.workload is None:
        return run_ledger(args)

    detail = run_once(args.workload, args.seed, args.seconds,
                      bool(args.trace) or args.traced)
    print_run(detail)
    if args.detail_out:
        Path(args.detail_out).write_text(json.dumps(detail, default=str))
    print(json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": detail["metrics"],
    }))
    return 0 if detail["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
