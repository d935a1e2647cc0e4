"""polarium benchmark: one command, every metric, outputs checked.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. With `--trace 0` it measures set-up time
(fresh interpreters answering one trivial request), then starts the workload
client in a fresh interpreter and reports the end-to-end metrics named in
BENCHMARK.json. Every reported time is scaled to the nominal machine speed
by reference slices timed beside it (see reference.py); the raw wall times
are printed too. With `--trace 1` it reports the per-layer metrics from an
outside-in traced run instead. Human-readable lines come first; the last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. See perfbench/NOTES.md for the workloads and what each metric is
expected to show.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 9
SLICES_PER_GAP = 5
TOTAL_BUDGET_S = 170.0


def child_env() -> dict:
    """Fixed hash seed, the checkout's sources, and no worker-count override."""
    env = dict(os.environ)
    env.pop("POLARIUM_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def loadavg() -> list[float]:
    return [round(x, 2) for x in os.getloadavg()]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def gap_slice_seconds() -> float:
    """Median of a few reference slices, timed between two spawns."""
    return statistics.median(reference.slice_seconds() for _ in range(SLICES_PER_GAP))


def measure_setup(expected: dict, spawns: int) -> tuple[list[float], dict, list[str]]:
    """Wall time of `python -m polarium list-tori --input -` in fresh interpreters.

    Returns the scaled times, the raw times and slices, and any failed checks.
    """
    req = workloads.SETUP_REQUEST
    times, slices, problems = [], [gap_slice_seconds()], []
    for _ in range(spawns):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "polarium", req.command, "--input", "-"],
                              input=req.text, capture_output=True, text=True,
                              cwd=ROOT, env=child_env(), timeout=60)
        times.append(time.perf_counter() - start)
        slices.append(gap_slice_seconds())
        verdict = harness.judge(expected, harness.Response(proc.returncode, proc.stdout,
                                                           None, times[-1]))
        if verdict != "ok":
            problems.append(f"set-up request: {verdict}")
    return reference.scaled(times, slices), {"raw_s": times, "slice_s": slices}, problems


def run_client(args, budget_s: float) -> dict:
    cmd = [sys.executable, str(HERE / "client.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT, env=child_env())
    try:
        out, err = proc.communicate(timeout=budget_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise harness.SetupError(f"workload client exceeded {budget_s:.0f} s")
    if proc.returncode != 0:
        raise harness.SetupError(f"workload client exited {proc.returncode}: {err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def declared_metrics(trace: int) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def end_to_end(result: dict, setup_times: list[float]) -> dict:
    attempted = result["requests"]
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_rps": (result["throughput_rps"], "1/s"),
        "latency_p50_s": (result["latency_p50_s"], "s"),
        "latency_p90_s": (result["latency_p90_s"], "s"),
        "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
        "answered_ratio": (1.0 - len(result["failed"]) / attempted, "ratio"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def report(args, env: dict, result: dict, metrics: dict, setup_times, raw_setup) -> None:
    attempted = result["requests"]
    failed = result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"one client, closed loop")
    print("env " + json.dumps(env, sort_keys=True))
    if not args.trace:
        print(f"requests {attempted} in {result['rounds']} rounds over {result['loop_s']:.2f} s; "
              f"{result['samples_beyond_p90']} samples beyond p90")
        print("set-up spawns, scaled (s) " + " ".join(f"{t:.4f}" for t in setup_times))
        print("set-up spawns, raw (s) " + " ".join(f"{t:.4f}" for t in raw_setup["raw_s"]))
        print(f"raw wall time: throughput {result['raw_throughput_rps']:.6g} 1/s, "
              f"p50 {result['raw_latency_p50_s']:.6g} s, p90 {result['raw_latency_p90_s']:.6g} s; "
              f"median reference slice {statistics.median(result['slice_s']) * 1e3:.4f} ms")
    print(f"failed_ratio {len(failed) / attempted:.6f} ({len(failed)} of {attempted}); "
          f"known failures issued {result['known_failures_issued']}; "
          f"unverified {len(result['unverified'])}; "
          f"distinct responses schema-checked {result['distinct_responses']}")
    for rid in sorted({f["rid"] for f in failed}):
        reasons = {f["reason"] for f in failed if f["rid"] == rid}
        count = sum(1 for f in failed if f["rid"] == rid)
        print(f"  failed x{count} {rid}: {'; '.join(sorted(reasons))}")
    for err in result["schema_errors"]:
        print(f"  schema error {err['rid']}: {err['problems']}")
    for err in result.get("layer_errors", []):
        print(f"  layer error: {err}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description="polarium benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    try:
        harness.require_sources()
        oracle = harness.load_oracle(args.workload)
        env = {"git_sha": git_sha(), "python": platform.python_version(),
               "nproc": os.cpu_count(), "loadavg_before": loadavg()}
        setup_times, raw_setup, problems = [], {"raw_s": []}, []
        if not args.trace:
            setup_times, raw_setup, problems = measure_setup(
                oracle["entries"][workloads.SETUP_REQUEST.rid], SETUP_SPAWNS)
        result = run_client(args, TOTAL_BUDGET_S - (time.perf_counter() - started))
        env["loadavg_after"] = loadavg()
    except (harness.SetupError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics = result["metrics"]
        if result["layer_errors"]:
            report(args, env, result, metrics, setup_times, raw_setup)
            print("run.py: traced run failed its layer checks", file=sys.stderr)
            return 1
    else:
        metrics = end_to_end(result, setup_times)
    declared = declared_metrics(args.trace)
    if set(declared) != set(metrics) or any(metrics[k]["unit"] != u for k, u in declared.items()):
        print("run.py: computed metrics do not match BENCHMARK.json", file=sys.stderr)
        return 2
    metrics = {name: metrics[name] for name in declared}

    record = dict(result, env=env, setup_s=setup_times, raw_setup=raw_setup,
                  workload=args.workload, seed=args.seed,
                  trace=args.trace, metrics=metrics)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    report(args, env, result, metrics, setup_times, raw_setup)
    unexpected = [f for f in result["failed"]
                  if not oracle["entries"][f["rid"]].get("known_failure")]
    correct = not unexpected and not problems and not result["schema_errors"]
    for p in problems:
        print(f"  {p}")
    print(json.dumps({"correct": correct, "attempted": result["requests"],
                      "failed": len(result["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
