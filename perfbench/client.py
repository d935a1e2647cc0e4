"""Workload process: one client sending requests to `polarium.cli.main` in a
closed loop (the next request goes out only after the previous one returns).

    python3 perfbench/client.py --workload lattice --seed 1 --seconds 20 --trace 0

`run.py` starts this in a fresh interpreter and reads the JSON document it
prints on its last line. Untraced, it runs whole rounds until at least
`workloads.MIN_ROUNDS` are done and another round would end past `--seconds`.
Traced, it sends the fixed first TRACE_ROUNDS rounds, each request once
untraced and once traced, so that call counts repeat exactly and the tracing
overhead is measured on identical work.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import sys
import time

import harness
import reference
import workloads
from tracer import Tracer

HARD_STOP_S = 120.0      # never start a round after this, whatever the count
SPANS_DIR = harness.HERE / "out"

# Per-layer metrics from span aggregates: span name -> metrics it reports.
SPAN_METRICS = (
    ("cli.main", ("calls", "self_s")),
    ("jsonio.validate_request", ("calls", "self_s")),
    ("jsonio.datum_from_json", ("self_s",)),
    ("jsonio.datum_to_json", ("self_s",)),
    ("jsonio.canonical_dumps", ("self_s",)),
    ("looplie.Realization", ("self_s",)),
    ("looplie.bracket_closure_violations", ("self_s",)),
    ("looplie.psi_lambda_check", ("self_s",)),
    ("looplie.moveability_check", ("self_s",)),
    ("looplie.JLattice.piece_at_degree", ("calls", "self_s")),
    ("looplie.Realization.bracket_monomials", ("calls", "self_s")),
    ("looplie.Realization.pair_dual_bracket", ("calls",)),
    ("looplie.v_piece_at_degree", ("self_s",)),
    ("looplie.lagrangian", ("self_s",)),
    ("linalg.in_span", ("calls", "self_s")),
    ("linalg.nullspace", ("calls", "self_s")),
    ("linalg.rank", ("calls", "self_s")),
    ("linalg.rref", ("calls",)),
    ("rootdata.build", ("calls", "self_s")),
    ("rootdata.weyl_elements", ("calls", "self_s")),
    ("rootdata.is_q_closed", ("calls", "self_s")),
    ("tori.TorusClass", ("calls", "self_s")),
    ("tori.list_torus_classes", ("self_s",)),
    ("tori.conjugacy_classes", ("self_s",)),
    ("polar.classify", ("calls", "self_s")),
    ("polar.PolarDatum", ("calls",)),
    ("polar.conjugate_oracle", ("calls", "self_s")),
    ("polar.partition_check", ("self_s",)),
    ("polar.homogeneous_datum", ("self_s",)),
    ("tails.pair_coroot", ("calls", "self_s")),
    ("tails.Tail.weyl_act", ("calls", "self_s")),
    ("yuseq.extract", ("calls", "self_s")),
    ("chevmap.verify_sl2", ("self_s",)),
    ("chevmap.sl2_crosscheck", ("calls",)),
)

# Where each layer does its work; a traced run there with zero calls into
# the layer fails. Entries with a metric name also require that metric.
LAYER_WORK = {
    "cli": {"light": None},
    "jsonio": {"light": None},
    "looplie": {"lattice": None},
    "linalg": {"lattice": "linalg.in_span.calls", "strata": "linalg.nullspace.calls"},
    "cyclo": {"lattice": "cyclo.ops", "strata": "cyclo.ops_conductor_gt1"},
    "rootdata": {"strata": "rootdata.weyl_elements.calls"},
    "tori": {"strata": "tori.TorusClass.calls"},
    "polar": {"strata": "polar.conjugate_oracle.calls", "light": "polar.classify.calls"},
    "tails": {"strata": "tails.Tail.weyl_act.calls"},
    "yuseq": {"light": "yuseq.extract.calls"},
    "chevmap": {"strata": "chevmap.sl2_crosscheck.calls"},
}


def stream_digest(workload: str, seed: int, n_rounds: int = 8) -> str:
    rounds = itertools.islice(workloads.rounds(workload, seed), n_rounds)
    return workloads.digest(req for batch in rounds for req in batch)


class Session:
    """Sends requests, judges each response and keeps the bookkeeping."""

    def __init__(self, cli, oracle: dict):
        self.cli = cli
        self.entries = oracle["entries"]
        self.outputs: dict[str, str] = {}
        self.distinct: dict[tuple, tuple[str, str]] = {}
        self.reset()

    def reset(self) -> None:
        self.latencies: list[float] = []
        self.correct = 0
        self.failed: list[dict] = []
        self.unverified: list[str] = []
        self.known_failures_issued = 0

    def send(self, req: workloads.Request, tracer: Tracer | None = None) -> None:
        text = req.text if req.chain_from is None else self.outputs[req.chain_from]
        if tracer is not None:
            sid = tracer.begin_request(req.rid)
        # cli.main is looked up per call so that the tracer's rebinding applies.
        resp = harness.send(self.cli.main, req.command, text)
        if tracer is not None:
            tracer.end_request(sid)
        self.latencies.append(resp.seconds)
        self.outputs[req.rid] = resp.stdout
        entry = self.entries[req.rid]
        if entry.get("known_failure"):
            self.known_failures_issued += 1
        verdict = harness.judge(entry, resp)
        if verdict == "ok":
            self.correct += 1
        elif verdict == "unverified":
            self.unverified.append(req.rid)
        else:
            self.failed.append({"rid": req.rid, "reason": verdict})
        if resp.status in (0, 1, 2) and resp.error is None:
            key = (req.command, resp.status, harness.sha256(resp.stdout))
            self.distinct.setdefault(key, (req.rid, resp.stdout))

    def schema_errors(self) -> list[dict]:
        validator = harness.ResponseValidator()
        out = []
        for (command, status, _), (rid, stdout) in self.distinct.items():
            problems = validator.errors(command, status, stdout)
            if problems:
                out.append({"rid": rid, "problems": problems[:3]})
        return out

    def summary(self) -> dict:
        return {
            "requests": len(self.latencies),
            "correct": self.correct,
            "failed": self.failed,
            "unverified": self.unverified,
            "known_failures_issued": self.known_failures_issued,
        }


def timed_run(session: Session, workload: str, seed: int, seconds: float) -> dict:
    """Whole rounds with a reference slice before the first request and after
    each one; the reported timings are scaled by the slices around them."""
    stream = workloads.rounds(workload, seed)
    min_rounds = workloads.MIN_ROUNDS[workload]
    round_seconds = []
    slices = [reference.slice_seconds()]
    start = time.perf_counter()
    for batch in stream:
        round_start = time.perf_counter()
        for req in batch:
            session.send(req)
            slices.append(reference.slice_seconds())
        now = time.perf_counter()
        round_seconds.append(now - round_start)
        elapsed = now - start
        mean_round = elapsed / len(round_seconds)
        if (len(round_seconds) >= min_rounds and elapsed + mean_round > seconds) \
                or elapsed > HARD_STOP_S:
            break
    loop_s = time.perf_counter() - start
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = session.latencies
    lat = reference.scaled(raw, slices)
    deciles = statistics.quantiles(lat, n=10)
    return dict(session.summary(), **{
        "rounds": len(round_seconds),
        "round_seconds": round_seconds,
        "loop_s": loop_s,
        "throughput_rps": session.correct / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": deciles[8],
        "samples_beyond_p90": sum(1 for x in lat if x > deciles[8]),
        "raw_throughput_rps": session.correct / sum(raw),
        "raw_latency_p50_s": statistics.median(raw),
        "raw_latency_p90_s": statistics.quantiles(raw, n=10)[8],
        "slice_s": slices,
        "peak_rss_mib": rss_kib / 1024.0,
        "latencies": lat,
        "raw_latencies": raw,
    })


def traced_run(session: Session, workload: str, seed: int) -> dict:
    """Send the fixed trace list, each request first untraced, then traced.

    Running the twins back to back puts both under the same machine load, so
    the overhead estimate does not pick up drift between two separate passes.
    """
    requests = [req for batch in itertools.islice(workloads.rounds(workload, seed),
                                                  workloads.TRACE_ROUNDS[workload])
                for req in batch]
    tracer = Tracer()
    for req in requests:
        session.send(req)
        tracer.install()
        try:
            session.send(req, tracer)
        finally:
            tracer.uninstall()
    tracer.write(SPANS_DIR / f"spans-{workload}-seed{seed}.json.gz")
    untraced_s = sum(session.latencies[0::2])
    traced_s = sum(session.latencies[1::2])
    agg = tracer.aggregate()
    metrics = layer_metrics(tracer, agg, len(requests) / traced_s, len(requests) / untraced_s)
    return dict(session.summary(), metrics=metrics,
                layer_errors=layer_errors(workload, tracer, agg, metrics))


def layer_metrics(tracer: Tracer, agg: dict, traced_rps: float, untraced_rps: float) -> dict:
    empty = {"calls": 0, "self_ns": 0}
    out: dict[str, tuple[float, str]] = {}
    for span, kinds in SPAN_METRICS:
        row = agg.get(span, empty)
        if "calls" in kinds:
            out[f"{span}.calls"] = (row["calls"], "count")
        if "self_s" in kinds:
            out[f"{span}.self_s"] = (row["self_ns"] / 1e9, "s")
    c = tracer.counter_totals()

    def ratio(num, den):
        return num / den if den else 0.0

    out.update({
        "jsonio.output_bytes": (c["jsonio.output_bytes"], "bytes"),
        "looplie.piece_at_degree.unique_ratio": (ratio(
            len(tracer.keys["piece_at_degree"]),
            agg.get("looplie.JLattice.piece_at_degree", empty)["calls"]), "ratio"),
        "looplie.bracket_monomials.unique_ratio": (ratio(
            len(tracer.keys["bracket_monomials"]),
            agg.get("looplie.Realization.bracket_monomials", empty)["calls"]), "ratio"),
        "linalg.in_span.entries": (c["linalg.in_span.entries"], "count"),
        "cyclo.ops": (c["cyclo.ops"], "count"),
        "cyclo.ops_conductor_gt1": (c["cyclo.ops_conductor_gt1"], "count"),
        "cyclo.op_s": (c["cyclo.op_ns"] / 1e9, "s"),
        "cyclo.euler_phi.calls": (c["cyclo.euler_phi.calls"], "count"),
        "cyclo.sqrt_cyclo.calls": (c["cyclo.sqrt_cyclo.calls"], "count"),
        "rootdata.weyl_order_total": (c["rootdata.weyl_order_total"], "count"),
        "tori.eigenspaces_computed": (c["tori.eigenspaces_computed"], "count"),
        "polar.datums_per_classify": (ratio(
            agg.get("polar.PolarDatum", empty)["calls"],
            agg.get("polar.classify", empty)["calls"]), "ratio"),
        "trace.requests": (len(tracer.request_ids), "count"),
        "trace.spans": (len(tracer.start), "count"),
        "trace.throughput_rps": (traced_rps, "1/s"),
        "trace.untraced_throughput_rps": (untraced_rps, "1/s"),
        "trace.overhead_ratio": (1.0 - traced_rps / untraced_rps, "ratio"),
    })
    return {name: {"value": v, "unit": u} for name, (v, u) in out.items()}


def layer_errors(workload: str, tracer: Tracer, agg: dict, metrics: dict) -> list[str]:
    counters = tracer.counter_totals()
    errors = []
    for layer, where in LAYER_WORK.items():
        if workload not in where:
            continue
        total = sum(row["calls"] for name, row in agg.items() if name.startswith(layer + "."))
        total += sum(v for name, v in counters.items()
                     if name.startswith(layer + ".") and not name.endswith("_ns"))
        required = where[workload]
        if total == 0:
            errors.append(f"layer {layer} made no calls on {workload}")
        elif required and not metrics[required]["value"]:
            errors.append(f"{required} is zero on {workload}")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        cli = harness.import_cli()
        oracle = harness.load_oracle(args.workload)
    except harness.SetupError as exc:
        print(f"client: {exc}", file=sys.stderr)
        return 2
    if oracle["universe_sha256"] != workloads.universe_digest(args.workload):
        print("client: request universe differs from the one the oracle was recorded on",
              file=sys.stderr)
        return 2
    first, second = (stream_digest(args.workload, args.seed) for _ in range(2))
    if first != second:
        print("client: one seed produced two different request streams", file=sys.stderr)
        return 2

    session = Session(cli, oracle)
    session.send(workloads.SETUP_REQUEST)          # warm-up, checked like any other
    if session.failed:
        print(f"client: warm-up request failed: {session.failed}", file=sys.stderr)
        return 1
    session.reset()

    if args.trace:
        result = traced_run(session, args.workload, args.seed)
    else:
        result = timed_run(session, args.workload, args.seed, args.seconds)
    result["schema_errors"] = session.schema_errors()
    result["distinct_responses"] = len(session.distinct)
    result["stream_sha256"] = first
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
