"""The traced benchmark run's layer checks, in process.

`perfbench/run.py --trace 1` exits 1 when `client.layer_errors` names a
layer of `client.LAYER_WORK` that made no calls, or a required metric that
reads 0. Here seed 1's fixed trace list of each workload goes through
`harness.send` the way `client.traced_run` sends it: each request once
untraced, then once with `perfbench/tracer.Tracer` installed. Every layer
check must pass, every response the oracle does not record as a known
failure must match it, and `uninstall` must put back every binding the
tracer replaced. Nothing under `perfbench/` is written: the spans are never
saved.
"""

import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import client  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every polarium module and of every class defined
    in one, by identity: what the tracer may rebind."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "polarium" or modname.startswith("polarium.")):
            continue
        for attr, value in list(vars(module).items()):
            out[(modname, attr)] = value
            if isinstance(value, type) and value.__module__ == modname:
                out.update({(modname, attr, name): member
                            for name, member in vars(value).items()})
    return out


@pytest.mark.parametrize("workload", ["lattice", "strata", "light"])
def test_traced_run_passes_its_layer_checks(workload):
    cli = harness.import_cli()
    oracle = harness.load_oracle(workload)
    session = client.Session(cli, oracle)
    session.send(workloads.SETUP_REQUEST)
    session.reset()
    requests = [req for batch in itertools.islice(workloads.rounds(workload, 1),
                                                  workloads.TRACE_ROUNDS[workload])
                for req in batch]
    before = _bindings()
    tracer = Tracer()
    for req in requests:
        session.send(req)
        tracer.install()
        try:
            assert cli.main is not before[("polarium.cli", "main")]
            session.send(req, tracer)
        finally:
            tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    # as in run.py, only a failure the oracle does not record as known counts
    assert [f for f in session.failed
            if not oracle["entries"][f["rid"]].get("known_failure")] == []
    agg = tracer.aggregate()
    # the throughputs feed only the trace.* metrics, which no layer check reads
    metrics = client.layer_metrics(tracer, agg, 1.0, 1.0)
    assert client.layer_errors(workload, tracer, agg, metrics) == []
