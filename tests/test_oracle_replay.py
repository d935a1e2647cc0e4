"""Replay of the lattice, strata and light benchmark request universes
against their oracles.

Every member of `perfbench/workloads.lattice_universe()`,
`strata_universe()` and `light_universe()` goes through `cli.main`, and its
exit status and stdout sha256 must equal the entry in
`perfbench/oracle/<workload>.json`. A member recorded as a known failure
must exit 3 and print the recorded envelope, byte for byte, as one line.
Nothing under `perfbench/` is written.
"""

import sys
from pathlib import Path

from polarium import cli, looplie
from polarium.cyclo import CycloNumber

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import harness  # noqa: E402
import workloads  # noqa: E402


def _replay(workload: str) -> None:
    oracle = harness.load_oracle(workload)
    assert oracle["universe_sha256"] == workloads.universe_digest(workload)
    entries = oracle["entries"]
    outputs = {}
    for rid, req in workloads.UNIVERSES[workload]().items():
        text = req.text if req.chain_from is None else outputs[req.chain_from]
        resp = harness.send(cli.main, req.command, text)
        assert resp.error is None, (rid, resp.error)
        outputs[rid] = resp.stdout
        entry = entries[rid]
        if entry.get("known_failure"):
            assert resp.status == 3, (rid, resp.stdout[:200])
            assert resp.stdout == entry["known_failure"] + "\n", rid
            continue
        assert resp.status == entry["exit"], (rid, resp.stdout[:200])
        assert harness.sha256(resp.stdout) == entry["stdout_sha256"], rid


def test_lattice_universe_matches_oracle():
    _replay("lattice")


def test_strata_universe_matches_oracle():
    # partition-check, list-tori and regular-numbers bytes
    _replay("strata")


def test_light_universe_matches_oracle():
    # schema rejects included: their messages are part of the recorded bytes
    _replay("light")


def test_rational_lattice_requests_run_on_fractions(monkeypatch):
    # on rational data every lattice value is an int or a Fraction: while
    # the lattice is built and checked, CycloNumber addition and
    # multiplication raise, and the answers are still the recorded bytes
    def refuse(*args):
        raise AssertionError("CycloNumber arithmetic inside the lattice")

    def guarded(fn):
        def run(*args, **kwargs):
            with monkeypatch.context() as m:
                for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
                    m.setattr(CycloNumber, name, refuse)
                return fn(*args, **kwargs)
        return run

    for name in ("build_j_lattice", "psi_lambda_check", "moveability_check"):
        monkeypatch.setattr(looplie, name, guarded(getattr(looplie, name)))
    entries = harness.load_oracle("lattice")["entries"]
    universe = workloads.lattice_universe()
    for name in ("epi-A3-4", "sl3-two-break"):
        for command in ("jlattice", "moveability-J", "moveability-K"):
            rid = f"{name}/{command}"
            req = universe[rid]
            resp = harness.send(cli.main, req.command, req.text)
            assert resp.error is None, (rid, resp.error)
            assert resp.status == entries[rid]["exit"] == 0, (rid, resp.stdout[:200])
            assert harness.sha256(resp.stdout) == entries[rid]["stdout_sha256"], rid
