"""Replay of the lattice, strata and light benchmark request universes
against their oracles.

Every member of `perfbench/workloads.lattice_universe()`,
`strata_universe()` and `light_universe()` goes through `cli.main`, and its
exit status and stdout sha256 must equal the entry in
`perfbench/oracle/<workload>.json`. A member recorded as a known failure
must exit 3 and print the recorded envelope, byte for byte, as one line.
Each universe is replayed twice in one process: in its own order, then in
a seeded shuffled order that keeps each `classify -> yu-sequence` chain in
its order, so no answer depends on what earlier requests left behind (root
data are shared across requests). Nothing under `perfbench/` is written.
"""

import random
import sys
from pathlib import Path

from polarium import cli, looplie
from polarium.cyclo import CycloNumber

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import harness  # noqa: E402
import workloads  # noqa: E402


def _shuffled(universe: dict, seed: int) -> list[str]:
    """The request ids in a seeded random order in which each chain keeps
    the places its members drew, filled in its own order."""
    order = list(universe)
    random.Random(seed).shuffle(order)

    def chain(rid):
        while universe[rid].chain_from is not None:
            rid = universe[rid].chain_from
        return rid

    members, places = {}, {}
    for rid in universe:
        members.setdefault(chain(rid), []).append(rid)
    for place, rid in enumerate(order):
        places.setdefault(chain(rid), []).append(place)
    for head, rids in members.items():
        for place, rid in zip(places[head], rids):
            order[place] = rid
    return order


def _replay(workload: str) -> None:
    oracle = harness.load_oracle(workload)
    assert oracle["universe_sha256"] == workloads.universe_digest(workload)
    entries = oracle["entries"]
    universe = workloads.UNIVERSES[workload]()
    for order in (list(universe), _shuffled(universe, seed=1)):
        _replay_in_order(universe, order, entries)


def _replay_in_order(universe: dict, order: list[str], entries: dict) -> None:
    outputs = {}
    for rid in order:
        req = universe[rid]
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
