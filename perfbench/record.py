"""Record the correctness oracle: expected exit status and stdout sha256 of
every request in every workload universe, as the current program answers.

    python3 perfbench/record.py

Run this only on the commit that defines the benchmark's expectations. A
request that exits 3 or raises is stored as a known failure with its message,
never as an expected outcome. The frozen lattice data in
`data/lattice_data.json` are captured from the program's `epipelagic` and
`homogeneous` commands the first time this runs and kept from then on.
"""

from __future__ import annotations

import json
import subprocess
import sys

import harness
import workloads


def _write_oracle(path, head: dict, entries: dict) -> None:
    """One entry per line, so a re-recording diffs request by request."""
    lines = [f" {json.dumps(rid)}: {json.dumps(e, sort_keys=True)}" for rid, e in entries.items()]
    body = json.dumps(head, sort_keys=True)[:-1]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f'{body}, "entries": {{\n' + ",\n".join(lines) + "\n}}\n",
                    encoding="utf-8")


def capture_lattice_data(main) -> None:
    path = workloads.HERE / "data" / "lattice_data.json"
    if path.exists():
        return
    requests = [(workloads.epipelagic_key(t, m), "epipelagic", {"type": t, "m": m})
                for t, m in workloads.EPIPELAGIC_LATTICE]
    requests += [(workloads.homogeneous_key(t, m, i), "homogeneous", {"type": t, "m": m, "i": i})
                 for t, m, i in workloads.HOMOGENEOUS_LATTICE]
    data = {}
    for key, command, doc in requests:
        resp = harness.send(main, command, workloads.dumps(doc))
        if resp.status != 0:
            raise SystemExit(f"{command} {doc} failed: {resp.error or resp.stdout}")
        data[key] = json.loads(resp.stdout)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def record(main, validator, requests) -> dict:
    entries = {}
    outputs = {}
    for req in requests:
        text = req.text if req.chain_from is None else outputs[req.chain_from]
        resp = harness.send(main, req.command, text)
        entry = {}
        if resp.error is not None or resp.status == 3:
            entry["known_failure"] = resp.error or resp.stdout.strip()
            print(f"known failure {req.rid}: {entry['known_failure']}", file=sys.stderr)
        else:
            problems = validator.errors(req.command, resp.status, resp.stdout)
            if problems:
                raise SystemExit(f"{req.rid}: response violates its schema: {problems}")
            if req.rid.startswith("rejected/") and "rejected by schema" not in resp.stdout:
                raise SystemExit(f"{req.rid} was meant to fail schema validation: {resp.stdout}")
            entry["exit"] = resp.status
            entry["stdout_sha256"] = harness.sha256(resp.stdout)
        entries[req.rid] = entry
        outputs[req.rid] = resp.stdout
    return entries


def git_sha() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=harness.ROOT,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def main() -> int:
    cli = harness.import_cli()
    validator = harness.ResponseValidator()
    capture_lattice_data(cli.main)
    sha = git_sha()
    for name in workloads.WORKLOADS:
        universe = list(workloads.UNIVERSES[name]().values()) + [workloads.SETUP_REQUEST]
        entries = record(cli.main, validator, universe)
        head = {"recorded_at": sha, "workload": name,
                "universe_sha256": workloads.universe_digest(name)}
        _write_oracle(harness.ORACLE_DIR / f"{name}.json", head, entries)
        print(f"{name}: {len(entries)} requests recorded", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
