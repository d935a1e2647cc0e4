"""In-process client for `polarium.cli.main` plus the correctness oracle.

`send` is one closed-loop request: the document goes in through
`--input -` on a substituted stdin, and stdout is captured, exactly the bytes
a user would read. The oracle compares every response with the exit status
and stdout sha256 recorded at the commit the benchmark was defined on.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLE_DIR = HERE / "oracle"


class SetupError(Exception):
    """The checkout cannot be benchmarked (program or oracle missing)."""


def require_sources() -> None:
    if not (SRC / "polarium" / "cli.py").is_file():
        raise SetupError(f"no polarium sources under {SRC}")


def import_cli():
    """Import `polarium.cli` from this checkout's `src`, and nowhere else."""
    require_sources()
    sys.path.insert(0, str(SRC))
    from polarium import cli

    if Path(cli.__file__).resolve().parent != (SRC / "polarium").resolve():
        raise SetupError(f"polarium imported from {cli.__file__}, not {SRC}")
    return cli


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Response:
    status: int | None    # exit status returned by cli.main, or None
    stdout: str           # captured stdout text
    error: str | None     # repr of an exception that escaped, or None
    seconds: float        # wall time from the call to its return


def send(main, command: str, text: str) -> Response:
    """Run `polarium <command> --input -` with `text` on stdin."""
    out = io.StringIO()
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), out
    error = None
    status = None
    start = time.perf_counter()
    try:
        status = main([command, "--input", "-"])
    except (Exception, SystemExit) as exc:  # an argparse exit escapes main too
        error = repr(exc)
    finally:
        seconds = time.perf_counter() - start
        sys.stdin, sys.stdout = saved
    return Response(status, out.getvalue(), error, seconds)


# -- oracle -------------------------------------------------------------------


def load_oracle(workload: str) -> dict:
    path = ORACLE_DIR / f"{workload}.json"
    if not path.is_file():
        raise SetupError(f"missing oracle {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def judge(entry: dict, resp: Response) -> str:
    """Classify one response against its oracle entry.

    Returns "ok", "unverified" (a request recorded as a known failure now
    answers; it is not counted as failed but cannot be checked either), or
    the reason it failed.
    """
    if resp.error is not None:
        return f"exception {resp.error}"
    if resp.status == 3:
        return "exit 3: " + resp.stdout.strip()[:160]
    if entry.get("known_failure"):
        return "unverified" if resp.status in (0, 1, 2) else f"exit {resp.status}"
    if resp.status != entry["exit"]:
        return f"exit {resp.status}, expected {entry['exit']}"
    if sha256(resp.stdout) != entry["stdout_sha256"]:
        return "stdout differs from the recorded bytes"
    return "ok"


class ResponseValidator:
    """Checks responses against the shipped response schemas.

    The schemas are read from the checkout's `schemas.json` and compiled once
    with `jsonschema`, independently of the program's own validation code.
    """

    def __init__(self):
        import jsonschema

        store = json.loads((SRC / "polarium" / "schemas" / "schemas.json")
                           .read_text(encoding="utf-8"))
        self._validators = {}
        for key, schema in store["responses"].items():
            schema = dict(schema, **{"$defs": store["$defs"]})
            cls = jsonschema.validators.validator_for(schema)
            self._validators[key] = cls(schema)

    def errors(self, command: str, status: int, stdout: str) -> list[str]:
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"stdout is not JSON: {exc}"]
        key = "error" if status in (1, 3) else command.replace("-", "_")
        validator = self._validators.get(key)
        if validator is None:
            return [f"no response schema for {key}"]
        return [e.message for e in validator.iter_errors(doc)]
