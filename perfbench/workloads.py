"""Seeded request streams for the three benchmark workloads.

A request is a subcommand plus the JSON document a user would pipe into
`polarium <command> --input -`. Each workload draws from a finite, numbered
universe of requests whose expected outcomes are recorded in
`oracle/<workload>.json`; the run seed decides which universe members a run
sends and in what order. Every document is built here from constants and the
seed, never by calling polarium, so a change to the program cannot change its
inputs. The two exceptions are named: the epipelagic and homogeneous lattice
data are frozen copies in `data/lattice_data.json`, and a `yu-sequence`
request in the light workload takes the stdout of the `classify` request
before it, as in the README pipeline.

Requests come in rounds. A round has a fixed composition per workload, so
every run issues the same mix of request kinds whatever the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("lattice", "strata", "light")


@dataclass(frozen=True)
class Request:
    rid: str            # stable id, the key into the oracle
    command: str        # polarium subcommand
    text: str | None    # request document; None for a chained request
    chain_from: str | None = None  # rid whose stdout is this request's input


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _req(rid: str, command: str, doc) -> Request:
    return Request(rid, command, dumps(doc))


# -- lattice ----------------------------------------------------------------

EPIPELAGIC_LATTICE = (("A1", 2), ("A2", 3), ("A3", 4), ("A4", 5))
HOMOGENEOUS_LATTICE = (("A3", 4, 3), ("A4", 5, 2), ("A4", 5, 3))
SL2_COEFFS = ("1", "2", "3", "-1", "-2", "1/2", "3/2", "-1/3", "5", "7")
SL2_PER_ROUND = 3
LATTICE_COMMANDS = (("jlattice", None), ("moveability", "J"), ("moveability", "K"))

SL3_TWO_BREAK = {"type": "A2", "lambda": {"m": 1, "terms": [
    {"q": "2", "coeff": ["3", "0"]}, {"q": "1", "coeff": ["-1", "2"]}]}}
# Acceptance criterion 9: a forced one-break ladder on a non-polar datum,
# whose K-lattice has a rank defect (expected exit 2).
FORCED_LADDER_K = {
    "datum": {"type": "A2", "levi": [], "validate": False,
              "lambda": {"m": 1, "terms": [{"q": "1", "coeff": ["1", "0"]}]}},
    "variant": "K",
    "ladder": {"breaks": ["1"], "levels": [[], [0, 1, 2, 3, 4, 5]], "validate": False},
}


def epipelagic_key(type_: str, m: int) -> str:
    return f"epi-{type_}-{m}"


def homogeneous_key(type_: str, m: int, i: int) -> str:
    return f"hom-{type_}-{m}-{i}"


def load_lattice_data() -> dict:
    return json.loads((HERE / "data" / "lattice_data.json").read_text(encoding="utf-8"))


def _lattice_triple(name: str, datum: dict, x) -> list[Request]:
    """jlattice, moveability J and moveability K on one datum."""
    out = []
    for command, variant in LATTICE_COMMANDS:
        doc = {"datum": datum}
        if variant:
            doc["variant"] = variant
        if x is not None:
            doc["x"] = x
        out.append(_req(_lattice_rid(name, command, variant), command, doc))
    return out


def _lattice_rid(name: str, command: str, variant: str | None) -> str:
    return f"{name}/{command}" + (f"-{variant}" if variant else "")


def _sl2_name(coeff: str) -> str:
    return f"sl2-toral-c={coeff}"


def _sl2_datum(coeff: str) -> dict:
    return {"type": "A1", "lambda": {"m": 1, "terms": [{"q": "1", "coeff": [coeff]}]}}


def lattice_universe() -> dict[str, Request]:
    data = load_lattice_data()
    reqs = []
    for type_, m in EPIPELAGIC_LATTICE:
        key = epipelagic_key(type_, m)
        reqs += _lattice_triple(key, data[key], None)
    for type_, m, i in HOMOGENEOUS_LATTICE:
        key = homogeneous_key(type_, m, i)
        reqs += _lattice_triple(key, data[key], None)
    for c in SL2_COEFFS:
        reqs += _lattice_triple(_sl2_name(c), _sl2_datum(c), ["1/4"])
    reqs += _lattice_triple("sl3-two-break", SL3_TWO_BREAK, "rho/2")
    reqs.append(_req("forced-ladder/moveability-K", "moveability", FORCED_LADDER_K))
    return {r.rid: r for r in reqs}


def _lattice_rounds(rng: random.Random):
    universe = lattice_universe()
    sl2 = {c: [_lattice_rid(_sl2_name(c), cmd, v) for cmd, v in LATTICE_COMMANDS]
           for c in SL2_COEFFS}
    fixed = [rid for rid in universe if rid not in {r for rs in sl2.values() for r in rs}]
    while True:
        rids = fixed + [rid for c in rng.sample(SL2_COEFFS, SL2_PER_ROUND) for rid in sl2[c]]
        rng.shuffle(rids)
        yield [universe[rid] for rid in rids]


# -- strata -----------------------------------------------------------------

PARTITION_TYPES = ("A2", "B2", "G2", "A3")
PARTITION_SEEDS = 64           # universe: seeds 0..63 per type
PARTITION_SAMPLES = 12
PARTITION_PER_TYPE = 22        # per round
WEYL_TYPES = ("B3", "C3", "A4", "D4", "B4", "A5", "D5")


def strata_universe() -> dict[str, Request]:
    reqs = []
    for t in WEYL_TYPES:
        reqs.append(_req(f"regular-numbers/{t}", "regular-numbers", {"type": t}))
        reqs.append(_req(f"list-tori/{t}", "list-tori", {"type": t}))
    reqs.append(_req("verify-sl2/default", "verify-sl2", {"grid": "default"}))
    for t in PARTITION_TYPES:
        for s in range(PARTITION_SEEDS):
            reqs.append(_req(f"partition-check/{t}/seed={s}", "partition-check",
                             {"type": t, "samples": PARTITION_SAMPLES, "seed": s}))
    return {r.rid: r for r in reqs}


def strata_fixed_rids() -> list[str]:
    """The Weyl-group and verify-sl2 requests every strata round carries."""
    return [f"{c}/{t}" for t in WEYL_TYPES for c in ("regular-numbers", "list-tori")] \
        + ["verify-sl2/default"]


def _strata_rounds(rng: random.Random):
    universe = strata_universe()
    while True:
        rids = strata_fixed_rids()
        for t in PARTITION_TYPES:
            rids += [f"partition-check/{t}/seed={s}"
                     for s in rng.sample(range(PARTITION_SEEDS), PARTITION_PER_TYPE)]
        rng.shuffle(rids)
        yield [universe[rid] for rid in rids]


# -- light ------------------------------------------------------------------

# Semisimple rank of each type; a split-torus tail coefficient has one entry
# per simple coroot.
LIGHT_TYPES = {"A1": 1, "A2": 2, "A3": 3, "B2": 2, "G2": 2, "C3": 3, "D4": 4}
LIGHT_TAILS = 1024             # universe of classify -> yu-sequence chains
LIGHT_EPIPELAGIC = (("A1", 2), ("A2", 2), ("A2", 3), ("B2", 2), ("B2", 4),
                    ("G2", 2), ("G2", 3), ("G2", 6))
LIGHT_HOMOGENEOUS = (("A1", 2, 1), ("A2", 2, 1), ("A2", 3, 1), ("A2", 3, 2),
                     ("B2", 2, 1), ("B2", 4, 1), ("B2", 4, 3), ("G2", 6, 1), ("G2", 6, 5))
LIGHT_LIST_TORI = ("A1", "A2", "B2", "G2")
LIGHT_REJECTED = 48
# Per round: 16 chains (32 requests), 2 each of epipelagic, homogeneous,
# list-tori and schema-rejected classify documents: 40 requests.
CHAINS_PER_ROUND = 16
OTHERS_PER_ROUND = 2
_COEFF_CHOICES = ("-3", "-2", "-1", "0", "0", "1", "1", "2", "3", "1/2", "-3/2", "5/3")


def split_tail_doc(k: int) -> dict:
    """Universe member k: a classify request on a split-torus tail.

    Built from `random.Random(k)` alone: one to three integer exponents, each
    with a nonzero rational coefficient vector. Zero entries are common, so a
    good share of the tails are non-regular and classify to a nonempty Levi.
    """
    rng = random.Random(k)
    type_ = sorted(LIGHT_TYPES)[rng.randrange(len(LIGHT_TYPES))]
    rank = LIGHT_TYPES[type_]
    terms = []
    for q in sorted(rng.sample(range(1, 5), rng.randint(1, 3)), reverse=True):
        coeff = ["0"] * rank
        while all(c == "0" for c in coeff):
            coeff = [rng.choice(_COEFF_CHOICES) for _ in range(rank)]
        terms.append({"q": str(q), "coeff": coeff})
    return {"type": type_, "lambda": {"m": 1, "terms": terms}}


def rejected_doc(k: int) -> dict:
    """Universe member k of the schema-rejected classify documents."""
    doc = split_tail_doc(10_000 + k)
    kind = k % 6
    if kind == 0:
        doc["lambda"]["terms"][0]["coeff"][0] = "x"
    elif kind == 1:
        doc["extra"] = 1
    elif kind == 2:
        del doc["lambda"]
    elif kind == 3:
        doc["lambda"]["m"] = 0
    elif kind == 4:
        doc["lambda"]["terms"][0]["q"] = "1.5"
    else:
        doc["lambda"]["terms"][0]["power"] = 1
    return doc


def chain_rids(k: int) -> tuple[str, str]:
    return f"classify/{k:04d}", f"yu-sequence/{k:04d}"


def light_universe() -> dict[str, Request]:
    reqs = []
    for k in range(LIGHT_TAILS):
        c, y = chain_rids(k)
        reqs.append(_req(c, "classify", split_tail_doc(k)))
        reqs.append(Request(y, "yu-sequence", None, chain_from=c))
    for t, m in LIGHT_EPIPELAGIC:
        reqs.append(_req(f"epipelagic/{t}/{m}", "epipelagic", {"type": t, "m": m}))
    for t, m, i in LIGHT_HOMOGENEOUS:
        reqs.append(_req(f"homogeneous/{t}/{m}/{i}", "homogeneous", {"type": t, "m": m, "i": i}))
    for t in LIGHT_LIST_TORI:
        reqs.append(_req(f"list-tori/{t}", "list-tori", {"type": t}))
    for k in range(LIGHT_REJECTED):
        reqs.append(_req(f"rejected/{k:02d}", "classify", rejected_doc(k)))
    return {r.rid: r for r in reqs}


def _light_rounds(rng: random.Random):
    universe = light_universe()
    order = list(range(LIGHT_TAILS))
    rng.shuffle(order)
    pos = 0
    others = (
        [f"epipelagic/{t}/{m}" for t, m in LIGHT_EPIPELAGIC],
        [f"homogeneous/{t}/{m}/{i}" for t, m, i in LIGHT_HOMOGENEOUS],
        [f"list-tori/{t}" for t in LIGHT_LIST_TORI],
        [f"rejected/{k:02d}" for k in range(LIGHT_REJECTED)],
    )
    while True:
        units = []
        for _ in range(CHAINS_PER_ROUND):
            units.append(chain_rids(order[pos % LIGHT_TAILS]))
            pos += 1
        for pool in others:
            units += [(rid,) for rid in rng.sample(pool, OTHERS_PER_ROUND)]
        rng.shuffle(units)
        yield [universe[rid] for unit in units for rid in unit]


# -- common -----------------------------------------------------------------

UNIVERSES = {"lattice": lattice_universe, "strata": strata_universe, "light": light_universe}
_ROUNDS = {"lattice": _lattice_rounds, "strata": _strata_rounds, "light": _light_rounds}

# A timed run sends at least this many whole rounds: 136, 103 and 120
# requests, so p90 always has ten samples beyond it. Lattice gets four rounds
# because three A4 jlattice requests per round take half its time, and the
# spread of those few long requests sets the spread of the run.
MIN_ROUNDS = {"lattice": 4, "strata": 1, "light": 3}

# The trace list is a fixed prefix of the stream, so two traced runs with one
# seed make exactly the same calls.
TRACE_ROUNDS = {"lattice": 1, "strata": 1, "light": 5}

# The request every workload child sends before timing starts, and the one a
# fresh interpreter answers when set-up time is measured.
SETUP_REQUEST = _req("setup/list-tori/A1", "list-tori", {"type": "A1"})


def digest(requests) -> str:
    """sha256 over the ids, commands and documents of a request sequence."""
    h = hashlib.sha256()
    for req in requests:
        h.update(f"{req.rid}\0{req.command}\0{req.text or req.chain_from}\n".encode())
    return h.hexdigest()


def universe_digest(workload: str) -> str:
    return digest(UNIVERSES[workload]().values())


def rounds(workload: str, seed: int):
    """Endless stream of rounds (lists of Request) for one workload and seed."""
    return _ROUNDS[workload](random.Random(f"{workload}:{seed}"))
