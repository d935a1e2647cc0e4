"""Outside-in tracer: spans and counters around polarium's public functions.

Nothing inside the program is edited. `Tracer.install` rebinds each traced
function in every `polarium` module namespace that holds it (so the copy
`from .linalg import in_span` left in `looplie` is traced too) and patches
traced methods and constructors on their class. `uninstall` puts every
original back.

Spans live in flat in-memory arrays: request index, parent span, name,
start and end in nanoseconds. They are written out once, when the run ends.
A layer's self time is its span durations minus the time covered by its
direct child spans. `CycloNumber` arithmetic is far too frequent for spans
(one A4 lattice request makes about 480k constructions), so it only feeds
counters: operations, operations whose result has conductor > 1, and the
time spent in outermost operations.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

# (module, qualified name, span name). A qualified name with a dot is a
# method on a class; `__init__` spans are named after the class.
SPANS = (
    ("cli", "main", "cli.main"),
    ("jsonio", "validate_request", "jsonio.validate_request"),
    ("jsonio", "datum_from_json", "jsonio.datum_from_json"),
    ("jsonio", "datum_to_json", "jsonio.datum_to_json"),
    ("jsonio", "canonical_dumps", "jsonio.canonical_dumps"),
    ("looplie", "Realization.__init__", "looplie.Realization"),
    ("looplie", "Realization.bracket_monomials", "looplie.Realization.bracket_monomials"),
    ("looplie", "Realization.pair_dual_bracket", "looplie.Realization.pair_dual_bracket"),
    ("looplie", "JLattice.piece_at_degree", "looplie.JLattice.piece_at_degree"),
    ("looplie", "bracket_closure_violations", "looplie.bracket_closure_violations"),
    ("looplie", "psi_lambda_check", "looplie.psi_lambda_check"),
    ("looplie", "moveability_check", "looplie.moveability_check"),
    ("looplie", "v_piece_at_degree", "looplie.v_piece_at_degree"),
    ("looplie", "lagrangian", "looplie.lagrangian"),
    ("linalg", "in_span", "linalg.in_span"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "rref", "linalg.rref"),
    ("rootdata", "build", "rootdata.build"),
    ("rootdata", "RootDatum.weyl_elements", "rootdata.weyl_elements"),
    ("rootdata", "is_q_closed", "rootdata.is_q_closed"),
    ("tori", "TorusClass.__init__", "tori.TorusClass"),
    ("tori", "list_torus_classes", "tori.list_torus_classes"),
    ("tori", "conjugacy_classes", "tori.conjugacy_classes"),
    ("polar", "classify", "polar.classify"),
    ("polar", "PolarDatum.__init__", "polar.PolarDatum"),
    ("polar", "conjugate_oracle", "polar.conjugate_oracle"),
    ("polar", "partition_check", "polar.partition_check"),
    ("polar", "homogeneous_datum", "polar.homogeneous_datum"),
    ("tails", "pair_coroot", "tails.pair_coroot"),
    ("tails", "Tail.weyl_act", "tails.Tail.weyl_act"),
    ("yuseq", "extract", "yuseq.extract"),
    ("chevmap", "verify_sl2", "chevmap.verify_sl2"),
    ("chevmap", "sl2_crosscheck", "chevmap.sl2_crosscheck"),
)

CYCLO_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "inverse")
CALL_COUNTERS = (("cyclo", "euler_phi", "cyclo.euler_phi.calls"),
                 ("cyclo", "sqrt_cyclo", "cyclo.sqrt_cyclo.calls"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.req = array("i")
        self.parent = array("i")
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.request_ids: list[str] = []
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self._serials: dict[int, tuple[object, int]] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        self._cyclo = [0, 0, 0, 0]  # ops, ops with conductor > 1, op ns, depth

    # -- spans -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.req.append(len(self.request_ids) - 1)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()
        self._stack.pop()

    def begin_request(self, rid: str) -> int:
        """Open the root span of one request; returns its span id."""
        self.request_ids.append(rid)
        self._serials.clear()
        return self._open(self._name_id("request"))

    def end_request(self, sid: int) -> None:
        self._close(sid)

    def serial(self, obj) -> int:
        """A per-request number for an object; holds it so ids stay unique."""
        entry = self._serials.get(id(obj))
        if entry is None:
            entry = self._serials[id(obj)] = (obj, len(self._serials))
        return entry[1]

    def _span_wrapper(self, fn, span: str, after):
        name_id = self._name_id(span)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            sid = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters attached to spans -------------------------------------

    def _after_hooks(self):
        """Counters read from a traced call's arguments and result.

        The hooked functions are always called positionally in polarium.
        """
        c, keys, serial = self.counters, self.keys, self.serial
        req = self.request_ids

        def in_span(args, kwargs, result):
            basis, target = args[0], args[1]
            c["linalg.in_span.entries"] += len(basis) * len(target)

        def piece(args, kwargs, result):
            keys["piece_at_degree"].add((len(req), serial(args[0]), args[1]))

        def bracket(args, kwargs, result):
            keys["bracket_monomials"].add((len(req), serial(args[0]), args[1][0], args[2][0]))

        def weyl(args, kwargs, result):
            rd = args[0]
            seen = keys["weyl_enumerated"]
            key = (len(req), serial(rd))
            if key not in seen:
                seen.add(key)
                c["rootdata.weyl_order_total"] += len(result)

        def torus(args, kwargs, result):
            c["tori.eigenspaces_computed"] += len(args[0].eigenspaces)

        def dumps(args, kwargs, result):
            c["jsonio.output_bytes"] += len(result.encode("utf-8"))

        return {"linalg.in_span": in_span, "looplie.JLattice.piece_at_degree": piece,
                "looplie.Realization.bracket_monomials": bracket,
                "rootdata.weyl_elements": weyl, "tori.TorusClass": torus,
                "jsonio.canonical_dumps": dumps}

    def _cyclo_wrapper(self, fn):
        state = self._cyclo

        def op(*args):
            state[0] += 1
            if state[3]:
                result = fn(*args)
            else:
                state[3] = 1
                t0 = perf_counter_ns()
                try:
                    result = fn(*args)
                finally:
                    state[2] += perf_counter_ns() - t0
                    state[3] = 0
            if getattr(result, "conductor", 1) > 1:
                state[1] += 1
            return result

        op.__wrapped__ = fn
        return op

    def _count_wrapper(self, fn, counter: str):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation ----------------------------------------------------

    def _holders(self, original) -> list[tuple[object, str]]:
        """Every (polarium module, name) binding `original`."""
        out = []
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "polarium" or modname.startswith("polarium.")):
                continue
            out += [(module, attr) for attr, value in vars(module).items() if value is original]
        return out

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, replacement) for every patch."""
        plan = []
        hooks = self._after_hooks()
        for modname, qualname, span in SPANS:
            module = importlib.import_module(f"polarium.{modname}")
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                fn = cls.__dict__[attr]
                plan.append((cls, attr, fn, self._span_wrapper(fn, span, hooks.get(span))))
                continue
            fn = getattr(module, qualname)
            wrapper = self._span_wrapper(fn, span, hooks.get(span))
            plan += [(owner, attr, fn, wrapper) for owner, attr in self._holders(fn)]
        cyclo = importlib.import_module("polarium.cyclo")
        for attr in CYCLO_OPS:
            fn = cyclo.CycloNumber.__dict__[attr]
            plan.append((cyclo.CycloNumber, attr, fn, self._cyclo_wrapper(fn)))
        for modname, fname, counter in CALL_COUNTERS:
            fn = getattr(importlib.import_module(f"polarium.{modname}"), fname)
            wrapper = self._count_wrapper(fn, counter)
            plan += [(owner, attr, fn, wrapper) for owner, attr in self._holders(fn)]
        return plan

    def install(self) -> None:
        """Patch every traced function; the plan is built on first use."""
        if not self._patches:
            self._patches = self._plan()
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, total and self time in nanoseconds."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["total_ns"] += dur[i]
            row["self_ns"] += dur[i] - child[i]
        return out

    def counter_totals(self) -> dict[str, int]:
        """Every counter, the cyclo ones included; unknown names read 0."""
        ops, gt1, ns, _ = self._cyclo
        return defaultdict(int, self.counters, **{
            "cyclo.ops": ops, "cyclo.ops_conductor_gt1": gt1, "cyclo.op_ns": ns})

    def write(self, path) -> None:
        """Write every span, column-wise, as gzipped JSON."""
        doc = {
            "names": self.names,
            "requests": self.request_ids,
            "columns": ["request", "parent", "name", "start_ns", "end_ns"],
            "request": self.req.tolist(),
            "parent": self.parent.tolist(),
            "name": self.name.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "counters": self.counter_totals(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            json.dump(doc, fh, separators=(",", ":"))
