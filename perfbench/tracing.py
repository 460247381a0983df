"""Span tracing of graftsim's layers, installed from outside the package.

``Tracer.install`` wraps every public function and every public method
and property of every public class of each graftsim layer module, and
patches each module binding of a wrapped function (``from .x import y``
copies), so a call is recorded whichever module makes it.  Each
``STRATEGIES`` entry is wrapped in place, since the engine looks
strategies up there.  ``uninstall`` restores every original.

A span is (name, start, end, parent, run id).  Spans live in flat arrays
in memory; ``write`` dumps them when the traced run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

LAYERS = ("contract", "witness", "ledger", "onchain", "offchain",
          "strategies", "harness", "trace")
# Modules whose bindings are patched besides the layers themselves.
_BINDERS = ("graftsim", "graftsim.treegen")

STRATEGY = "strategies.STRATEGIES"
OBSERVE = "harness._Engine._observe"
TRY_APPEND = "ledger.ChainState.try_append"


class Tracer:
    def __init__(self) -> None:
        self.codes: List[str] = []
        self._code_of: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.run_id = [0]
        # Per span name, calls whose result ``classify`` marked as a hit.
        self.hits: Counter = Counter()
        self._patches: List[tuple] = []

    # -- installing ------------------------------------------------------------

    def _code(self, name: str) -> int:
        if name not in self._code_of:
            self._code_of[name] = len(self.codes)
            self.codes.append(name)
        return self._code_of[name]

    def _wrap(self, fn: Callable, name: str,
              classify: Optional[Callable[[object], bool]] = None) -> Callable:
        code = self._code(name)
        names, parents, runs = self.name, self.parent, self.run
        starts, ends, stack, run_id = self.start, self.end, self.stack, self.run_id
        hits, clock = self.hits, time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(code)
            parents.append(stack[-1])
            runs.append(run_id[0])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if classify is not None and classify(result):
                hits[name] += 1
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(value):
                classify = (lambda error: error is not None) if name == TRY_APPEND else None
                self._patch(cls, attr, self._wrap(value, name, classify))
            elif isinstance(value, property) and value.fget is not None:
                self._patch(cls, attr, property(self._wrap(value.fget, name),
                                                value.fset, value.fdel, value.__doc__))

    def install(self) -> None:
        """Wrap the graftsim modules currently in ``sys.modules``."""
        mods = sys.modules
        binders = [mods[f"graftsim.{layer}"] for layer in LAYERS] + \
            [mods[name] for name in _BINDERS]
        strategy_module = mods["graftsim.strategies"]
        strategies = strategy_module.STRATEGIES
        strategy_fns = set(strategies.values())
        idle = (strategy_module.IDLE, strategy_module.WITHHOLD)
        for layer in LAYERS:
            module = mods[f"graftsim.{layer}"]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(value):
                    self._wrap_class(layer, value)
                elif inspect.isfunction(value) and value not in strategy_fns:
                    traced = self._wrap(value, f"{layer}.{attr}")
                    for binder in binders:
                        for bound, obj in list(vars(binder).items()):
                            if obj is value:
                                self._patch(binder, bound, traced)
        engine = mods["graftsim.harness"]._Engine
        self._patch(engine, "_observe", self._wrap(engine._observe, OBSERVE))
        for key, fn in list(strategies.items()):
            self._patches.append((strategies, key, fn))
            strategies[key] = self._wrap(fn, STRATEGY, lambda action: action.kind not in idle)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- reading ---------------------------------------------------------------

    def clear(self) -> None:
        for column in (self.name, self.parent, self.run, self.start, self.end):
            del column[:]
        self.hits.clear()

    def totals(self) -> "Totals":
        """Calls and self time per span name, over the spans recorded."""
        n = len(self.name)
        names, parents = self.name, self.parent
        duration = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for index in range(n):
            parent = parents[index]
            if parent >= 0:
                child[parent] += duration[index]
        calls: Counter = Counter()
        self_s: Dict[str, float] = defaultdict(float)
        for index in range(n):
            code = self.codes[names[index]]
            calls[code] += 1
            self_s[code] += duration[index] - child[index]
        return Totals(self, calls, self_s, duration)

    def write(self, stem: Path) -> None:
        """Dump every span: ``stem.bin`` holds the columns one after another
        as raw machine arrays, ``stem.json`` their layout and the names."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        columns = {"name": self.name, "parent": self.parent, "run": self.run,
                   "start": self.start, "end": self.end}
        with stem.with_suffix(".bin").open("wb") as out:
            for column in columns.values():
                column.tofile(out)
        stem.with_suffix(".json").write_text(json.dumps({
            "spans": len(self.name),
            "columns": [[key, column.typecode, column.itemsize]
                        for key, column in columns.items()],
            "names": self.codes,
        }), encoding="utf-8")


class Totals:
    """Aggregates of one traced pass, read by ``layer_metrics``."""

    def __init__(self, tracer: Tracer, calls: Counter, self_s: Dict[str, float],
                 duration: List[float]) -> None:
        self.tracer, self.calls, self.self_s, self.duration = tracer, calls, self_s, duration

    def layer_self(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix + "."))

    def inclusive(self, names: Iterable[str]) -> float:
        """Time inside the named spans, not counting one nested in another."""
        t = self.tracer
        codes = {i for i, c in enumerate(t.codes) if c in set(names)}
        total = 0.0
        for index, code in enumerate(t.name):
            if code not in codes:
                continue
            parent = t.parent[index]
            while parent >= 0 and t.name[parent] not in codes:
                parent = t.parent[parent]
            if parent < 0:
                total += self.duration[index]
        return total


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass

# Name -> unit for every per-layer metric the traced run reports.
UNITS = {
    "contract.self_s": "s",
    "contract.validate_tree.s": "s",
    "contract.validate_tree.calls": "count",
    "contract.parse.s": "s",
    "onchain.exchange.self_s": "s",
    "onchain.exchange.pending_from_others.calls": "count",
    "onchain.exchange.next_for.calls": "count",
    "onchain.exchange.deliver.calls": "count",
    "onchain.exchange.scans_per_message": "ratio",
    "harness.engine_self_s": "s",
    "harness.observations_per_event": "ratio",
    "offchain.self_s": "s",
    "offchain.sealed_grafts.calls": "count",
    "offchain.deliver_next.calls": "count",
    "onchain.compile.s": "s",
    "onchain.instantiate_subtree.calls": "count",
    "offchain.create_graft.calls": "count",
    "witness.self_s": "s",
    "witness.tx_digest.calls": "count",
    "witness.sign.calls": "count",
    "strategies.self_s": "s",
    "strategies.calls": "count",
    "strategies.progress_ratio": "ratio",
    "ledger.self_s": "s",
    "ledger.try_append.calls": "count",
    "ledger.try_append.fail_ratio": "ratio",
    "ledger.tick.calls": "count",
    "trace.self_s": "s",
    "trace.add.calls": "count",
    "trace.serialize.s": "s",
    "trace.bytes": "count",
}

# Exchange methods that walk the whole message plan on every call.
_PLAN_SCANS = ("pending_from_others", "complete", "first_blocker")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, trace_bytes: int) -> Dict[str, float]:
    """The per-layer metrics of the spans recorded since the last ``clear``."""
    tot = tracer.totals()
    calls, hits = tot.calls, tracer.hits
    deliveries = calls["onchain.Exchange.deliver"]
    events = calls["trace.Trace.add"]
    polls = calls[STRATEGY]
    appends = calls[TRY_APPEND]
    scans = sum(calls[f"onchain.Exchange.{m}"] for m in _PLAN_SCANS)
    return {
        "contract.self_s": tot.layer_self("contract"),
        "contract.validate_tree.s": tot.inclusive(["contract.validate_tree"]),
        "contract.validate_tree.calls": calls["contract.validate_tree"],
        "contract.parse.s": tot.inclusive(["contract.load_contract_file",
                                           "contract.contract_from_dict"]),
        "onchain.exchange.self_s": tot.layer_self("onchain.Exchange"),
        "onchain.exchange.pending_from_others.calls":
            calls["onchain.Exchange.pending_from_others"],
        "onchain.exchange.next_for.calls": calls["onchain.Exchange.next_for"],
        "onchain.exchange.deliver.calls": deliveries,
        "onchain.exchange.scans_per_message": _ratio(scans, deliveries),
        "harness.engine_self_s": tot.self_s["harness.run"] + tot.self_s[OBSERVE],
        "harness.observations_per_event": _ratio(calls[OBSERVE], events),
        "offchain.self_s": tot.layer_self("offchain"),
        "offchain.sealed_grafts.calls": calls["offchain.OffchainSession.sealed_grafts"],
        "offchain.deliver_next.calls": calls["offchain.OffchainSession.deliver_next"],
        "onchain.compile.s": tot.inclusive(["onchain.compile_onchain",
                                            "onchain.instantiate_subtree",
                                            "onchain.exchange_plan"]),
        "onchain.instantiate_subtree.calls": calls["onchain.instantiate_subtree"],
        "offchain.create_graft.calls": calls["offchain.OffchainSession.create_graft"],
        "witness.self_s": tot.layer_self("witness"),
        "witness.tx_digest.calls": calls["witness.tx_digest"],
        "witness.sign.calls": calls["witness.sign"],
        "strategies.self_s": tot.layer_self("strategies"),
        "strategies.calls": polls,
        "strategies.progress_ratio": _ratio(hits[STRATEGY], polls),
        "ledger.self_s": tot.layer_self("ledger"),
        "ledger.try_append.calls": appends,
        "ledger.try_append.fail_ratio": _ratio(hits[TRY_APPEND], appends),
        "ledger.tick.calls": calls["ledger.ChainState.tick"],
        "trace.self_s": tot.layer_self("trace"),
        "trace.add.calls": events,
        "trace.serialize.s": tot.inclusive(["trace.Trace.serialize"]),
        "trace.bytes": trace_bytes,
    }
