"""Outside-in tracer: times the package's layers without editing them.

``Tracer.install`` wraps every public function (a module-level function whose
name has no leading underscore) defined in the layer modules, plus the
``BinaryCode.from_group`` constructor, and rebinds each wrapper in every
``z2z4q8`` module namespace that holds the original.  Calls between layers
look their callee up in the caller's module namespace at call time, so they
reach the wrappers too.  ``Tracer.remove`` puts the originals back.

Two kinds of wrapper:

* a span wrapper records (name, start, end, parent span, request id) and
  keeps the spans in memory until ``write_spans``;
* the ``algebra`` layer's operations and the entrywise lifts ``chi1..3``
  are called up to a million times per pass, so their wrappers only add to
  a call count and a summed time.

Each wrapper also keeps per-function totals: calls, inclusive time, and self
time (inclusive time minus the time of traced calls made inside it).
"""

from __future__ import annotations

import functools
import inspect
import json
from pathlib import Path
from time import perf_counter

# Called per group operation or per entry, up to a million times a pass:
# these get a count and a summed time, but no span per call.
AGGREGATED_LAYERS = ("algebra",)
AGGREGATED = ("construct.chi1", "construct.chi2", "construct.chi3")
# Work counts read off return values: traced name -> (counter name, amount).
RESULT_COUNTERS = {
    "code.closure": ("code.closure.elements", len),
    "code.rank_by_span_group": ("code.rank_by_span_group.span_elements",
                                lambda rank: 1 << rank),
}


class Tracer:
    def __init__(self, package: str, layers: tuple[str, ...], modules: list) -> None:
        self.package = package
        self.layers = layers
        self.modules = modules
        self.request_id = -1
        self.spans: list = []
        # name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {counter: 0 for counter, _ in RESULT_COUNTERS.values()}
        # time spent in traced children of each open call; the bottom entry
        # collects top-level calls
        self._child = [0.0]
        self._open = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def targets(self) -> list[tuple[str, object, str, object]]:
        """(metric name, owner, attribute, original) for every traced callable."""
        by_name = {mod.__name__: mod for mod in self.modules}
        out = []
        for layer in self.layers:
            mod = by_name[f"{self.package}.{layer}"]
            for attr, obj in sorted(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    out.append((f"{layer}.{attr}", mod, attr, obj))
        binary_code = by_name[f"{self.package}.code"].BinaryCode
        out.append(("code.BinaryCode.from_group", binary_code, "from_group",
                    binary_code.__dict__["from_group"]))
        return out

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, owner, attr, original in self.targets():
            self.stats.setdefault(name, [0, 0.0, 0.0])
            if isinstance(original, classmethod):
                wrapped = classmethod(self._span_wrapper(name, original.__func__))
                self._rebind(owner, attr, original, wrapped)
                continue
            aggregate = name in AGGREGATED or name.split(".", 1)[0] in AGGREGATED_LAYERS
            make = self._aggregate_wrapper if aggregate else self._span_wrapper
            wrapped = make(name, original)
            for mod in self.modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._rebind(mod, key, original, wrapped)

    def _rebind(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        stat = self.stats[name]
        spans, child, open_spans = self.spans, self._child, self._open
        counter, amount = RESULT_COUNTERS.get(name, (None, None))
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1]
            open_spans.append(index)
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counters[counter] += amount(result)
                return result
            finally:
                end = perf_counter()
                inner = child.pop()
                open_spans.pop()
                spans[index] = (name, start, end, parent, self.request_id)
                took = end - start
                stat[0] += 1
                stat[1] += took
                stat[2] += took - inner
                child[-1] += took

        return traced

    def _aggregate_wrapper(self, name: str, fn):
        stat = self.stats[name]
        child = self._child

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            child.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                inner = child.pop()
                stat[0] += 1
                stat[1] += took
                stat[2] += took - inner
                child[-1] += took

        return counted

    # -- results ------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: name, start, end, parent index, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as out:
            for name, start, end, parent, request in self.spans:
                out.write(json.dumps([name, round(start - base, 9), round(end - base, 9),
                                      parent, request]) + "\n")
