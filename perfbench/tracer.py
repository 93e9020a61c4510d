"""Span tracing of cvteleport from outside the package.

The tracer rebinds the public names that `cli`, `scenarios` and
`properties` import from the other cvteleport modules, so every call that
crosses a module boundary records a span: name, start, end, parent span
and request id (one request is one `cli.main` call). Calls a module makes
to its own functions are not crossings and are not traced. Spans stay in
memory as flat arrays and are written out once, after the traced run.
A span opened with no span around it starts a new request.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
import time
from array import array

# modules whose public functions get spans, in reporting order
LAYERS = ("cli", "scenarios", "oracle", "properties",
          "teleporter", "epr", "jitter", "opo", "units")
# modules whose imported names are rebound
NAMESPACES = ("cli", "scenarios", "properties")
# closed-form modules reported as one calls/busy_s pair each
CLOSED_FORM_LAYERS = ("teleporter", "epr", "jitter", "opo", "units")
# functions reported on their own, by span name
NAMED_SPANS = ("cli.main", "scenarios.run_preset", "oracle.simulate_chain",
               "oracle.closed_form_reference", "properties.run_all")


def cell_kind(config) -> str:
    """Kind of one Monte Carlo cell: jitter, ideal budget, or lossy budget."""
    from cvteleport.teleporter import EfficiencyBudget

    if config.jitter is not None:
        return "jitter"
    return "ideal" if config.budget == EfficiencyBudget.ideal() else "lossy"


class Tracer:
    """In-memory span recorder; install() rebinds, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("q")
        self.end = array("q")
        self.failed = bytearray()
        self.cells: list[tuple[int, str, int]] = []  # (span, kind, shots)
        self.request_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, fails=None, on_enter=None):
        """Return fn wrapped in a span called name.

        fails(result) marks a returned result as failed; a raised exception
        always does. on_enter(span, args) runs after the span is opened.
        """
        nid = self._name_id(name)
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, failed, stack = self.start, self.end, self.failed, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            if not stack:
                self.request_id += 1
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request_id)
            ends.append(0)
            failed.append(1)
            stack.append(span)
            if on_enter is not None:
                on_enter(span, args)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if fails is None or not fails(result):
                failed[span] = 0
            return result

        return traced

    def _record_cell(self, span, args):
        config = args[0]
        self.cells.append((span, cell_kind(config), int(config.samples)))

    def install(self) -> None:
        wrapped = {}
        for ns_name in NAMESPACES:
            ns = importlib.import_module(f"cvteleport.{ns_name}")
            targets = [(attr, value) for attr, value in vars(ns).items()
                       if inspect.isfunction(value)
                       and value.__module__ != ns.__name__
                       and value.__module__.startswith("cvteleport.")
                       and value.__module__.split(".")[1] in LAYERS]
            for attr, value in targets:
                if value not in wrapped:
                    name = f"{value.__module__.split('.')[1]}.{value.__name__}"
                    on_enter = self._record_cell if name == "oracle.simulate_chain" else None
                    wrapped[value] = self.wrap(name, value, on_enter=on_enter)
                self._saved.append((ns, attr, value))
                setattr(ns, attr, wrapped[value])

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._saved):
            setattr(ns, attr, value)
        self._saved.clear()

    def write(self, path, header: dict) -> None:
        """Write every span as one CSV row, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("# " + json.dumps(header, sort_keys=True) + "\n")
            out.write("span,parent,request,name,start_ns,end_ns,failed\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(f"{i},{self.parent[i]},{self.request[i]},{names[self.name[i]]},"
                          f"{self.start[i]},{self.end[i]},{self.failed[i]}\n")

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer counts and times, per pass of the workload.

        busy_s of a layer sums its spans that have no ancestor in the same
        layer; self_s sums each span's duration minus the part of it that
        its child spans cover.
        """
        n = len(self.start)
        layer_of_name = [name.split(".")[0] for name in self.names]
        layer = [layer_of_name[self.name[i]] for i in range(n)]
        duration = [self.end[i] - self.start[i] for i in range(n)]

        children: dict[int, list[int]] = {}
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                children.setdefault(p, []).append(i)
        self_ns = list(duration)
        for p, kids in children.items():
            lo, hi = self.start[p], self.end[p]
            covered = 0
            cur_start = cur_end = None
            for k in kids:  # recorded in start order
                s, e = max(self.start[k], lo), min(self.end[k], hi)
                if e <= s:
                    continue
                if cur_end is None or s > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = s, e
                else:
                    cur_end = max(cur_end, e)
            if cur_end is not None:
                covered += cur_end - cur_start
            self_ns[p] -= covered

        def outermost_in_layer(i):
            p = self.parent[i]
            while p >= 0:
                if layer[p] == layer[i]:
                    return False
                p = self.parent[p]
            return True

        calls = dict.fromkeys(LAYERS, 0)
        busy = dict.fromkeys(LAYERS, 0)
        self_time = dict.fromkeys(LAYERS, 0)
        errors = dict.fromkeys(LAYERS, 0)
        named_calls = dict.fromkeys(NAMED_SPANS, 0)
        named_busy = dict.fromkeys(NAMED_SPANS, 0)
        for i in range(n):
            lay = layer[i]
            name = self.names[self.name[i]]
            calls[lay] += 1
            self_time[lay] += self_ns[i]
            errors[lay] += self.failed[i]
            if outermost_in_layer(i):
                busy[lay] += duration[i]
            if name in named_calls:
                named_calls[name] += 1
                named_busy[name] += duration[i]

        per_pass = 1.0 / passes
        ns = 1e-9 * per_pass
        m = {}

        def put(name, value, unit):
            m[name] = (value, unit)

        put("cli.main.calls", named_calls["cli.main"] * per_pass, "count")
        put("cli.self_s", self_time["cli"] * ns, "s")
        put("scenarios.run_preset.calls", named_calls["scenarios.run_preset"] * per_pass,
            "count")
        put("scenarios.self_s", self_time["scenarios"] * ns, "s")

        sim = "oracle.simulate_chain"
        shots = sum(cell[2] for cell in self.cells)
        put(f"{sim}.calls", named_calls[sim] * per_pass, "count")
        put(f"{sim}.busy_s", named_busy[sim] * ns, "s")
        put("oracle.shots", shots * per_pass, "count")
        put("oracle.shots_per_s",
            shots / (named_busy[sim] * 1e-9) if named_busy[sim] else 0.0, "1/s")
        for kind in ("ideal", "lossy", "jitter"):
            times = [duration[span] * 1e-9 for span, k, _ in self.cells if k == kind]
            put(f"oracle.cell_{kind}_s", statistics.median(times) if times else 0.0, "s")
        ref = "oracle.closed_form_reference"
        put(f"{ref}.calls", named_calls[ref] * per_pass, "count")
        put(f"{ref}.busy_s", named_busy[ref] * ns, "s")

        put("properties.run_all.calls", named_calls["properties.run_all"] * per_pass,
            "count")
        put("properties.run_all.busy_s", named_busy["properties.run_all"] * ns, "s")
        for lay in CLOSED_FORM_LAYERS:
            put(f"{lay}.calls", calls[lay] * per_pass, "count")
            put(f"{lay}.busy_s", busy[lay] * ns, "s")
        for lay in LAYERS:
            put(f"{lay}.errors", errors[lay] * per_pass, "count")
        return m
