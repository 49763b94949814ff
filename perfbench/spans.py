"""Spans around schreier's public functions, installed from outside the package.

The tracer replaces each traced function wherever schreier's modules
look it up: module attributes and module-level dicts that hold the same
object (the CLI's method tables), or the class attribute for a method.
A name that no longer exists is reported as absent, not as an error.
Spans are kept in memory; a layer's self time is its span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

PROBE_MARK = "perfbench-probe "  # starts cli_probe.py's report line

# (layer, module under schreier, names of the functions the layer covers)
LAYERS = (
    ("counting.recurrence", "counting", ("count_schreier_recurrence",)),
    ("counting.sequence", "counting", ("schreier_sequence",)),
    ("counting.direct", "counting", ("count_schreier_direct",)),
    ("enumeration.oracle", "enumeration", ("count_schreier_bruteforce",)),
    ("enumeration.enumerate", "enumeration", ("enumerate_schreier",)),
    ("enumeration.interval_brute", "enumeration", ("count_interval_bruteforce",)),
    ("turan.identity", "turan", ("verify_turan_identity",)),
    ("turan.edges", "turan", ("turan_edges_formula", "turan_edges_construction")),
    ("turan.interval_count", "turan", ("interval_count_sum", "interval_count_closed")),
    ("bijections.gap_maps", "bijections", ("collapse_gaps", "expand_gaps")),
    ("bijections.window_maps", "bijections", ("strip_window", "attach_window")),
    (
        "bijections.ie_decomposition",
        "bijections",
        ("inclusion_exclusion_decomposition",),
    ),
    ("bfile.render", "bfile", ("BFile.render",)),
    ("bfile.parse", "bfile", ("parse_bfile",)),
)


class Tracer:
    """Nested spans and per-layer (calls, self ns) for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []  # id, parent, layer, start, end
        self.stats: dict[str, list[int]] = {}  # layer -> [calls, self_ns]
        self.absent: list[str] = []
        self._next_id = 0
        self._open: list[list[int]] = []  # [span id, ns covered by children]
        self._undo: list = []

    def call(self, layer, fn, /, *args, **kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        frame = [span_id, 0]
        self._open.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._open.pop()
            if parent is not None:
                parent[1] += end - start
            stat = self.stats.setdefault(layer, [0, 0])
            stat[0] += 1
            stat[1] += end - start - frame[1]
            self.spans.append(
                (span_id, parent[0] if parent else -1, layer, start, end)
            )

    def add(self, layer: str, calls: int, self_ns: int) -> None:
        """Fold in counts measured elsewhere, e.g. in a child process."""
        stat = self.stats.setdefault(layer, [0, 0])
        stat[0] += calls
        stat[1] += self_ns

    def take(self) -> tuple[dict[str, list[int]], list[tuple[int, int, str, int, int]]]:
        """Return and reset the stats and spans gathered so far."""
        stats, spans = self.stats, self.spans
        self.stats, self.spans = {}, []
        return stats, spans

    def install(self) -> None:
        """Wrap every LAYERS function found among the loaded schreier modules."""
        self.absent = []
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "schreier" or name.startswith("schreier.")
        ]
        for layer, module_name, names in LAYERS:
            module = sys.modules.get(f"schreier.{module_name}")
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                target = getattr(owner, attr, None)
                if not callable(target):
                    self.absent.append(f"schreier.{module_name}.{name}")
                    continue
                wrapper = self._wrap(layer, target)
                if owner_name:
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in modules:
                    space = vars(mod)
                    for key, value in list(space.items()):
                        if value is target:
                            self._patch(mod, key, wrapper)
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is target:
                                    self._patch_item(value, k, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap(self, layer: str, fn):
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(layer, fn, *args, **kwargs)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _patch_item(self, table: dict, key, value) -> None:
        original = table[key]
        table[key] = value
        self._undo.append(lambda: table.__setitem__(key, original))


def layer_names() -> list[str]:
    return [layer for layer, _, _ in LAYERS]
