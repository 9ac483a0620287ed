"""Per-layer spans around the calls `ctrend analyze` makes into each layer.

`Tracer` swaps the layer functions that `ctrend.cli` imported for timing
wrappers while one in-process `ctrend.cli.main(["analyze", ...])` runs, so
the spans follow the calls in the order `analyze` makes them.  Spans stay in
memory; the last call of each function is kept so that the solve and the
peak-memory pass can repeat it on the same objects afterwards.

Peak memory is measured apart, one layer call at a time under
`tracemalloc`, because tracing allocations slows Python-heavy layers
several-fold and would distort the spans.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass

# ctrend.cli attribute -> layer span name
LAYER_CALLS = {
    "load_measurements": "ingest.load",
    "aggregate": "ingest.aggregate",
    "build_system_raw": "design.build",
    "build_system_aggregated": "design.build",
    "solve": "solver.solve",
    "tune": "tuner.tune",
    "cluster_means": "inference.cluster",
    "compare_adjacent": "inference.compare",
}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: str | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Call:
    function: object
    args: tuple
    kwargs: dict
    result: object

    def repeat(self):
        return self.function(*self.args, **self.kwargs)


class Tracer:
    """Spans and last calls of one traced `ctrend.cli.main` run."""

    def __init__(self, cli_module):
        self.cli = cli_module
        self.spans: list[Span] = []
        self.calls: dict[str, Call] = {}

    def _wrap(self, attr: str, function):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            result = function(*args, **kwargs)
            self.spans.append(Span(LAYER_CALLS[attr], start, time.perf_counter(), "cli.main"))
            self.calls[attr] = Call(function, args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        originals = {attr: getattr(self.cli, attr) for attr in LAYER_CALLS}
        try:
            for attr, function in originals.items():
                setattr(self.cli, attr, self._wrap(attr, function))
            yield self
        finally:
            for attr, function in originals.items():
                setattr(self.cli, attr, function)

    def main(self, argv: list[str]) -> int:
        """Run `ctrend.cli.main(argv)` with every layer call traced."""
        with self.installed():
            start = time.perf_counter()
            code = self.cli.main(argv)
            self.spans.append(Span("cli.main", start, time.perf_counter(), None))
        return code

    def seconds(self, name: str) -> float:
        """Total time of the spans named `name`; 0 when the layer was not called."""
        return sum(s.seconds for s in self.spans if s.name == name)


def peak_mb(call) -> float:
    """Peak traced allocation, in MB (2^20 bytes), while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
