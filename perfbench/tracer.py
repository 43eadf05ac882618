"""In-memory spans recorded from outside the library.

The traced run replaces the public functions that `mdl.cli` (and the
library's own internal callers) look up at call time with wrappers that
open a span around each call.  Nothing inside `src/mdl` is edited; the
originals are put back when the `patched` block ends.  Spans are kept in
a list and written as JSON lines once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator


def _vmvt_counts(args: dict, result) -> dict:
    return {"solutions": result.count, "left_tuples": args["P"] ** args["r"]}


# (module, attribute, span name, counters from the bound arguments and result).
# A missing attribute is skipped, so the trace survives the library dropping
# a function; generator functions are timed until their stream is drained.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("mdl.cli", "cached_primes", "primes.sieve", None),
    ("mdl.cli", "count_blocks", "digits.count_blocks", None),
    ("mdl.cli", "discrepancy", "digits.discrepancy", None),
    ("mdl.cli", "erdos_turan_bound", "digits.erdos_turan", None),
    ("mdl.digits", "mersenne_residues", "digits.residues", lambda a, r: {"count": len(r)}),
    ("mdl.cli", "mangoldt_exp_sum", "expsum.mangoldt", lambda a, r: {"count": r.term_count}),
    ("mdl.expsum", "mangoldt_terms", "primes.mangoldt_terms", None),
    ("mdl.cli", "mersenne_prime_sum", "expsum.mersenne", lambda a, r: {"count": r.term_count}),
    ("mdl.cli", "vmvt_count", "vmvt.count", _vmvt_counts),
    ("mdl.cli", "order_structure", "order.structure", None),
    ("mdl.cli", "congruence_criterion", "order.congruence", None),
    ("mdl.cli", "valuation_difference", "order.valuation", None),
)


class Tracer:
    """Spans of one benchmark run: name, start, end, parent, workload, round.

    Back-to-back calls of one function under one parent, such as the lemma
    sweep's thousands of leaf calls, share one record that counts its calls
    and sums their busy time; `start` and `end` then bound the whole batch.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.round = 0
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        parent = self._stack[-1] if self._stack else None
        start = perf_counter()
        last = self.spans[-1] if self.spans else None
        if (last is not None and last["name"] == name and last["parent"] == parent
                and last["round"] == self.round and last["id"] not in self._stack):
            record = last
        else:
            record = {
                "id": len(self.spans), "parent": parent, "name": name,
                "workload": self.workload, "round": self.round,
                "start": start, "end": None, "busy": 0.0, "calls": 0,
            }
            self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            end = perf_counter()
            record["end"] = end
            record["busy"] += end - start
            record["calls"] += 1
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, counters: Callable | None) -> Callable:
        if inspect.isgeneratorfunction(fn):
            # Drained inside the span, so per-item wrapper cost stays out of
            # it; every caller in mdl consumes these streams whole.
            @functools.wraps(fn)
            def drained(*args, **kwargs):
                with self.span(name) as record:
                    items = list(fn(*args, **kwargs))
                    record["count"] = record.get("count", 0) + len(items)
                return items
            return drained

        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if counters is not None:
                    bound = signature.bind(*args, **kwargs).arguments
                    for key, value in counters(bound, result).items():
                        record[key] = record.get(key, 0) + value
                return result
        return call

    @contextmanager
    def patched(self) -> Iterator[None]:
        """Route the TARGETS through span wrappers for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, counters in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, counters))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def self_times(spans: list[dict]) -> dict[str, float]:
    """Busy seconds per span name with the time of child spans removed."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["busy"]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += s["busy"] - child_time[s["id"]]
    return dict(out)
