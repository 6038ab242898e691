"""In-memory span tracer that wraps tauideal's public functions from outside.

The wrappers are installed on the module attributes through which each
tauideal module reaches the function (``from .ideals import power`` in
``frobenius`` makes ``tauideal.frobenius.power`` a separate binding from
``tauideal.ideals.power``), so every call path is seen.  ``restore`` puts
the original function objects back.

A span is ``[name, start, end, parent, instance]``; ``parent`` is the index
of the enclosing span or -1.  Counts that are not span counts (sizes of
results, points tested) are kept in ``counts``.
"""

from __future__ import annotations

import functools
import gzip
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.instance = None
        self.enabled = True
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.instance])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        popped = self._stack.pop()
        if popped != idx:  # pragma: no cover - wrappers always nest
            raise RuntimeError("span stack out of order")

    def reset(self) -> None:
        """Drop recorded spans and counts; installed wrappers stay."""
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    # -- wrapping --------------------------------------------------------
    def wrap(self, owner, attr: str, name, after=None, wrap_args=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        While ``enabled`` is false the wrapper calls straight through.

        ``name`` is a span name or a function of (args, kwargs) giving one.
        ``after(tracer, args, kwargs, result)`` runs after a successful call;
        ``wrap_args(tracer, args, kwargs)`` may rewrite the arguments first.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            if wrap_args is not None:
                args, kwargs = wrap_args(tracer, args, kwargs)
            idx = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put every original function object back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        return len(self._patches)

    # -- analysis --------------------------------------------------------
    def self_times(self) -> list[float]:
        """Duration of each span minus the part of it its children cover."""
        children: dict[int, list[int]] = defaultdict(list)
        for idx, span in enumerate(self.spans):
            if span[3] >= 0:
                children[span[3]].append(idx)
        out = []
        for idx, (_, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            cur_lo = cur_hi = None
            kids = sorted(
                (max(self.spans[c][1], start), min(self.spans[c][2], end))
                for c in children.get(idx, ())
            )
            for lo, hi in kids:
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out.append((end - start) - covered)
        return out

    def ancestors(self, idx: int):
        parent = self.spans[idx][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, inclusive seconds.

        Inclusive time counts only spans with no ancestor of the same name,
        so recursion and repeated wrapping are not counted twice.
        """
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for idx, span in enumerate(self.spans):
            name = span[0]
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            row["calls"] += 1
            row["self_s"] += selfs[idx]
            if name not in self.ancestors(idx):
                row["incl_s"] += span[2] - span[1]
        return out

    def time_under(self, name: str, ancestor: str) -> float:
        """Seconds in outermost ``name`` spans that have an ``ancestor`` span."""
        total = 0.0
        for idx, span in enumerate(self.spans):
            if span[0] != name:
                continue
            anc = list(self.ancestors(idx))
            if ancestor in anc and name not in anc:
                total += span[2] - span[1]
        return total

    def count_under(self, name: str, ancestor: str) -> int:
        return sum(
            1
            for idx, span in enumerate(self.spans)
            if span[0] == name and ancestor in self.ancestors(idx)
        )

    def heaviest_paths(self, top: int = 3) -> list[tuple[str, float]]:
        """Span-name paths from the root, ranked by the self time spent there."""
        selfs = self.self_times()
        by_path: dict[str, float] = defaultdict(float)
        for idx, span in enumerate(self.spans):
            path = [span[0], *self.ancestors(idx)]
            by_path[" > ".join(reversed(path))] += selfs[idx]
        return sorted(by_path.items(), key=lambda kv: -kv[1])[:top]

    def write(self, path) -> None:
        """Write every span as one JSON list per line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "instance"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
