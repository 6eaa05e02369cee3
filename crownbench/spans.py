"""In-memory spans around layer calls, installed by rebinding module
attributes for one traced pass and restored afterwards.

A span records its name, the item it belongs to, its parent span, start
and end (``perf_counter_ns``) and any counters, named in full, taken
from the call's arguments and result.  Self time is duration minus the
child spans.
"""

import json
from collections import defaultdict
from functools import wraps
from time import perf_counter_ns as _now

MARK = "__crownbench_span__"


def installed(targets):
    """Targets (module, attribute) currently bound to a span wrapper."""
    return [(m.__name__, attr) for m, attr, *_ in targets if hasattr(getattr(m, attr, None), MARK)]


class Tracer:
    def __init__(self, targets):
        # targets: (module, attribute, span name, counter fn or None)
        self.targets = list(targets)
        self.spans = []
        self.item = None
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def span(*args, **kwargs):
            sid = len(spans)
            rec = {"id": sid, "name": name, "item": self.item,
                   "parent": stack[-1] if stack else None}
            spans.append(rec)
            stack.append(sid)
            rec["start"] = start = _now()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec["end"] = _now()
                stack.pop()
            if count is not None:
                rec["counts"] = count(args, out)
            return out

        setattr(span, MARK, name)
        return span

    def __enter__(self):
        for module, attr, name, count in self.targets:
            original = getattr(module, attr, None)
            if original is None:
                continue  # a renamed function shows up as a span with no calls
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def metrics(self):
        """Flat sums: ``<span>.calls``, ``<span>.s``, ``<span>.self_s`` and
        every counter by its own name."""
        child_ns = defaultdict(int)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_ns[rec["parent"]] += rec["end"] - rec["start"]
        out = defaultdict(float)
        for rec in self.spans:
            dur = rec["end"] - rec["start"]
            out[rec["name"] + ".calls"] += 1
            out[rec["name"] + ".s"] += dur / 1e9
            out[rec["name"] + ".self_s"] += (dur - child_ns[rec["id"]]) / 1e9
            for key, value in rec.get("counts", {}).items():
                out[key] += value
        return dict(out)

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec, sort_keys=True) + "\n")

