"""Outside-in tracing: wrap stlinfer's public functions from the outside.

Nothing under src/ knows about the tracer.  `Tracer.install` replaces a
target function in every stlinfer module that holds it by name (the
defining module, the package and every module that imported it), so a
call through any of those namespaces records a span.  A target that no
longer exists is recorded as absent, naming the missing function, and
never fails the run.

Spans are kept in memory as [name, start, end, parent] and reduced to
per-layer self time when each root span (one set-up repetition or one
operation) closes, so memory stays flat however many operations a run
makes.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.absent: dict = {}  # "module.function" -> reason
        # (root kind, span name) -> summed self seconds over closed roots
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.roots = defaultdict(int)  # root kind -> closed root count
        self._firsts: dict = {}
        self._patches: list = []  # (namespace, attribute, original, wrapper)

    # -- span recording ------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def root(self, kind: str):
        """Context manager for one set-up repetition or one operation.

        The wrappers are in place only inside a root, so code outside
        one (output checks, untraced operations) runs unwrapped.
        """
        tracer = self

        class _Root:
            def __enter__(self):
                if tracer.stack:
                    raise RuntimeError("root spans do not nest")
                self.idx = tracer._open(kind)
                tracer._apply(wrapped=True)

            def __exit__(self, *exc):
                tracer._apply(wrapped=False)
                tracer._close(self.idx)
                tracer._reduce(kind)

        return _Root()

    def _reduce(self, kind: str) -> None:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            self.self_s[(kind, name)] += (end - start) - child[i]
            self.counts[(kind, name)] += 1
        self.roots[kind] += 1
        self.spans.clear()
        self._firsts.clear()

    # -- wrapping ------------------------------------------------------

    def install(self, targets) -> None:
        """Prepare wrappers for the freshly imported stlinfer modules.

        Each target is (module, qualname, span name, probe, record span):
        `qualname` is wrapped under the span name in every stlinfer
        namespace that holds it.  `probe(tracer, args, result)` runs after
        each call to collect counts; without a span only the probe runs.
        Replaces whatever an earlier install prepared.
        """
        self._patches = []
        self.absent = {}
        namespaces = [m for n, m in sys.modules.items() if n == "stlinfer" or n.startswith("stlinfer.")]
        for module, qualname, name, probe, span in targets:
            owner_name, _, attr = qualname.rpartition(".")
            try:
                mod = importlib.import_module(module)
                owner = functools.reduce(getattr, owner_name.split("."), mod) if owner_name else mod
                fn = getattr(owner, attr)
            except (ImportError, AttributeError) as e:
                self.absent[f"{module}.{qualname}"] = f"{type(e).__name__}: {e}"
                continue
            wrapper = self._wrap(fn, name, probe, span)
            if owner_name:  # a method: patch the class
                self._patches.append((owner, attr, fn, wrapper))
                continue
            for ns in namespaces:
                for key, value in vars(ns).items():
                    if value is fn:
                        self._patches.append((ns, key, fn, wrapper))
        if self.stack:
            self._apply(wrapped=True)

    def _apply(self, wrapped: bool) -> None:
        for ns, key, fn, wrapper in self._patches:
            setattr(ns, key, wrapper if wrapped else fn)

    def _wrap(self, fn, name, probe, span):
        tracer = self

        if not span:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                probe(tracer, args, result)
                return result

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if probe is not None:
                probe(tracer, args, result)
            return result

        return traced

    # -- probes ----------------------------------------------------------

    def count(self, key: str, amount: float = 1.0) -> None:
        kind = self.spans[0][0] if self.spans else "none"
        self.counts[(kind, key)] += amount

    def first_value(self, key, value):
        """None on the first call for `key` inside the current root; on
        later calls, the value that first call stored."""
        if key in self._firsts:
            return self._firsts[key]
        self._firsts[key] = value
        return None

    def parent_index(self) -> int:
        return self.stack[-1] if self.stack else -1
