"""Tracing of agentmesh layers from the outside.

The tracer wraps the public functions of the layer modules (and a fixed list
of public methods) and rebinds every name that refers to them in every loaded
``agentmesh`` module, so calls through ``from .identity import verify`` style
imports are caught as well as calls through module attributes. Nothing in
the package is edited; ``uninstall`` puts every original object back.

Each wrapped call records one span ``(span_id, parent_id, op_id, name, start,
end)``. Spans are kept in memory and written out on request. Call counts,
busy time (span durations), and self time (a span's duration minus the time
its child spans cover) are accumulated per span name as calls return; a
layer's busy time counts only calls entering it from outside the layer. A few calls also feed counters
read from their arguments or results (``RoundStats`` messages and bytes,
``TrustVector.iterations``, settle outcomes, proof steps); those observers run
outside the timed interval of the call they observe, and their time is left
out of the caller's self time too.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import pkgutil
import sys
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("identity", "cards", "registry", "federation", "trust", "discovery", "micropay", "privacy")

# Public methods traced in addition to every module-level public function:
# the ones a per-layer metric names, and the ones called from outside their
# own layer, so that their time is not charged to the caller.
METHODS = {
    "identity": {"AttestationIssuer": ("issue",)},
    "cards": {"AgentFactCard": ("bump",)},
    "registry": {"MerkleRadixIndex": ("insert", "insert_trusted", "prove_inclusion")},
    "federation": {"ReplicaState": ("local_put", "delta_for", "apply_delta")},
    "micropay": {"Ledger": ("settle", "credit")},
}

ROOT = -1  # parent id of a root span


def load_package() -> list:
    """Import every agentmesh submodule so that every binding exists before
    wrappers are installed."""
    package = importlib.import_module("agentmesh")
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"agentmesh.{info.name}")
    return [m for name, m in sorted(sys.modules.items()) if name == "agentmesh" or name.startswith("agentmesh.")]


def leftover_wrappers() -> list[str]:
    """Names in agentmesh that still hold a tracer wrapper."""
    owners = list(load_package())
    for layer, classes in METHODS.items():
        owners += [getattr(sys.modules[f"agentmesh.{layer}"], name) for name in classes]
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner in owners
        for attr, value in vars(owner).items()
        if hasattr(value, "__perfbench_span__")
    ]


def traced_targets() -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, original) for every traced callable."""
    load_package()
    targets = []
    for layer in LAYERS:
        module = sys.modules[f"agentmesh.{layer}"]
        for attr in module.__all__:
            obj = getattr(module, attr)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                targets.append((f"{layer}.{attr}", module, attr, obj))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for attr in methods:
                obj = cls.__dict__[attr]
                if not inspect.isfunction(obj):
                    raise TypeError(f"{layer}.{cls_name}.{attr} is not a plain method")
                targets.append((f"{layer}.{cls_name}.{attr}", cls, attr, obj))
    return targets


class Tracer:
    def __init__(self, keep_spans: bool = True) -> None:
        self.keep_spans = keep_spans
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.busy_ns: list[int] = []
        self.layer_busy_ns = [0] * len(LAYERS)
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.root_names: dict[str, int] = {}
        self.kind: str | None = None  # kind of the open root span
        self.counters: dict[str, int] = {}
        # Frames are [span id, time covered by children, layer index].
        self._stack: list[list[int]] = [[ROOT, 0, -1]]
        self._next_id = 0
        self.op_id = ROOT
        self._bindings: list[tuple[object, str, object]] = []
        self._observers: dict[str, tuple] = {}

    # -- counters fed by observers -------------------------------------------

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def observe(self, name: str, before=None, after=None) -> None:
        """Run ``before(args, kwargs)`` and ``after(args, kwargs, result,
        exc)`` around calls of the named span, outside its timed interval."""
        self._observers[name] = (before, after)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        targets = traced_targets()
        wrappers: dict[int, object] = {}
        for name, owner, attr, original in targets:
            wrapper = self._wrap(name, original)
            wrappers[id(original)] = wrapper
            if inspect.isclass(owner):
                self._bindings.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        # Rebind module-level names, including names imported from another
        # module (``from .identity import verify`` in registry, federation...).
        for module in load_package():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    def _name_index(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        self.busy_ns.append(0)
        return len(self.names) - 1

    def _wrap(self, name: str, fn):
        idx = self._name_index(name)
        tracer = self
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        busy_ns = self.busy_ns
        layer_busy_ns = self.layer_busy_ns
        layer = LAYERS.index(name.split(".", 1)[0])
        spans = self.spans
        keep = self.keep_spans
        clock = time.perf_counter_ns
        before, after = self._observers.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if before is not None:
                # Observer time counts as covered, so it is in no self time.
                t0 = clock()
                before(args, kwargs)
                parent[1] += clock() - t0
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0, layer]
            stack.append(frame)
            start = clock()
            exc = result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as raised:
                exc = raised
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[1] += dur
                self_ns[idx] += dur - frame[1]
                busy_ns[idx] += dur
                if parent[2] != layer:
                    layer_busy_ns[layer] += dur
                calls[idx] += 1
                if keep:
                    spans.append((sid, parent[0], tracer.op_id, idx, start, end))
                if after is not None:
                    after(args, kwargs, result, exc)
                    parent[1] += clock() - end

        wrapper.__perfbench_span__ = name
        return wrapper

    # -- root spans -------------------------------------------------------------

    @contextmanager
    def root(self, kind: str):
        """One root span per op (or per set-up / self-test); every wrapped
        call inside it carries the root's span id as its op id."""
        if len(self._stack) != 1:
            raise RuntimeError("root spans do not nest")
        idx = self.root_names.get(kind)
        if idx is None:
            idx = self.root_names[kind] = self._name_index(f"root.{kind}")
        sid = self._next_id
        self._next_id += 1
        frame = [sid, 0, -1]
        self._stack.append(frame)
        self.op_id = sid
        self.kind = kind
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.op_id = ROOT
            self.kind = None
            dur = end - start
            self.calls[idx] += 1
            self.self_ns[idx] += dur - frame[1]
            self.busy_ns[idx] += dur
            if self.keep_spans:
                self.spans.append((sid, ROOT, sid, idx, start, end))

    # -- read-out ---------------------------------------------------------------

    def call_count(self, name: str) -> int:
        return sum(c for n, c in zip(self.names, self.calls) if n == name)

    def self_seconds(self, name: str) -> float:
        return sum(s for n, s in zip(self.names, self.self_ns) if n == name) / 1e9

    def busy_seconds(self, name: str) -> float:
        return sum(s for n, s in zip(self.names, self.busy_ns) if n == name) / 1e9

    def counts(self) -> dict[str, int]:
        """Every exactly repeatable count: calls per span name and the
        observer counters."""
        out = {f"calls:{n}": c for n, c in zip(self.names, self.calls)}
        out.update({f"counter:{k}": v for k, v in self.counters.items()})
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span_id\tparent_id\top_id\tname\tstart_ns\tend_ns\n")
            for sid, parent, op, idx, start, end in sorted(self.spans):
                fh.write(f"{sid}\t{parent}\t{op}\t{self.names[idx]}\t{start}\t{end}\n")
