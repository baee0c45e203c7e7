"""Span recorder and layer profiler for the benchmark's traced pass.

Tracing lives here, outside ``src/``: :func:`install` wraps the public
entry points of each simulator layer (workload build, ``Simulator.run``,
``RunaheadQueue.prepare``, ``OoOCore.process_batch``/``finalize``,
``functional_pass``, ``SimSnapshot.capture``/``restore``,
``ResultStore.get``/``put``, ``code_fingerprint``,
``ExperimentEngine.run``, ``ServiceClient.run``/``status`` and the
builtin ``compile``) and keeps one span per call in memory: name, start,
end, parent and op id.  Spans are written out as
``<out>/spans-<pid>.json`` when the process ends; a pool worker forked
from a traced process starts an empty buffer and writes its own file
when the worker exits.

Run as a script it is the traced (or profiled) form of ``python -m
repro``::

    python perfbench/boot.py trace   OUT_DIR OP_ID  run gap.bfs ...
    python perfbench/boot.py profile OUT_FILE OP_ID run gap.bfs ...

``trace`` installs the wrappers and calls ``repro.cli.main``;
``profile`` runs ``repro.cli.main`` under cProfile and dumps the stats
to ``OUT_FILE`` (wrappers off, so the profile sees only the program).
:func:`layer_seconds` turns such a profile into self seconds per
layer.
"""

from __future__ import annotations

import atexit
import builtins
import json
import os
import sys
import time
from multiprocessing import util

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REPRO_DIR = os.path.join(SRC, "repro") + os.sep

#: ``src/repro/<module>/`` directories that are layers of their own;
#: every other module (engine, service, cli, workloads, isa, ...) and
#: the standard library count as ``other``.
MODULE_LAYERS = ("functional", "frontend", "core", "wrongpath", "cache",
                 "branch", "simulator")

#: Code-object filename tags of the compiled block layers.
TAG_LAYERS = (("<superblock:", "compiled.superblock"),
              ("<timingblock:", "compiled.timingblock"),
              ("<streamblock:", "compiled.streamblock"),
              ("<wpitems:", "compiled.wpitems"),
              ("<handler:", "functional"))

LAYERS = (MODULE_LAYERS + ("compile",)
          + tuple(layer for _, layer in TAG_LAYERS[:4]) + ("other",))


class Recorder:
    """In-memory span buffer for one process."""

    def __init__(self, out_dir: str, op: str):
        self.out_dir = out_dir
        self.op = op
        self.spans = []
        self.stack = []
        self.restore = []       # (owner, attribute, original)
        self.pid = os.getpid()

    def wrap(self, name: str, fn, counters=None):
        """``fn`` recording a span per call; ``counters(args, result)``
        optionally attaches a dict of layer counters to the span."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1,
                      self.op, None]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if counters is not None:
                record[5] = counters(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def patch(self, owner, attribute: str, replacement) -> None:
        self.restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self.restore):
            setattr(owner, attribute, original)
        self.restore.clear()
        atexit.unregister(self.write)

    def after_fork(self) -> None:
        """Start a pool worker's own buffer and flush it when the
        worker exits (multiprocessing runs finalizers, not atexit)."""
        self.spans.clear()
        self.stack.clear()
        self.pid = os.getpid()
        util.Finalize(None, self.write, exitpriority=100)

    def write(self) -> None:
        if os.getpid() != self.pid or not self.spans:
            return
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path, "w") as fh:
            json.dump({"pid": self.pid, "spans": self.spans}, fh)


def _simulator_counters(args, result):
    sim = args[0]
    return {"superblock_instructions": sim.frontend.superblock_instructions,
            "functional_instructions": sim.frontend.emulator.instret}


def _core_counters(args, stats):
    core = args[0]
    return {"technique": core.wp_model.name,
            "instructions": stats.instructions,
            "wp_fetched": stats.wp_fetched,
            "timingblock_instructions": core.timingblock_instructions,
            "streamblock_instructions": core.streamblock_instructions,
            "artifact_compiles": core.code_cache.artifact_compiles,
            "cache_stats": core.hierarchy.stats(),
            "branch_mispredicts": (core.bpu.cond_mispredicts
                                   + core.bpu.indirect_mispredicts)}


def _capture_counters(args, snapshot):
    frontend = args[2]          # (cls, index, frontend, ...)
    return {"superblock_instructions": frontend.superblock_instructions,
            "functional_instructions": frontend.emulator.instret,
            "snapshot_bytes": len(json.dumps(snapshot.to_dict()))}


def install(out_dir: str, op: str) -> Recorder:
    """Wrap the layer entry points of the ``repro`` package in this
    process; returns the recorder (``uninstall()`` undoes it)."""
    import repro.cli  # noqa: F401  (loads the modules patched below)
    from repro.core.ooo import OoOCore
    from repro.engine import job as job_module
    from repro.engine.executor import ExperimentEngine
    from repro.engine.store import ResultStore
    from repro.frontend.queue import RunaheadQueue
    from repro.service.client import ServiceClient
    from repro.simulator import sampling
    from repro.simulator.simulation import Simulator
    from repro.simulator.snapshot import SimSnapshot
    from repro.workloads import registry

    rec = Recorder(out_dir, op)
    # Module-level functions are re-exported and imported by name, so
    # every loaded repro module that holds the original gets the wrapper.
    functions = ((registry.build_workload, "workloads.build", None),
                 (job_module.code_fingerprint, "engine.fingerprint", None),
                 (sampling.functional_pass, "simulator.functional_pass",
                  None))
    for original, name, counters in functions:
        wrapped = rec.wrap(name, original, counters)
        for module_name, module in list(sys.modules.items()):
            if (module_name == "repro" or module_name.startswith("repro.")) \
                    and module is not None:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        rec.patch(module, attribute, wrapped)
    methods = ((Simulator, "run", "simulator.run", _simulator_counters),
               (RunaheadQueue, "prepare", "functional.prepare", None),
               (OoOCore, "process_batch", "core.process_batch", None),
               (OoOCore, "finalize", "core.finalize", _core_counters),
               (SimSnapshot, "restore", "simulator.snapshot_restore", None),
               (ResultStore, "get", "engine.store_get", None),
               (ResultStore, "put", "engine.store_put", None),
               (ExperimentEngine, "run", "engine.run", None),
               (ServiceClient, "run", "service.run", None),
               (ServiceClient, "status", "service.status", None))
    for owner, attribute, name, counters in methods:
        rec.patch(owner, attribute,
                  rec.wrap(name, owner.__dict__[attribute], counters))
    capture = SimSnapshot.__dict__["capture"].__func__
    rec.patch(SimSnapshot, "capture", classmethod(
        rec.wrap("simulator.snapshot_capture", capture,
                 _capture_counters)))
    rec.patch(builtins, "compile", rec.wrap("compile", builtins.compile))
    # Runs in each multiprocessing child after its finalizer registry
    # is reset, so the flush registered there survives.
    util.register_after_fork(rec, Recorder.after_fork)
    atexit.register(rec.write)
    return rec


def load_spans(out_dir: str) -> list:
    """Every process's spans under ``out_dir`` as dicts, with
    ``self`` time (duration minus the time its child spans cover)."""
    spans = []
    if not os.path.isdir(out_dir):
        return spans
    for filename in sorted(os.listdir(out_dir)):
        if not (filename.startswith("spans-") and filename.endswith(".json")):
            continue
        with open(os.path.join(out_dir, filename)) as fh:
            data = json.load(fh)
        rows = data["spans"]
        child_time = [0.0] * len(rows)
        for name, start, end, parent, op, counters in rows:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, op, counters) in enumerate(rows):
            spans.append({"name": name, "start": start, "end": end,
                          "parent": parent, "op": op, "pid": data["pid"],
                          "self": (end - start) - child_time[i],
                          "counters": counters})
    return spans


def _layer_of(filename: str):
    """Layer of a profiled function's code filename, or None for a
    builtin (charged to its caller)."""
    if filename == "~":
        return None
    for tag, layer in TAG_LAYERS:
        if filename.startswith(tag):
            return layer
    if filename.startswith(REPRO_DIR):
        module = filename[len(REPRO_DIR):].split(os.sep)[0]
        if module in MODULE_LAYERS:
            return module
    return "other"


def layer_seconds(stats) -> dict:
    """Self seconds per layer from a ``pstats.Stats``.  Builtins are
    charged to the layer of each caller; ``compile``/``exec`` to the
    ``compile`` layer."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for (filename, _, funcname), (_, _, tt, _, callers) in \
            stats.stats.items():
        layer = _layer_of(filename)
        if layer is not None:
            totals[layer] += tt
        elif "builtins.compile" in funcname or "builtins.exec" in funcname:
            totals["compile"] += tt
        elif callers:
            for caller, edge in callers.items():
                totals[_layer_of(caller[0]) or "other"] += edge[2]
        else:
            totals["other"] += tt
    return totals


def _main(argv) -> int:
    mode, out, op = argv[:3]
    cli_args = argv[3:]
    sys.path.insert(0, SRC)
    if mode == "trace":
        install(out, op)
        from repro.cli import main
        return main(cli_args)
    if mode == "profile":
        import cProfile
        from repro.cli import main
        profiler = cProfile.Profile()
        try:
            return profiler.runcall(main, cli_args)
        finally:
            profiler.dump_stats(out)
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
