"""One decoupled pipeline, wired in one place.

The paper's machine is a single pipeline: a functional frontend feeds a
runahead queue, which feeds an out-of-order timing core running one of
the four wrong-path models (Section IV).  :class:`Machine` owns every
wiring rule between those parts and :meth:`Machine.run` is the one loop
that drives them, so the simulation modes differ only in what they pass
in:

* :class:`~repro.simulator.simulation.Simulator` and the streaming
  sampler — a program;
* trace replay (:func:`~repro.functional.trace.simulate_trace`) — a
  :class:`~repro.functional.trace.TraceFrontend` instead of the live
  frontend;
* multicore (:mod:`repro.multicore`) — a shared LLC and memory;
* checkpointed sampling's interval jobs — a
  :class:`~repro.simulator.snapshot.SimSnapshot` to restore into the
  fresh components.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from repro.branch.predictors import BranchPredictorUnit
from repro.cache.hierarchy import CacheHierarchy
from repro.core.ooo import OoOCore
from repro.frontend.code_cache import CodeCache
from repro.frontend.queue import RunaheadQueue
from repro.functional.frontend import FunctionalFrontend
from repro.functional.memory import Memory
from repro.wrongpath.base import WrongPathModel
from repro.wrongpath.convergence import ConvergenceExploitation
from repro.wrongpath.emulation import WrongPathEmulation
from repro.wrongpath.instrec import InstructionReconstruction
from repro.wrongpath.nowp import NoWrongPath

#: The four simulator versions of Section IV.
TECHNIQUES: Dict[str, Type[WrongPathModel]] = {
    NoWrongPath.name: NoWrongPath,
    InstructionReconstruction.name: InstructionReconstruction,
    ConvergenceExploitation.name: ConvergenceExploitation,
    WrongPathEmulation.name: WrongPathEmulation,
}


class Machine:
    """Frontend, runahead queue, cache hierarchy, timing predictor and
    core for one technique under one :class:`~repro.core.config.CoreConfig`.

    ``frontend`` replaces the live functional frontend over ``program``;
    ``shared_llc``/``shared_memory`` back the hierarchy with another
    core's last level; ``snapshot`` is restored into the fresh frontend,
    hierarchy, predictor and code cache before the core binds them.
    """

    def __init__(self, cfg, technique: str, program=None, frontend=None,
                 shared_llc=None, shared_memory=None, snapshot=None,
                 depth: Optional[int] = None):
        if frontend is None:
            # Under wpemul the frontend emulates each mispredicted path,
            # steered by its own predictor copy in lockstep with the
            # core's (Section III-B), for one ROB plus the frontend
            # buffers.
            emulate = technique == WrongPathEmulation.name
            frontend = FunctionalFrontend(
                program, Memory(), emulate_wrong_path=emulate,
                predictor=BranchPredictorUnit.from_config(cfg)
                if emulate else None,
                wp_limit=cfg.rob_size + cfg.wp_frontend_buffer)
        hierarchy = CacheHierarchy.from_config(cfg, shared_llc,
                                               shared_memory)
        bpu = BranchPredictorUnit.from_config(cfg)
        code_cache = CodeCache()
        if snapshot is not None:
            # One restore covers both predictor copies (frontend +
            # timing), so wpemul intervals start in lockstep.
            snapshot.restore(frontend, hierarchy=hierarchy, bpu=bpu,
                             code_cache=code_cache)
        if depth is None:
            # The conv model peeks ROB-size instructions ahead, so the
            # queue must run ahead at least that far plus slack.
            depth = max(2 * cfg.rob_size + 128, 1024)
        self.frontend = frontend
        self.queue = RunaheadQueue(frontend.produce, depth=depth,
                                   batch_producer=frontend.produce_batch)
        self.hierarchy = hierarchy
        self.bpu = bpu
        self.core = OoOCore(cfg, hierarchy, bpu, TECHNIQUES[technique](),
                            code_cache=code_cache, queue=self.queue)

    def run(self, limit: Optional[int] = None) -> int:
        """Simulate up to ``limit`` instructions (``None``: to program
        exit); returns how many ran, fewer than ``limit`` only when the
        stream ended.

        ``prepare()`` compacts and refills the queue, and
        ``process_batch`` walks its buffer directly, so no instruction
        pays a ``pop()`` call.
        """
        queue = self.queue
        process_batch = self.core.process_batch
        processed = 0
        while limit is None or processed < limit:
            available = queue.prepare()
            if available == 0:
                break
            if limit is not None and available > limit - processed:
                available = limit - processed
            processed += process_batch(queue, available)
        return processed
