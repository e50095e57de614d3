"""GNG accelerator benchmarks A and B (paper Sec. 4.2, Fig. 10).

Benchmark A ("Noise generator") produces a noise buffer; benchmark B
("Noise applier") additionally reads an input sequence, converts each
noise sample to an 8-bit integer, and applies it.  Four execution modes:

* ``sw``   — the Box-Muller pipeline runs in software on Ariane (modeled
  as :data:`~repro.accel.gng.SW_CYCLES_PER_SAMPLE` of compute per sample;
  the functional samples come from the same generator, so outputs match
  the hardware bit-for-bit);
* ``1``/``2``/``4`` — non-cacheable fetches from the GNG tile returning
  one, two, or four packed 16-bit samples per load.

The paper runs 64 MB (A) / 32 MB (B); speedups are size-invariant, so the
default sample counts are scaled down (documented substitution) — the
benchmark reports speedup relative to the ``sw`` mode, which is what
Fig. 10 plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..accel.gng import (FETCH1, FETCH2, FETCH4, GaussianNoiseGenerator,
                         GngAccelerator, SW_CYCLES_PER_SAMPLE, pack_samples)
from ..core.prototype import Prototype, build
from ..cpu import TraceCore
from ..errors import WorkloadError
from ..noc import TileAddr

MODES = ("sw", "1", "2", "4")

#: Buffer regions used by the benchmarks.
NOISE_BUF = 0x100000
INPUT_BUF = 0x400000
OUTPUT_BUF = 0x700000

#: Compute cycles to convert one sample to int8 and apply it (benchmark B).
APPLY_CYCLES = 40

_FETCH_OFFSET = {"1": FETCH1, "2": FETCH2, "4": FETCH4}


@dataclass
class GngRunResult:
    mode: str
    cycles: int
    samples: List[int]


class GngBenchmark:
    """Builds a 1x1x2 prototype (Ariane in tile 0, GNG in tile 1)."""

    def __init__(self, n_samples: int = 512, seed: int = 11):
        if n_samples % 4:
            raise WorkloadError("sample count must be divisible by 4")
        self.n_samples = n_samples
        self.seed = seed

    def _fresh_system(self):
        proto = build("1x1x2")
        core = TraceCore(proto.sim, "cpu", proto.tile(0, 0), proto.addrmap)
        gng = GngAccelerator(proto.sim, "gng", seed=self.seed)
        proto.tile(0, 1).attach_device(gng)
        fetch_base = proto.addrmap.mmio_base(TileAddr(0, 1))
        return proto, core, fetch_base

    # ------------------------------------------------------------------
    # Benchmark A: generate noise into a buffer
    # ------------------------------------------------------------------
    def run_generator(self, mode: str) -> GngRunResult:
        proto, core, fetch_base = self._fresh_system()
        collected: List[int] = []

        def program(c):
            if mode == "sw":
                generator = GaussianNoiseGenerator(self.seed)
                for i in range(self.n_samples):
                    yield c.delay(SW_CYCLES_PER_SAMPLE)
                    sample = generator.next_sample()
                    collected.append(sample)
                    yield c.store(NOISE_BUF + 2 * i, pack_samples([sample]))
                return
            per_fetch = int(mode)
            addr = fetch_base + _FETCH_OFFSET[mode]
            for base_index in range(0, self.n_samples, per_fetch):
                data = yield c.nc_load(addr, 2 * per_fetch)
                for k in range(per_fetch):
                    sample = int.from_bytes(data[2 * k:2 * k + 2], "little")
                    collected.append(sample)
                    yield c.store(NOISE_BUF + 2 * (base_index + k),
                                  pack_samples([sample]))

        return self._execute(proto, core, program, mode, collected)

    # ------------------------------------------------------------------
    # Benchmark B: apply noise to an input sequence
    # ------------------------------------------------------------------
    def run_applier(self, mode: str) -> GngRunResult:
        proto, core, fetch_base = self._fresh_system()
        proto.load_image(INPUT_BUF, bytes(i % 251 for i in range(self.n_samples)))
        collected: List[int] = []

        def apply_one(c, i, sample):
            collected.append(sample)
            data = yield c.load(INPUT_BUF + i, 1)
            yield c.delay(APPLY_CYCLES)
            noisy = (data[0] + (sample >> 8)) & 0xFF
            yield c.store(OUTPUT_BUF + i, bytes([noisy]))

        def program(c):
            if mode == "sw":
                generator = GaussianNoiseGenerator(self.seed)
                for i in range(self.n_samples):
                    yield c.delay(SW_CYCLES_PER_SAMPLE)
                    yield from apply_one(c, i, generator.next_sample())
                return
            per_fetch = int(mode)
            addr = fetch_base + _FETCH_OFFSET[mode]
            for base_index in range(0, self.n_samples, per_fetch):
                data = yield c.nc_load(addr, 2 * per_fetch)
                for k in range(per_fetch):
                    sample = int.from_bytes(data[2 * k:2 * k + 2], "little")
                    yield from apply_one(c, base_index + k, sample)

        return self._execute(proto, core, program, mode, collected)

    # ------------------------------------------------------------------
    def _execute(self, proto, core, program, mode, collected) -> GngRunResult:
        done = []
        start = proto.now
        core.run_program(program, lambda c: done.append(c))
        proto.run()
        if not done:
            raise WorkloadError(f"GNG benchmark mode {mode} did not finish")
        return GngRunResult(mode=mode, cycles=proto.now - start,
                            samples=collected)


_BENCHMARKS = ("noise_generator", "noise_applier")


def _gng_cell(task) -> GngRunResult:
    """Worker for one Fig. 10 grid cell (module-level: picklable).

    Each cell builds its own fresh 1x1x2 system, so cells are independent
    and the grid parallelizes without changing any result.
    """
    label, mode, n_samples, seed = task
    bench = GngBenchmark(n_samples=n_samples, seed=seed)
    runner = (bench.run_generator if label == "noise_generator"
              else bench.run_applier)
    return runner(mode)


def fig10_speedups(n_samples: int = 512, seed: int = 11,
                   jobs: Optional[int] = 1) -> Dict[str, Dict[str, float]]:
    """Both benchmarks, all four modes; speedups relative to software.

    The eight benchmark x mode cells are independent simulations, so they
    run through :func:`repro.parallel.run_tasks` — serial for ``jobs=1``,
    on farm workers otherwise, identical output either way.
    """
    from ..parallel import run_tasks

    grid = [(label, mode, n_samples, seed)
            for label in _BENCHMARKS for mode in MODES]
    cells = run_tasks(_gng_cell, grid, jobs=jobs)
    out: Dict[str, Dict[str, float]] = {}
    for label in _BENCHMARKS:
        results = {result.mode: result
                   for (cell_label, *_), result in zip(grid, cells)
                   if cell_label == label}
        baseline = results["sw"].cycles
        # Functional check: every mode produced the identical sample stream.
        reference = results["sw"].samples
        for mode in ("1", "2", "4"):
            if results[mode].samples != reference:
                raise WorkloadError(
                    f"{label}: mode {mode} produced different noise")
        out[label] = {mode: baseline / results[mode].cycles
                      for mode in MODES}
    return out
