"""Spans around the calls the solve driver makes into each dsda module.

The tracer patches module attributes for the duration of a ``with
tracer.installed():`` block and restores them afterwards, so the
package itself carries no tracing code.  Each span records a name,
start, end, parent span and solve id; spans stay in memory until the
benchmark writes them out.  A layer's self time is its span minus the
time its direct children cover.

Targets that a later version of the package no longer has (the private
helpers especially) are reported as absent instead of failing.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass

import numpy as np

#: (module, attribute path, layer).  The rank and residual targets are
#: the names as bound in ``dsda.driver``, which is where the driver
#: looks them up at call time.
TARGETS = (
    ("dsda.problems", "gen_random_care", "problems.build"),
    ("dsda.problems", "gen_random_dare", "problems.build"),
    ("dsda.problems", "gen_random_mare", "problems.build"),
    ("dsda.problems", "gen_random_bsep", "problems.build"),
    ("dsda.mmio", "load_matrix_market", "mmio.load"),
    ("dsda.problems", "assemble_problem", "mmio.load"),
    ("dsda.decoupled", "dsda_sym_init", "decoupled.init"),
    ("dsda.decoupled", "dsda_mare_init", "decoupled.init"),
    ("dsda.decoupled", "dsda_sym_step", "decoupled.step"),
    ("dsda.decoupled", "dsda_mare_step", "decoupled.step"),
    ("dsda.decoupled", "_extend_basis", "decoupled.extend_basis"),
    ("dsda.decoupled", "_extend_gram", "decoupled.extend_gram"),
    ("dsda.decoupled", "dsda_eval_H", "decoupled.eval"),
    ("dsda.decoupled", "bsep_eval_F", "decoupled.eval"),
    ("dsda.decoupled", "dsda_mare_eval", "decoupled.eval"),
    ("dsda.decoupled", "LowRankSolution.dense", "decoupled.dense"),
    ("dsda.driver", "numerical_rank", "matkit.rank"),
    ("dsda.driver", "care_residual", "residuals.residual"),
    ("dsda.driver", "dare_residual", "residuals.residual"),
    ("dsda.driver", "mare_residual", "residuals.residual"),
    ("dsda.driver", "bsep_increment", "residuals.residual"),
    ("dsda.classical", "care_init", "classical.init"),
    ("dsda.classical", "dare_init", "classical.init"),
    ("dsda.classical", "mare_init", "classical.init"),
    ("dsda.classical", "bsep_init", "classical.init"),
    ("dsda.classical", "sym_sda_step", "classical.step"),
    ("dsda.classical", "mare_sda_step", "classical.step"),
    ("dsda.classical", "bsep_sda_step", "classical.step"),
)

#: Kernel arrays of the decoupled states whose bytes make up the kernel size.
KERNEL_FIELDS = ("y", "tcache", "z", "scache")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    solve: int | None = None


@dataclass
class SolveInfo:
    """Counts gathered at the layer boundaries of one traced solve."""

    instance: str
    method: str
    extend_flop: float = 0.0
    gram_flop: float = 0.0
    kernel_bytes: int | None = None


def _complex_factor(*arrays) -> int:
    """Real flops per multiply-add relative to real data (4 for complex)."""
    return 4 if any(np.iscomplexobj(a) for a in arrays) else 1


def _basis_flop(args) -> float:
    basis, prop, blocks, width = args[:4]
    return (2.0 * prop.shape[0] * prop.shape[1] * width * blocks
            * _complex_factor(basis, prop))


def _gram_flop(args) -> float:
    _, u_old, v_old, u_full, v_full = args[:5]
    n = u_old.shape[0]
    wu, wv = u_old.shape[1], v_old.shape[1]
    au, av = u_full.shape[1] - wu, v_full.shape[1] - wv
    return (2.0 * n * (wu * av + au * wv + au * av)
            * _complex_factor(u_full, v_full))


def _kernel_bytes(result) -> int | None:
    arrays = [getattr(result, f) for f in KERNEL_FIELDS if hasattr(result, f)]
    return sum(a.nbytes for a in arrays) if arrays else None


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.solves: list[SolveInfo] = []
        self.absent: list[str] = []
        self.layers: set[str] = set()
        #: First error of each layer whose count probe no longer fits.
        self.probe_failures: dict[str, str] = {}
        self._stack: list[int] = []

    def _wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            solve = self.spans[self._stack[0]].solve if self._stack else None
            span = Span(layer, 0.0,
                        parent=self._stack[-1] if self._stack else None,
                        solve=solve)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if solve is not None:
                self._count(layer, self.solves[solve], args, result)
            return result
        return traced

    def _count(self, layer: str, info: SolveInfo, args, result) -> None:
        try:
            if layer == "decoupled.extend_basis":
                info.extend_flop += _basis_flop(args)
            elif layer == "decoupled.extend_gram":
                info.gram_flop += _gram_flop(args)
            elif layer in ("decoupled.init", "decoupled.step"):
                info.kernel_bytes = _kernel_bytes(result)
        except (AttributeError, IndexError, TypeError, ValueError) as exc:
            self.probe_failures.setdefault(layer, repr(exc))

    def solve(self, fn, instance: str, method: str, *args, **kwargs):
        """Call ``fn`` (the driver) as the root span of a new solve."""
        self.solves.append(SolveInfo(instance, method))
        span = Span("driver", 0.0, solve=len(self.solves) - 1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def installed(self):
        """Patch every target that exists; restore all of them on exit."""
        saved = []
        try:
            for module, path, layer in TARGETS:
                *owner_path, attr = path.split(".")
                owner = importlib.import_module(module)
                for part in owner_path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if original is None:
                    if f"{module}.{path}" not in self.absent:
                        self.absent.append(f"{module}.{path}")
                    continue
                saved.append((owner, attr, original))
                self.layers.add(layer)
                setattr(owner, attr, self._wrap(layer, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "solve": s.solve} for s in self.spans]
