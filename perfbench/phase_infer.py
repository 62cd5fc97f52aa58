"""The offline inference phase: batch-1 embedded inference from one caller.

Only :mod:`repro.nn` kernels run here: no queue and no simulator.  The
two models differ in op mix (MobileNet is depthwise plus pointwise,
SqueezeNext is 1x1 and 3x3 bottlenecks), so a kernel change shows on
one model's row and not the other's.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from harness import Spans, check, median
from repro.models import mobilenet, squeezenext
from repro.nn import GraphNetwork, compile_plan, compile_quantized_plan

#: Executor name -> images per call.
EXECUTORS = {"plan": 1, "compiled": 1, "int16": 1, "int16_compiled": 1,
             "compiled_b8": 8}
IMAGES_PER_MODEL = 8
#: Correctness bars: compiled vs plan (absolute), int16 vs float
#: (relative to the largest float output).
COMPILED_ATOL = 1e-12
INT16_RTOL = 2e-3


def model_factories(tiny: bool) -> Dict[str, Callable]:
    if tiny:
        return {"squeezenext": lambda: squeezenext(width_multiplier=0.25),
                "mobilenet": lambda: mobilenet(width_multiplier=0.25,
                                               resolution=64)}
    return {"squeezenext": squeezenext, "mobilenet": mobilenet}


class ModelRuntime:
    """One model lowered onto every executor the phase times."""

    def __init__(self, name: str, spec, spans: Spans,
                 setup_ms: Dict[str, float]) -> None:
        self.name = name
        net = GraphNetwork(spec, rng=np.random.default_rng(0),
                           batch_norm=True)
        # Non-trivial BatchNorm statistics, so folding does real work.
        stats_rng = np.random.default_rng(1)
        for bn in net._bn.values():
            bn.running_mean = stats_rng.normal(scale=0.3, size=bn.channels)
            bn.running_var = stats_rng.uniform(0.5, 2.0, size=bn.channels)
        self.net = net.eval()
        shape = spec.input_shape
        self.input_shape = (shape.channels, shape.height, shape.width)

        def step(name: str, fn):
            start = time.perf_counter()
            with spans(name, model=self.name):
                result = fn()
            setup_ms[name + "_ms"] = (setup_ms.get(name + "_ms", 0.0)
                                      + (time.perf_counter() - start) * 1e3)
            return result

        self.plan = step("nn.build_plan", self.net.inference_plan)
        self.compiled = step("nn.compile", lambda: compile_plan(
            self.plan, self.input_shape, batch_sizes=(1, 8)))
        self.int16 = step("nn.quantize", lambda: self.plan.quantize(16))
        self.int16_compiled = step("nn.compile_int16",
                                   lambda: compile_quantized_plan(
                                       self.int16, self.input_shape,
                                       batch_sizes=(1,)))

    def executor(self, name: str) -> Callable[[np.ndarray], np.ndarray]:
        return {"plan": self.plan.run, "compiled": self.compiled.run,
                "int16": self.int16.run,
                "int16_compiled": self.int16_compiled.run,
                "compiled_b8": self.compiled.run}[name]

    def memory_mib(self) -> Dict[str, float]:
        return {
            f"nn.plan.{self.name}.peak_live_mib":
                self.plan.last_peak_live_bytes / 2**20,
            f"nn.compiled.{self.name}.static_arena_mib":
                self.compiled.static_arena_bytes(1) / 2**20,
            f"nn.int16_compiled.{self.name}.static_arena_mib":
                self.int16_compiled.static_arena_bytes(1) / 2**20,
        }


def build_runtimes(tiny: bool, spans: Spans
                   ) -> Tuple[Dict[str, ModelRuntime], Dict[str, float]]:
    setup_ms: Dict[str, float] = {}
    runtimes = {}
    for name, factory in model_factories(tiny).items():
        start = time.perf_counter()
        with spans("models.build", model=name):
            spec = factory()
        setup_ms["models.build_ms"] = (setup_ms.get("models.build_ms", 0.0)
                                       + (time.perf_counter() - start) * 1e3)
        runtimes[name] = ModelRuntime(name, spec, spans, setup_ms)
    return runtimes, setup_ms


class InferPhase:
    kind = "infer"

    def __init__(self, runtimes: Dict[str, ModelRuntime],
                 rng: np.random.Generator, spans: Spans) -> None:
        self.runtimes = runtimes
        self.spans = spans
        self.images = {name: rng.normal(size=(IMAGES_PER_MODEL,)
                                        + rt.input_shape)
                       for name, rt in runtimes.items()}
        # Per executor, per unit: (images, seconds) summed over models.
        self.samples: Dict[str, List[Tuple[int, float]]] = {
            ex: [] for ex in EXECUTORS}
        self.ms_per_img: Dict[str, List[float]] = {}
        self.units = 0
        self.images_done = 0

    def warm_up(self) -> None:
        """Bind arenas and programs before anything is timed."""
        for name, rt in self.runtimes.items():
            for ex, batch in EXECUTORS.items():
                rt.executor(ex)(self.images[name][:batch])

    def unit(self) -> None:
        rotation = self.units % len(EXECUTORS)
        order = list(EXECUTORS)[rotation:] + list(EXECUTORS)[:rotation]
        models = list(self.runtimes)
        if self.units % 2:
            models.reverse()
        totals = {ex: [0, 0.0] for ex in EXECUTORS}
        for name in models:
            rt = self.runtimes[name]
            index = self.units % IMAGES_PER_MODEL
            outputs = {}
            for ex in order:
                batch = EXECUTORS[ex]
                x = (self.images[name] if batch > 1
                     else self.images[name][index:index + 1])
                run = rt.executor(ex)
                start = time.perf_counter()
                with self.spans(f"nn.{ex}.run", model=name, batch=batch):
                    y = run(x)
                elapsed = time.perf_counter() - start
                # Compiled programs return views of their static arena.
                outputs[ex] = np.array(y, copy=True)
                totals[ex][0] += batch
                totals[ex][1] += elapsed
                self.ms_per_img.setdefault(f"nn.{ex}.{name}.ms_per_img",
                                           []).append(elapsed * 1e3 / batch)
                self.images_done += batch
            self._check(name, index, outputs)
        for ex, (images, seconds) in totals.items():
            self.samples[ex].append((images, seconds))
        self.units += 1

    @staticmethod
    def _check(name: str, index: int, out: Dict[str, np.ndarray]) -> None:
        plan = out["plan"]
        diff = float(np.max(np.abs(out["compiled"] - plan)))
        check(diff <= COMPILED_ATOL,
              f"{name}: compiled vs plan differs by {diff:g}")
        diff = float(np.max(np.abs(out["compiled_b8"][index] - plan[0])))
        check(diff <= COMPILED_ATOL,
              f"{name}: compiled batch-8 row vs plan differs by {diff:g}")
        check(np.array_equal(out["int16_compiled"], out["int16"]),
              f"{name}: compiled int16 is not bit-identical to the int16 "
              f"plan")
        rel = float(np.max(np.abs(out["int16"] - plan))
                    / max(float(np.max(np.abs(plan))), 1e-12))
        check(rel <= INT16_RTOL,
              f"{name}: int16 vs float relative deviation {rel:g}")

    def compiled_b1_ms(self, model: str) -> float:
        return median(self.ms_per_img[f"nn.compiled.{model}.ms_per_img"])

    def end_to_end(self) -> Dict[str, float]:
        names = {"plan": "infer_plan_img_per_s",
                 "compiled": "infer_compiled_img_per_s",
                 "int16": "infer_int16_img_per_s",
                 "int16_compiled": "infer_int16_compiled_img_per_s",
                 "compiled_b8": "infer_compiled_b8_img_per_s"}
        return {names[ex]: median([n / s for n, s in samples])
                for ex, samples in self.samples.items()}

    def per_layer(self) -> Dict[str, float]:
        metrics = {name: median(values)
                   for name, values in self.ms_per_img.items()}
        for rt in self.runtimes.values():
            metrics.update(rt.memory_mib())
        return metrics
