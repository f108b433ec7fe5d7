"""Run one workload of the dagwidth benchmark and print its metrics.

    python3 benchmarks/run.py --workload narrow --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the library is imported from its src/.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. --trace 0 gives the end-to-end metrics, --trace 1 the per-layer
ones from a separate traced run. A readable report goes to stderr.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if __name__ == "__main__":  # a script: take this package and the library from the checkout
    sys.dont_write_bytecode = True
    sys.path[0:1] = [str(SRC), str(ROOT)]

from benchmarks import layers  # noqa: E402
from benchmarks.checker import CheckError  # noqa: E402
from benchmarks.tracing import Tracer  # noqa: E402
from benchmarks.workloads import WORKLOADS, Direct  # noqa: E402

END_TO_END = {"vertices_per_s": "1/s", "op_s_p50": "s", "op_s_tail": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}
SETUPS = 3          # set-ups per run; setup_s is their median
MIN_OPS = 11        # the tail needs ten samples beyond it
TAIL_BEYOND = 10


def import_library():
    """Import dagwidth afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == "dagwidth" or m.startswith("dagwidth.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = importlib.import_module("dagwidth")
    importlib.import_module("dagwidth.io")
    if Path(lib.__file__).resolve().parent != SRC / "dagwidth":
        raise ImportError(f"dagwidth imported from {lib.__file__}, not from {SRC}")
    return lib


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it."""
    s = sorted(values)
    idx = len(s) - TAIL_BEYOND - 1
    return s[idx], 100.0 * (idx + 1) / len(s)


class Run:
    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.checked: dict = {}     # input key -> output texts that passed
        self.lib = None

    def set_up(self) -> float:
        """Import, generate and render the inputs, and run the warm-up op;
        returns the seconds taken (the warm-up's check is not counted)."""
        self.inputs = None
        gc.collect()
        t0 = time.perf_counter()
        self.lib = import_library()
        self.inputs = self.workload.inputs(self.seed)
        warm = self.workload.warmup(self.seed)
        out = self._call(warm, None)
        elapsed = time.perf_counter() - t0
        self._verify(warm, out)
        return elapsed

    def _call(self, inp, tracer):
        try:
            return self.workload.op(self.lib, tracer or Direct, inp)
        except Exception:  # an op that raises is a failed op, and the run goes on
            if self.failed < 3:
                traceback.print_exc(file=sys.stderr)
            return None

    def _verify(self, inp, out) -> bool:
        """Check one op's outputs outside the timed region; count the op."""
        self.attempted += 1
        problems = ["op raised"] if out is None else []
        if out is not None:
            texts = {k: v for k, v in out.items() if k != "obj"}
            if self.checked.get(inp.key) != texts:
                try:
                    problems = self.workload.check(self.lib, inp, out, self.checked)
                except CheckError as exc:
                    problems = [f"unreadable output: {exc}"]
                except Exception as exc:  # e.g. the round trip through dagwidth.io raised
                    problems = [f"check raised {exc!r}"]
                if not problems:
                    self.checked[inp.key] = texts
        if problems:
            self.failed += 1
            if self.failed <= 3:
                print(f"op on {inp.key} failed: {'; '.join(problems[:3])}", file=sys.stderr)
        return not problems

    def timed_op(self, inp, tracer=None):
        """(wall s, cpu s, ok) of one op; gc and checks stay outside."""
        gc.collect()
        root = None
        if tracer is not None:
            layers.install(tracer, sys.modules)
            root = tracer.begin_op(self.attempted)
        w0, c0 = time.perf_counter(), time.process_time()
        out = self._call(inp, tracer)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if tracer is not None:
            tracer.end_op(root)
            tracer.unpatch()
        return wall, cpu, self._verify(inp, out)


def end_to_end(run: Run, seconds: float):
    setups = [run.set_up() for _ in range(SETUPS)]
    walls, cpus, vertices = [], [], 0
    start = time.perf_counter()
    j = 0
    while time.perf_counter() - start < seconds or j < MIN_OPS:
        inp = run.inputs[j % len(run.inputs)]
        wall, cpu, ok = run.timed_op(inp)
        if ok:
            walls.append(wall)
            cpus.append(cpu)
            vertices += inp.n
        j += 1
    if not walls:
        return None
    values = {"vertices_per_s": vertices / sum(walls),
              "op_s_p50": statistics.median(walls),
              "setup_s": statistics.median(setups),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    report = [f"ops {len(walls)} ok of {j}, cpu/wall median "
              f"{statistics.median(c / w for c, w in zip(cpus, walls)):.3f}, "
              f"setups {', '.join(f'{s:.3f}' for s in setups)} s"]
    if len(walls) > TAIL_BEYOND:
        values["op_s_tail"], pct = tail(walls)
        report.append(f"op_s_tail is p{pct:.1f} of {len(walls)} ops")
    return {k: (v, END_TO_END[k]) for k, v in values.items()}, report


def traced(run: Run, seconds: float, workload_name: str):
    run.set_up()
    tracer = Tracer()
    plain = traced_s = 0.0
    start = time.perf_counter()
    while True:  # whole passes, so that counts per op repeat exactly
        for inp in run.inputs:
            plain += run.timed_op(inp)[0]
            traced_s += run.timed_op(inp, tracer)[0]
        if time.perf_counter() - start >= seconds:
            break
    values = layers.per_layer(tracer)
    values[layers.OVERHEAD.name] = 100.0 * (traced_s / plain - 1.0)
    units = {m.name: m.unit for m in layers.PER_LAYER + (layers.OVERHEAD,)}
    metrics = {k: (v, units[k]) for k, v in values.items() if v != layers.ABSENT}
    out_dir = ROOT / "benchmarks" / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload_name}.tsv.gz"  # the latest traced run only
    spans = tracer.write(path)
    report = [f"traced ops {tracer.ops}, spans {spans} -> {path.relative_to(ROOT)}"]
    absent = sorted(k for k, v in values.items() if v == layers.ABSENT)
    if absent:
        report.append("absent (hook target missing): " + ", ".join(absent))
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dagwidth" / "__init__.py").is_file():
        print(f"error: no dagwidth sources under {SRC}", file=sys.stderr)
        return 2
    run = Run(WORKLOADS[args.workload], args.seed)
    if args.trace:
        measured = traced(run, args.seconds, args.workload)
    else:
        measured = end_to_end(run, args.seconds)
    if not measured:
        print("error: no op completed", file=sys.stderr)
        return 1
    metrics, report = measured
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>10} {name:<34} {value:>16.6g} {unit}", file=sys.stderr)
    for line in report + [f"error_rate {run.failed}/{run.attempted}"]:
        print(f"{args.workload:>10} {line}", file=sys.stderr)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
