"""Figure-regeneration benchmark: host time to rebuild the paper's sweeps.

Run one workload::

    python3 perfbench/run.py --workload paper-spmv-cold --seed 7 \
        --seconds 25 --trace 0

``--trace 0`` times repetitions of the workload, each in a fresh
interpreter, and prints the end-to-end metrics. ``--trace 1`` runs the
workload once untraced and once traced (serial, one span per layer call)
and prints the per-layer metrics. The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--self-test`` runs every workload at smoke scale through the same code
and checks the harness itself. ``--write-expected`` regenerates
``expected.json`` (seed-7 cycles) from the current code.

Metric names, units and directions come from ``BENCHMARK.json``; the
glossary and the layer map are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import copy
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from rep import IMPLS, LATENCIES, WORKLOADS, axis_points  # noqa: E402

EXPECTED_PATH = HERE / "expected.json"
#: the seed the committed tables and ``expected.json`` were made with
EXPECTED_SEED = 7
#: outputs of a run (spans, result records, scratch caches); git-ignored
OUT_DIR = ROOT / ".perfbench"
#: every invocation must end well inside the 180 s the contract allows
DEADLINE_S = 165.0
MIN_REPS = 2
#: paper-measured slowdowns at +1024 cycles (EXPERIMENTS.md, Section 4.1)
PAPER_SLOWDOWN_1024 = {"scalar": 8.78, "vl256": 3.39}
#: span names that are layers; the rest are harness structure
LAYERS = ("workloads.prepare", "trace.gen", "kernels.verify", "trace.save",
          "memory.sidecar_save", "trace.load", "memory.sidecar_load",
          "memory.classify", "engine.lower", "engine.walk", "obs.attribute",
          "engine.des", "core.report.render")
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro-plane-"
MB = 2 ** 20


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _shm_segments() -> set[str]:
    """Trace-plane segments currently in ``/dev/shm``."""
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith(SHM_PREFIX)}
    except OSError:
        return set()


class Child:
    """Outcome of one ``rep.py`` process."""

    def __init__(self, phase: str, traced: bool) -> None:
        self.phase = phase
        self.traced = traced
        self.out: dict = {}
        self.spawn = self.exit = 0.0
        self.cpu_s = self.rss_mb = 0.0
        self.leaked: set[str] = set()
        self.error = ""

    @property
    def setup_s(self) -> float:
        """Interpreter start until the work is ready to run."""
        return self.out["ready"] - self.spawn

    @property
    def sweep_cpu_s(self) -> float:
        """CPU seconds of the process and its workers after set-up."""
        return self.cpu_s - self.out["cpu_ready"]

    @property
    def sim_work(self) -> int:
        """Simulated trace records x sweep points."""
        return sum(n * len(axis_points(axis))
                   for axis, recs in self.out.get("records", {}).items()
                   for n in recs.values())


class Bench:
    """One invocation: one workload, one seed, traced or not."""

    def __init__(self, name: str, *, seed: int, seconds: float,
                 trace: bool, scale: str | None = None,
                 expected: dict | None = None) -> None:
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale or self.w.scale
        key = f"{name}@{self.scale}"
        exp = (expected or {}).get("workloads", {}).get(key)
        #: reference cycles: pinned at seed 7, else the first rep's
        self.ref = (copy.deepcopy(exp)
                    if exp is not None and seed == EXPECTED_SEED else {})
        self.pinned = bool(self.ref)
        self.attempted = 0
        self.errors: list[str] = []
        self.start = time.monotonic()
        self.tmp: Path | None = None
        #: what the report shows: repetitions run, one repetition's
        #: output, per-repetition samples, traced self times, span file
        self.reps = 0
        self.sample: Child | None = None
        self.samples: dict[str, list[float]] = {}
        self.layer_table: list[tuple[str, float]] = []
        self.spans_path: Path | None = None
        self._n = 0

    # ---------------------------------------------------------- children

    def _spawn(self, phase: str, traced: bool, jobs: int) -> Child:
        child = Child(phase, traced)
        self._n += 1
        out = self.tmp / f"rep{self._n}.json"
        log = self.tmp / f"rep{self._n}.log"
        cmd = [sys.executable, str(HERE / "rep.py"), "--workload", self.name,
               "--scale", self.scale, "--seed", str(self.seed),
               "--phase", phase, "--traced", str(int(traced)),
               "--jobs", str(jobs), "--out", str(out)]
        if self.w.warm_cache:
            cmd += ["--cache", str(self.tmp / "trace-cache")]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.start))
        before = _shm_segments()
        with open(log, "w", encoding="utf-8") as fh:
            child.spawn = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                    env=env, cwd=ROOT, start_new_session=True)
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
        child.exit = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        child.cpu_s = ru.ru_utime + ru.ru_stime
        child.rss_mb = ru.ru_maxrss * 1024 / MB
        child.leaked = _shm_segments() - before
        if proc.returncode != 0 or not out.exists():
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            child.error = (f"{phase} exited with {proc.returncode}"
                           f"{' (timed out)' if proc.returncode < 0 else ''}"
                           f": {tail}")
            print(child.error, file=sys.stderr)
        else:
            child.out = json.loads(out.read_text(encoding="utf-8"))
        self._check(child)
        return child

    def _check(self, child: Child) -> None:
        """Count the child's operations and every one that failed."""
        ops = (len(IMPLS) if child.phase == "fill"
               else self.w.ops_per_rep)
        self.attempted += ops
        if child.error:
            self.errors.append(child.error.splitlines()[0])
            self.errors.extend(["(same failure)"] * (ops - 1))
            return
        failed = []
        for op in child.out["ops"]:
            where = f"{op['axis']}/{op['impl']}"
            if op["error"]:
                failed.append(f"{where}: {op['error']}")
                continue
            if child.phase == "fill":
                continue
            got = child.out["cycles"][op["axis"]][op["impl"]]
            ref = self.ref.setdefault(op["axis"], {}).setdefault(
                op["impl"], got)
            if got != ref:
                what = "expected output" if self.pinned else "first run"
                failed.append(f"{where}: cycles differ from the {what}"
                              f"{' (traced run)' if child.traced else ''}")
        for seg in sorted(child.leaked):
            failed.append(f"left /dev/shm/{seg} behind")
        self.errors.extend(failed[:ops])

    # --------------------------------------------------------------- run

    def run(self) -> dict:
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / "tmp").mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{self.name}-",
                                         dir=OUT_DIR / "tmp"))
        try:
            if self.trace:
                metrics = self._run_traced()
            else:
                metrics = self._run_timed()
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)
        failed = len(self.errors)
        spec = _benchmark_spec()["per_layer" if self.trace else "end_to_end"]
        return {"correct": failed == 0, "attempted": self.attempted,
                "failed": failed,
                "metrics": {m["name"]: {"value": metrics[m["name"]],
                                        "unit": m["unit"]}
                            for m in spec if m["name"] in metrics}}

    def _fill(self, traced: bool) -> Child | None:
        return self._spawn("fill", traced, 1) if self.w.warm_cache else None

    def _run_timed(self) -> dict:
        fill = self._fill(False)
        fill_s = fill.out["done"] - fill.spawn if fill and fill.out else 0.0
        fill_rss = fill.rss_mb if fill else 0.0
        reps: list[Child] = []
        measured = 0.0
        while len(reps) < MIN_REPS or measured < self.seconds:
            left = DEADLINE_S - (time.monotonic() - self.start)
            if reps and left < 1.5 * (reps[-1].exit - reps[-1].spawn):
                break
            rep = self._spawn("sweep", False, self.w.jobs)
            reps.append(rep)
            measured += rep.exit - rep.spawn
        ok = [r for r in reps if r.out]
        self.reps = len(reps)
        self.sample = ok[0] if ok else None
        self.samples = {
            "wall_s": [r.out["wall_s"] for r in ok],
            "setup_s": [fill_s + r.setup_s for r in ok],
            "cpu_s": [r.sweep_cpu_s for r in ok],
            "peak_rss_mb": [max(fill_rss, r.rss_mb) for r in ok],
            "sim_rate_mrps": [r.sim_work / r.out["wall_s"] / 1e6
                              for r in ok],
        }
        return {k: _median(v) for k, v in self.samples.items()}

    def _run_traced(self) -> dict:
        fill = self._fill(True)
        untraced = self._spawn("sweep", False, self.w.jobs)
        serial = (self._spawn("sweep", False, 1) if self.w.jobs > 1
                  else untraced)
        traced = self._spawn("sweep", True, 1)
        self.reps = 1
        self.sample = untraced if untraced.out else None
        if not (untraced.out and serial.out and traced.out):
            return {}
        sweep_spans = _self_times(traced.out["spans"])
        all_spans = sweep_spans + (_self_times(fill.out["spans"])
                                   if fill and fill.out else [])
        self.layer_table = _layer_table(sweep_spans)
        self._write_spans(traced, fill)

        def total(name, spans=all_spans):
            return sum(s["self"] for s in spans if s["name"] == name)

        def count(name, key, spans=all_spans):
            return sum(s["counts"].get(key, 0) for s in spans
                       if s["name"] == name)

        def rate(num, den):
            return num / den if den > 0 else 0.0

        timed_layers = sum(s["self"] for s in sweep_spans
                           if s["name"] in LAYERS
                           and s["name"] != "workloads.prepare")
        serial_wall = serial.out["wall_s"]
        impls = [s for s in sweep_spans if s["name"] == "core.sweeps.impl"]
        per_sweep: dict[int, list] = {}
        for s in impls:
            per_sweep.setdefault(s["parent"], []).append(s["counts"])
        hits = count("trace.load", "hits", sweep_spans)
        misses = count("trace.gen", "misses", sweep_spans)
        walk_work = sum(s["counts"]["records"] * s["counts"]["cols"]
                        for s in sweep_spans if s["name"] == "engine.walk")
        des_work = sum(s["counts"]["records"] * s["counts"]["points"]
                       for s in sweep_spans if s["name"] == "engine.des")
        m = {f"{name}_s": total(name) for name in LAYERS}
        m.update({
            "trace.records": sum(s["counts"]["records"] for s in impls),
            "trace.gen_krec_per_s": rate(count("trace.gen", "records"),
                                         total("trace.gen")) / 1e3,
            "trace.cache_hit_ratio": rate(hits, hits + misses),
            "memory.classify_krec_per_s": rate(
                count("memory.classify", "records"),
                total("memory.classify")) / 1e3,
            "engine.walk_cols": count("engine.walk", "cols"),
            "engine.walk_ns_per_rec_col": rate(total("engine.walk") * 1e9,
                                               walk_work),
            "engine.des_krec_points_per_s": rate(
                des_work, total("engine.des")) / 1e3,
            "core.sweeps.overhead_s": serial_wall - timed_layers,
            "core.parallel.efficiency": rate(
                timed_layers, self.w.jobs * untraced.out["wall_s"]),
            "trace.mbytes": max((sum(c["trace_bytes"] for c in cs)
                                 for cs in per_sweep.values()),
                                default=0) / MB,
            "engine.lowered_mbytes": max((sum(c["lowered_bytes"] for c in cs)
                                          for cs in per_sweep.values()),
                                         default=0) / MB,
            "tracing.overhead_frac": rate(traced.out["wall_s"],
                                          serial_wall) - 1.0,
        })
        return m

    def _write_spans(self, traced: Child, fill: Child | None) -> None:
        path = OUT_DIR / f"spans-{self.name}-seed{self.seed}.json"
        spans = {"sweep": traced.out["spans"]}
        if fill and fill.out:
            spans["fill"] = fill.out["spans"]
        path.write_text(json.dumps(spans), encoding="utf-8")
        self.spans_path = path


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except OSError:
        pass


def _self_times(spans: list[dict]) -> list[dict]:
    """Each span's self time: its duration minus its children's."""
    out = [dict(s, self=s["end"] - s["start"]) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]]["self"] -= s["end"] - s["start"]
    return out


def _layer_table(spans: list[dict]) -> list[tuple[str, float]]:
    """Self seconds by span name, largest first."""
    by: dict[str, float] = {}
    for s in spans:
        by[s["name"]] = by.get(s["name"], 0.0) + s["self"]
    return sorted(by.items(), key=lambda kv: -kv[1])


# ------------------------------------------------------------- reporting

def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(bench: Bench) -> dict:
    import numpy

    sample = bench.sample.out if bench.sample else {}
    return {
        "workload": bench.name, "git_sha": _git_sha(),
        "src_sha256": _src_digest(), "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "engine": bench.w.engine,
        "classifier": sample.get("classifier", "unknown"),
        "scale": bench.scale, "seed": bench.seed,
        "jobs": bench.w.jobs,
        "trace": int(bench.trace), "reps": bench.reps,
    }


def report_lines(bench: Bench, result: dict) -> list[str]:
    spec = _benchmark_spec()
    kind = "per_layer" if bench.trace else "end_to_end"
    lines = [f"perfbench {bench.name} scale={bench.scale} seed={bench.seed} "
             f"trace={int(bench.trace)} reps={bench.reps}"]
    for m in spec[kind]:
        value = result["metrics"].get(m["name"], {}).get("value",
                                                          float("nan"))
        lines.append(f"  {m['name']:<30} {value:>14.6g} {m['unit']:<9} "
                     f"({m['better']} is better)")
    att, failed = result["attempted"], result["failed"]
    lines.append(f"  {'error_rate':<30} {failed / max(att, 1):>14.6g} "
                 f"{'fraction':<9} (lower is better; {failed} of {att} "
                 "operations failed)")
    for err in bench.errors[:10]:
        lines.append(f"    FAILED {err}")
    if bench.layer_table:
        timed = sum(v for _, v in bench.layer_table)
        lines.append("  traced self time by span (sweep process):")
        for name, sec in bench.layer_table:
            lines.append(f"    {name:<28} {sec:10.4f} s "
                         f"{100 * sec / timed:5.1f}%")
        lines.append(f"  spans written to {bench.spans_path}")
    sample = bench.sample.out if bench.sample else {}
    lat = sample.get("cycles", {}).get("latency", {})
    if bench.w.kernel == "spmv" and bench.w.engine == "batch" and lat:
        i0, i1 = LATENCIES.index(0), LATENCIES.index(1024)
        parts = [f"{impl} {lat[impl][i1] / lat[impl][i0]:.2f}x "
                 f"(paper {paper:.2f}x)"
                 for impl, paper in PAPER_SLOWDOWN_1024.items()]
        lines.append("  accuracy (simulated time, not gated): slowdown at "
                     "+1024 cycles: " + ", ".join(parts))
    return lines


def run_one(name: str, *, seed: int, seconds: float, trace: bool,
            scale: str | None = None, expected: dict | None = None,
            echo: bool = True) -> tuple[dict, list[str]]:
    """Run one workload; print (``echo``) and return its result."""
    bench = Bench(name, seed=seed, seconds=seconds, trace=trace,
                  scale=scale, expected=expected)
    result = bench.run()
    lines = report_lines(bench, result)
    prov = provenance(bench)
    lines.append("provenance " + json.dumps(prov, sort_keys=True))
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = dict(result, provenance=prov, errors=bench.errors,
                  samples=bench.samples)
    (results_dir / f"{name}-{bench.scale}-seed{seed}-trace{int(trace)}.json"
     ).write_text(json.dumps(record, indent=1), encoding="utf-8")
    if echo:
        print("\n".join(lines), flush=True)
    return result, lines


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def write_expected() -> int:
    """Pin every workload's seed-7 cycles, at its own and smoke scale."""
    pinned = {}
    for name, w in WORKLOADS.items():
        for scale in (w.scale, "smoke"):
            bench = Bench(name, seed=EXPECTED_SEED, seconds=0, trace=False,
                          scale=scale)
            result = bench.run()
            if result["failed"]:
                print(f"{name}@{scale}: {bench.errors}", file=sys.stderr)
                return 1
            pinned[f"{name}@{scale}"] = bench.ref
            print(f"pinned {name}@{scale}", file=sys.stderr)
    EXPECTED_PATH.write_text(json.dumps(
        {"seed": EXPECTED_SEED, "workloads": pinned}, indent=1) + "\n",
        encoding="utf-8")
    return 0


def self_test() -> int:
    """The harness checks itself at smoke scale through the same path."""
    spec = _benchmark_spec()
    expected = load_expected()
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            result, lines = run_one(name, seed=EXPECTED_SEED, seconds=0,
                                    trace=trace, scale="smoke",
                                    expected=expected, echo=False)
            what = f"{name} trace={int(trace)}"
            kind = "per_layer" if trace else "end_to_end"
            text = "\n".join(lines)
            for m in spec[kind]:
                if not any(line.split()[:1] == [m["name"]]
                           and f" {m['unit']} " in line for line in lines):
                    problems.append(f"{what}: {m['name']} not printed "
                                    f"with its unit {m['unit']}")
                elif m["name"] not in result["metrics"]:
                    problems.append(f"{what}: {m['name']} missing")
            if "error_rate" not in text:
                problems.append(f"{what}: error_rate not printed")
            if result["failed"] or not result["correct"]:
                problems.append(f"{what}: {result['failed']} failed; "
                                "error_rate must be 0 (traced and untraced "
                                "cycles must agree)\n" + text)
    # a corrupted expected output must show up as failed operations
    bad = copy.deepcopy(expected)
    cycles = bad["workloads"]["paper-spmv-cold@smoke"]["latency"]["scalar"]
    cycles[0] += 1.0
    result, _ = run_one("paper-spmv-cold", seed=EXPECTED_SEED, seconds=0,
                        trace=False, scale="smoke", expected=bad, echo=False)
    if not result["failed"] > 0:
        problems.append("a corrupted expected output was not detected")
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=EXPECTED_SEED)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measure repetitions for at least this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure ({ROOT / 'src' / 'repro'} "
              "is missing)", file=sys.stderr)
        return 2
    # a SIGTERM unwinds like an exception, so scratch caches are removed
    # and children are killed on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # byte-compile once up front so no repetition pays for it
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    if args.self_test:
        return self_test()
    if args.write_expected:
        return write_expected()
    if args.workload is None:
        ap.error("--workload is required")
    result, _ = run_one(args.workload, seed=args.seed, seconds=args.seconds,
                        trace=bool(args.trace), expected=load_expected())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
