"""Benchmark of the ``mstport`` command line on generated panels.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the engine is imported from
``src/``).  One run:

1. writes the ``PANELS`` panels of ``--seed`` and those of the two
   reference seeds;
2. runs the workload once on each reference panel and compares the
   outputs with the stored reference (``reference/``);
3. runs the workload back to back, one process at a time and round robin
   over the ``--seed`` panels, for ``--seconds`` seconds (at least one
   process per panel, or two traced and two untraced), checking each
   process's outputs and sampling the host's speed while each process runs;
4. prints every metric with its unit and sample count, a machine record,
   and as the last line one JSON object.

With ``--trace 0`` the metrics are end to end, from untraced processes.
With ``--trace 1`` traced and untraced processes alternate; the traced
ones wrap the engine's public functions from outside (see ``probe.py``)
and the metrics are per layer.  ``--write-reference`` regenerates the
reference files of a workload from the current engine instead.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BLAS_THREADS = 1
# Set before numpy loads, so the speed probe in this process runs BLAS on
# as many threads as the engine processes do.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import check
import layers
import panel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE_DIR = HERE / "reference"
REFERENCE_SEEDS = (1, 7919)  # default panel seed and a held-out one
# Panels measured per run, seeds PANELS * seed + k.  One panel's cost
# moves by a few percent with its seed, so a run averages over several.
PANELS = 3
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
FIVE = "buy_hold,mst_var,mst_sharpe,fixed,dynamic_var"
ALL_STRATEGIES = [
    "buy_hold", "mst_var", "mst_sharpe", "mst_arima_var", "mst_arima_sharpe", "mst_nnar_var",
    "mst_nnar_sharpe", "mst_allagree_var", "mst_allagree_sharpe", "fixed", "dynamic_var",
]


@dataclass(frozen=True)
class Workload:
    spec: panel.PanelSpec
    command: str  # simulate | network
    strategy: dict[str, str] = field(default_factory=dict)

    @property
    def window(self) -> int:
        return int(self.strategy["window"])

    @property
    def strategies(self) -> list[str]:
        return self.strategy.get("strategies", ",".join(ALL_STRATEGIES)).split(",")

    @property
    def seeds(self) -> list[int]:
        return [int(s) for s in self.strategy.get("seeds", "132").split(",")]


# Decision days are the price rows after the first window: n_days - window - 1.
WORKLOADS = {
    "sim-forecast": Workload(
        panel.PanelSpec(n_tickers=16, n_days=127),
        "simulate",
        {"window": "120", "seeds": "132,133", "top_k": "2"},
    ),
    "sim-influence": Workload(
        panel.PanelSpec(n_tickers=60, n_days=136),
        "simulate",
        {"window": "120", "seeds": "132", "strategies": FIVE},
    ),
    "network-dump": Workload(
        panel.PanelSpec(n_tickers=220, n_days=192, fmt="wide"),
        "network",
        {"window": "120", "rebalance_every": "70"},
    ),
    "sim-longhold": Workload(
        panel.PanelSpec(n_tickers=50, n_days=1512, gap_frac=0.004, over_cut=1),
        "simulate",
        {"window": "120", "seeds": "132", "strategies": FIVE, "rebalance_every": "250"},
    ),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "decisions_per_s": "1/s", "peak_rss_mb": "MiB"}

# Host speed.  A shared host's speed drifts by 25-50%, within seconds and
# in phases of one to two minutes, and a process's CPU time drifts with its
# wall time (there is no steal), so no run length averages it out.  While
# an engine process runs, this process times a fixed ~2 ms probe, half
# interpreter loop and half small least-squares solves (the engine's two
# kinds of work), every PROBE_GAP_MS.  The process's times are scaled by
# PROBE_REF_S over the probe's lower quartile (the quartile, not the
# median, because a probe that is preempted reads slow while the engine
# does not), i.e. reported in seconds at the speed where that quartile is
# PROBE_REF_S, about its value on a 2-vCPU Intel Xeon VM.  The run is pinned
# to one CPU, so the probe samples the CPU the engine runs on (a probe on an
# idle second vCPU read up to 25% slower while the engine slowed by about
# 10%); it takes about 5% of that CPU.
PROBE_REF_S = 0.002
PROBE_GAP_MS = 50
_PROBE_RNG = np.random.default_rng(0)
_PROBE_A = _PROBE_RNG.normal(size=(120, 40))
_PROBE_B = _PROBE_RNG.normal(size=(120, 3))


def speed_probe() -> float:
    """Seconds the fixed probe takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(8000):
        acc += i * i % 7
    for _ in range(3):
        np.linalg.lstsq(_PROBE_A, _PROBE_B, rcond=None)
    return time.perf_counter() - t0


@dataclass
class Sample:
    """One process: its timings, memory, sidecar and what went wrong."""

    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    sidecar: dict | None
    scale: float  # PROBE_REF_S over the lower quartile of the speed probes during the process
    problem: str | None = None
    panel: int = 0  # index of the measured panel


class Bench:
    """Panels, processes and checks of one benchmark run."""

    def __init__(self, name: str, work: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.work = work
        self.env = dict(os.environ)  # BLAS thread variables are set at import

    def prepare(self, seed: int, label: str) -> Path:
        run_dir = self.work / f"{label}-{seed}"
        run_dir.mkdir(parents=True)
        panel.write_panel(self.workload.spec, seed, run_dir / "prices.csv")
        panel.write_config(run_dir / "run.ini", self.workload.spec.fmt, self.workload.strategy)
        return run_dir

    def run(self, run_dir: Path, trace: bool) -> Sample:
        out = run_dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        sidecar = run_dir / "probe.json"
        sidecar.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "probe.py"), str(SRC), str(sidecar), str(int(trace)), "--",
                self.workload.command, "--config", "run.ini"]
        with open(run_dir / "stdout.txt", "wb") as so, open(run_dir / "stderr.txt", "wb") as se:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, cwd=run_dir, env=self.env, stdout=so, stderr=se)
            probes = []
            try:
                with os.fdopen(os.pidfd_open(proc.pid)) as exited:
                    poller = select.poll()
                    poller.register(exited, select.POLLIN)
                    probes.append(speed_probe())
                    while not poller.poll(PROBE_GAP_MS):
                        probes.append(speed_probe())
                t1 = time.monotonic()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        blob = json.loads(sidecar.read_text(encoding="utf-8")) if sidecar.exists() else None
        setup_end = blob.get("setup_end") if blob else None
        sample = Sample(t1 - t0, None if setup_end is None else setup_end - t0,
                        usage.ru_maxrss / 1024.0, blob, PROBE_REF_S / float(np.percentile(probes, 25)))
        if proc.returncode != 0 or blob is None or setup_end is None:
            tail = (run_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-400:]
            sample.problem = f"exit code {proc.returncode}: {tail.strip()}"
        return sample

    def record(self, run_dir: Path) -> dict:
        """Check the outputs of the last run in ``run_dir``; returns its record."""
        wl = self.workload
        try:
            if wl.command == "network":
                return check.network_record(run_dir / "out", run_dir / "prices.csv", wl.spec.fmt,
                                            wl.window, int(wl.strategy["rebalance_every"]))
            dates, tickers, closes = check.read_panel(run_dir / "prices.csv", wl.spec.fmt)
            index = closes[:, tickers.index(panel.BENCHMARK_TICKER)]
            return check.simulate_record(run_dir / "out", wl.strategies, wl.seeds, dates, index, wl.window)
        except (KeyError, IndexError, ValueError, StopIteration, csv.Error, OSError) as exc:
            raise check.CheckError(f"malformed output: {exc!r}") from exc

    def decisions(self, record: dict) -> int:
        if self.workload.command == "network":
            return len(record["windows"])
        return sum(len(v) for v in record["values"].values())

    def reference_path(self, seed: int) -> Path:
        return REFERENCE_DIR / f"{self.name}-{seed}.json.gz"


def machine_record() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 prints its config only
        blas = {}
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = got.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted((SRC / "mstport").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": BLAS_THREADS},
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def check_reference(bench: Bench, seed: int) -> str | None:
    """Run the workload on a reference panel; returns the first problem found."""
    run_dir = bench.prepare(seed, "reference")
    sample = bench.run(run_dir, trace=False)
    if sample.problem:
        return f"reference seed {seed}: {sample.problem}"
    try:
        record = bench.record(run_dir)
    except check.CheckError as exc:
        return f"reference seed {seed}: {exc}"
    ref = json.loads(gzip.decompress(bench.reference_path(seed).read_bytes()))
    diffs = check.compare(record, ref["record"])
    got = check.digests(run_dir / "out")
    same = sum(got.get(name) == digest for name, digest in ref["files"].items())
    print(f"reference seed {seed}: {'ok' if not diffs else 'MISMATCH'}; "
          f"byte-identical files {same} of {len(ref['files'])} (information only)")
    if diffs:
        return f"reference seed {seed}: {len(diffs)} differences, first {'; '.join(diffs[:3])}"
    return None


def write_reference(bench: Bench) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for seed in REFERENCE_SEEDS:
        run_dir = bench.prepare(seed, "reference")
        sample = bench.run(run_dir, trace=False)
        if sample.problem:
            raise SystemExit(f"reference seed {seed}: {sample.problem}")
        blob = {"workload": bench.name, "panel_seed": seed, "record": bench.record(run_dir),
                "files": check.digests(run_dir / "out")}
        bench.reference_path(seed).write_bytes(gzip.compress(check.dumps(blob), mtime=0))
        print(f"wrote {bench.reference_path(seed).relative_to(ROOT)}")


def measure(bench: Bench, run_dirs: list[Path], seconds: float,
            trace: bool) -> tuple[list[Sample], list[Sample], list[dict | None]]:
    """Back-to-back runs, round robin over the panels; returns (untraced, traced, records).

    Every run's outputs must be byte-identical to those of the first run on
    the same panel, whose record passed the checks; a run that fails
    carries its ``problem``.
    """
    plain: list[Sample] = []
    traced: list[Sample] = []
    need = 2 if trace else len(run_dirs)
    records: list[dict | None] = [None] * len(run_dirs)
    first_files: list[dict | None] = [None] * len(run_dirs)
    start = time.monotonic()
    while len(plain) < need or len(traced) < (need if trace else 0) or time.monotonic() - start < seconds:
        want_trace = trace and len(traced) < len(plain)
        k = (len(plain) + len(traced)) % len(run_dirs)
        sample = bench.run(run_dirs[k], trace=want_trace)
        sample.panel = k
        (traced if want_trace else plain).append(sample)
        if sample.problem is not None:
            continue
        files = check.digests(run_dirs[k] / "out")
        try:
            if records[k] is None:
                records[k], first_files[k] = bench.record(run_dirs[k]), files
            elif files != first_files[k]:
                raise check.CheckError("outputs differ from the first run on the same inputs")
        except check.CheckError as exc:
            sample.problem = str(exc)
    return plain, traced, records


def report(name: str, unit: str, values: list[float], panels: list[int] | None = None) -> float:
    """Prints and returns the median of ``values``, or, given each value's
    panel, the mean over the panels of each panel's median."""
    if panels is None:
        value, how = statistics.median(values), "median"
    else:
        by_panel: dict[int, list[float]] = {}
        for k, v in zip(panels, values):
            by_panel.setdefault(k, []).append(v)
        value = statistics.fmean(statistics.median(v) for v in by_panel.values())
        how = f"mean of {len(by_panel)} panel medians"
    print(f"{name:<36} {value:<12.6g} {unit:<6} {how}, n={len(values)};  "
          f"min {min(values):.6g}  max {max(values):.6g}")
    return float(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    # A terminated run still stops its child and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "mstport" / "cli.py").is_file():
        print(f"error: no engine source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(args.workload, work)
    try:
        if args.write_reference:
            write_reference(bench)
            return 0
        print("machine " + json.dumps(machine_record(), sort_keys=True))
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # the engine processes inherit it
        spec = bench.workload.spec
        panel_seeds = [PANELS * args.seed + k for k in range(PANELS)]
        print(f"workload {args.workload}: {bench.workload.command}, panel seeds {panel_seeds}, "
              f"{spec.n_tickers} tickers x {spec.n_days} days ({spec.fmt}), blas threads {BLAS_THREADS}")
        problems = [check_reference(bench, seed) for seed in REFERENCE_SEEDS]
        run_dirs = [bench.prepare(seed, "measure") for seed in panel_seeds]
        plain, traced, records = measure(bench, run_dirs, args.seconds, bool(args.trace))
        problems = [p for p in problems + [s.problem for s in plain + traced] if p is not None]
        attempted = len(REFERENCE_SEEDS) + len(plain) + len(traced)
        failed = len(problems)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        good = [s for s in plain if s.problem is None] or plain
        walls = [s.wall_s * s.scale for s in good]
        scales = [s.scale for s in plain + traced]
        print(f"host speed: PROBE_REF_S / speed probe's lower quartile, median {statistics.median(scales):.4g} "
              f"(min {min(scales):.4g}, max {max(scales):.4g}) over {len(scales)} processes; "
              f"unscaled median wall_s {statistics.median(s.wall_s for s in good):.6g} s")
        metrics: dict[str, dict] = {}
        if args.trace:
            good_traced = [s for s in traced if s.problem is None]
            per_run = [layers.metrics(s.sidecar["spans"], s.wall_s, run_dirs[s.panel] / "out") for s in good_traced]
            values = {key: [m[key] for m in per_run] for key in layers.PER_LAYER} if per_run else {}
            for key, unit in layers.PER_LAYER.items():
                series = values.get(key) or [0.0]
                metrics[key] = {"value": report(key, unit, series), "unit": unit}
            traced_walls = [s.wall_s * s.scale for s in good_traced] or [0.0]
            overhead = statistics.median(traced_walls) - statistics.median(walls)
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            print(f"{'trace.overhead_s':<36} {overhead:.6g} s (median traced minus median untraced "
                  f"wall_s, both scaled)")
            if per_run:
                print("dominant layer: " + layers.dominant({k: v["value"] for k, v in metrics.items()}))
        else:
            setups = [(s.setup_s if s.setup_s is not None else s.wall_s) * s.scale for s in good]
            decisions = [bench.decisions(records[s.panel]) if records[s.panel] else 0 for s in good]
            series = {
                "wall_s": walls,
                "setup_s": setups,
                "decisions_per_s": [d / max(w - u, 1e-9) for d, w, u in zip(decisions, walls, setups)],
                "peak_rss_mb": [s.peak_rss_mb for s in good],
            }
            for key, unit in END_TO_END.items():
                metrics[key] = {"value": report(key, unit, series[key], [s.panel for s in good]), "unit": unit}
        print(f"{'failed_frac':<36} {failed / attempted:.6g} ratio ({failed} of {attempted} runs)")
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's directory is still there


if __name__ == "__main__":
    raise SystemExit(main())
