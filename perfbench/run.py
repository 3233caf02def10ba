"""qcalc CLI benchmark: a closed loop of fresh `python -m qcalc.cli` processes.

    python3 perfbench/run.py --workload solve-series --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client runs one op at a time, each in its own interpreter, because every
CLI user pays for a cold interpreter and cold q-combinatorics caches.  The
loop keeps starting ops until --seconds have passed.  Every output is
checked by oracle.py, and a corrupted copy of the first correct output must
be rejected (the self-test).  The last stdout line is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics from the traced pass
with --trace 1.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_BLOCKS = 3
SETUP_PER_BLOCK = 4
HARD_LIMIT_S = 165.0  # a run must end within 180 s; ops still running then are killed


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    out: Path
    err: Path


class Runner:
    """Starts children inside the checkout and reaps each before returning."""

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.deadline = started + HARD_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.count = 0

    def run(self, args: list[str]) -> Child:
        self.count += 1
        out = self.workdir / f"{self.count}.out"
        err = self.workdir / f"{self.count}.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                    stdout=fo, stderr=fe, env=self.env, cwd=ROOT)
            try:
                status, usage = self._reap(proc)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                     proc.returncode, out, err)

    def _reap(self, proc):
        # poll a pidfd so an op past the run's hard limit can be killed while
        # it is still unreaped, then take its own rusage from wait4
        fd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(fd, select.POLLIN)
            timeout_ms = max(0.0, self.deadline - time.perf_counter()) * 1000
            if not poller.poll(timeout_ms):
                proc.kill()
        finally:
            os.close(fd)
        _, status, usage = os.wait4(proc.pid, 0)
        return status, usage


def unit_of(metric: str) -> str:
    """The unit BENCHMARK.json gives a metric, derived from its name."""
    special = {"peak_rss_mb": "MB", "output_bytes": "B", "coeffs.coef_bits_max": "bits"}
    if metric in special:
        return special[metric]
    if metric.endswith("_us"):
        return "us"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def judge(child: Child, op: workloads.Op) -> tuple[str | None, str]:
    """(failure reason or None, stdout text) for one finished op."""
    text = child.out.read_text(encoding="utf-8", errors="replace")
    err = child.err.read_text(encoding="utf-8", errors="replace")
    if child.code != 0:
        return f"exit code {child.code}: {err.strip()[-300:]}", text
    if "Traceback" in err:
        return f"traceback on stderr: {err.strip()[-300:]}", text
    return op.check(text), text


def self_test(op: workloads.Op, text: str) -> str | None:
    if op.check(op.perturb(text)) is None:
        return f"self-test: the oracle accepted a perturbed output of {op.argv[0]}"
    return None


class HostClock:
    """Rescales each measurement by the host-speed reference timed just
    before and just after it (see hostspeed.py)."""

    def __init__(self):
        self.last = hostspeed.reference_seconds()

    def factor(self) -> float:
        ref = hostspeed.reference_seconds()
        f = hostspeed.NOMINAL_S / ((self.last + ref) / 2)
        self.last = ref
        return f


def measure_setup(runner: Runner, clock: HostClock) -> tuple[float, float]:
    """(rescaled, raw) median time to start a fresh interpreter and import
    qcalc.cli, over SETUP_BLOCKS blocks each rescaled by its own reference."""
    cmd = ["-c", "import qcalc.cli"]
    runner.run(cmd)  # compiles bytecode on a fresh checkout; not timed
    clock.factor()
    raw, scaled = [], []
    for _ in range(SETUP_BLOCKS):
        block = [runner.run(cmd).wall for _ in range(SETUP_PER_BLOCK)]
        f = clock.factor()
        raw += block
        scaled += [w * f for w in block]
    return statistics.median(scaled), statistics.median(raw)


def percentile_line(walls: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(walls)
    if n < 20:
        return f"no tail percentile (n={n} < 20)"
    p = int(100 * (n - 10) / n)
    return f"op_p{p}_s {statistics.quantiles(walls, n=100)[p - 1]:.4f} s (n={n})"


def prepare_sample_grid(runner: Runner, rng: random.Random, problems: list[str]):
    """Solve once, untimed, for the input every sample-grid op reads."""
    argv, data = workloads.solve_series_data(rng)
    op = workloads.wave_op(argv, data, rng)
    child = runner.run(["-m", "qcalc.cli", *argv])
    reason, text = judge(child, op)
    if reason:
        raise SystemExit(f"perfbench: sample-grid input could not be made: {reason}")
    problem = self_test(op, text)
    if problem:
        problems.append(problem)
    return workloads.SampleGrid(str(child.out), data)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    started = time.perf_counter()
    workdir = ROOT / ".perfbench_work" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(workdir, started)
    rng = random.Random(f"{name}:{seed}")
    problems: list[str] = []
    lines = [f"workload {name} seed={seed} seconds={seconds} trace={int(trace)} "
             f"python={platform.python_version()} nproc={os.cpu_count()}"]

    make_op = workloads.OP_MAKERS.get(name)
    if make_op is None:
        make_op = prepare_sample_grid(runner, rng, problems)

    clock = HostClock()
    metrics: dict[str, float] = {}
    if trace:
        child = runner.run([str(HERE / "probes.py")])
        if child.code != 0:
            raise SystemExit(f"perfbench: probes failed: {child.err.read_text()[-300:]}")
        f = clock.factor()
        metrics.update({k: v * f for k, v in json.loads(child.out.read_text()).items()})
    else:
        setup_s, setup_raw = measure_setup(runner, clock)
        metrics["setup_s"] = setup_s

    # Outputs are checked after the loop, so each op starts right after the
    # reference that closes the previous one.
    done: list[tuple[workloads.Op, Child, float, Path | None]] = []
    loop_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - loop_start
        traced = trace and len(done) % 2 == 1
        need_more = len(done) < (2 if trace else 1)
        if (elapsed >= seconds and not need_more) or time.perf_counter() >= runner.deadline:
            break
        op = make_op(rng)
        spans_path = workdir / f"spans-{len(done)}.json" if traced else None
        if traced:
            child = runner.run([str(HERE / "spans.py"), str(spans_path), str(len(done)), *op.argv])
        else:
            child = runner.run(["-m", "qcalc.cli", *op.argv])
        done.append((op, child, clock.factor(), spans_path))

    walls, raw_walls, cpus, rss, sizes, traced_walls, docs, scales = [], [], [], [], [], [], [], []
    attempted, failed = len(done), 0
    selftested = False
    for i, (op, child, f, spans_path) in enumerate(done, 1):
        reason, text = judge(child, op)
        if reason:
            failed += 1
            lines.append(f"op {i} failed ({' '.join(op.argv)[:120]}): {reason}")
        elif not selftested:
            selftested = True
            problem = self_test(op, text)
            lines.append(problem or "self-test: perturbed output rejected, counted as a failed op")
            if problem:
                problems.append(problem)
        if spans_path is not None:
            traced_walls.append(child.wall * f)
            if spans_path.exists():
                docs.append(json.loads(spans_path.read_text()))
                scales.append(f)
                spans_path.unlink()
        else:
            walls.append(child.wall * f)
            raw_walls.append(child.wall)
            cpus.append(child.cpu * f)
            rss.append(child.rss_mb)
            sizes.append(child.out.stat().st_size)
        child.out.unlink()
        child.err.unlink()

    if trace:
        if not docs:
            raise SystemExit("perfbench: no traced op left spans")
        metrics.update(spans.layer_metrics(docs, scales))
        metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls)
        lines.append(f"traced ops {len(traced_walls)}, untraced ops {len(walls)}; "
                     "times rescaled to the reference host speed")
        lines += [f"  {k} = {v:.6g}" for k, v in metrics.items()]
    else:
        n = len(walls)
        metrics.update({
            "op_p50_s": statistics.median(walls),
            "op_cpu_p50_s": statistics.median(cpus),
            "peak_rss_mb": max(rss),
            "output_bytes": statistics.median(sizes),
            "ok_ratio": (attempted - failed) / attempted,
        })
        lines += [
            f"  op_p50_s     {metrics['op_p50_s']:.4f} s (n={n}; raw wall "
            f"{statistics.median(raw_walls):.4f} s); {percentile_line(walls)}",
            f"  op_cpu_p50_s {metrics['op_cpu_p50_s']:.4f} s (n={n})",
            f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB (max of n={n})",
            f"  output_bytes {metrics['output_bytes']:.0f} B (median of n={n})",
            f"  fail_ratio   {failed / attempted:.4f} ({failed}/{attempted}); "
            f"reported as ok_ratio {metrics['ok_ratio']:.4f}",
            f"  setup_s      {setup_s:.4f} s (median of {SETUP_BLOCKS * SETUP_PER_BLOCK} imports; raw {setup_raw:.4f} s)",
        ]
    lines += problems
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qcalc" / "cli.py").is_file():
        print(f"perfbench: no qcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    hostspeed.pin_to_one_cpu()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        if len(names) == 1:
            combined = result
            break
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
