"""cantoract benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload run spawns fresh processes, one at a time, that import
``cantoract`` from this checkout's ``src/`` with ``$CANTORACT_THREADS``
removed, and repeats until ``--seconds`` have passed and enough samples
exist.  Every rendered report is checked against bench/golden.json; a
non-zero exit, an exception or a digest mismatch is a failed operation.
Times are scaled to a reference host speed that this process probes
before, while and after each child runs (speed.py), because a shared host
drifts by more than any useful bound; the unscaled median is printed
alongside.

With ``--trace 0`` the metrics are the ``end_to_end`` ones of
BENCHMARK.json, measured with no tracing.  With ``--trace 1`` traced
processes (see spans.py) alternate with untraced ones and the metrics are
the ``per_layer`` ones, including the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
GOLDEN = os.path.join(HERE, "golden.json")

PROCESS_TIMEOUT_S = 60
MIN_PROCESSES = 3  # in-process workloads: set-up is a median of at least this many
MIN_CLI_CALLS = 100  # cli-suite: p90 then has at least 10 samples beyond it
TAIL_PERCENTILE = 90


class Failure(Exception):
    """The benchmark cannot run here; it prints no result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CANTORACT_THREADS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Proc:
    """One finished process: wall time from spawn to exit, peak RSS, exit code, output.

    ``probes`` are the speed probes taken while it ran and ``probes_s`` the
    CPU time they took from it (see :func:`spawn`).  ``time_s`` is the wall
    time without that, scaled to the reference host speed (see speed.py).
    """

    def __init__(self, wall_s, rss_mb, code, stdout, stderr, probes, probes_s):
        self.wall_s, self.rss_mb, self.code = wall_s, rss_mb, code
        self.stdout, self.stderr = stdout, stderr
        self.probes, self.probes_s = probes, probes_s
        self.scale = 1.0

    @property
    def time_s(self) -> float:
        return (self.wall_s - self.probes_s) * self.scale


def spawn(make_argv, cwd: str, env: dict) -> Proc:
    """Run ``make_argv(spawn_time)`` to completion and reap it with its own rusage.

    While the child runs, this process probes the host speed every
    SAMPLE_EVERY_S on the CPU they share.  Each probe preempts the child,
    so the CPU time this process spends meanwhile is the time taken from it.
    """
    out_path = os.path.join(cwd, "proc.stdout")
    err_path = os.path.join(cwd, "proc.stderr")
    probes = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(make_argv(started), cwd=cwd, env=env, stdout=out, stderr=err)
        busy_from = time.thread_time()
        pidfd = os.pidfd_open(proc.pid)
        try:
            while not select.select([pidfd], [], [], speed.SAMPLE_EVERY_S)[0]:
                if time.perf_counter() - started > PROCESS_TIMEOUT_S:
                    proc.kill()
                probes.append(speed.probe())
            wall = time.perf_counter() - started
            busy = time.thread_time() - busy_from
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Proc(wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr, probes, busy)


def check_import_path(cwd: str, env: dict) -> str:
    """Where child processes import cantoract from; it must be this checkout's src/."""
    code = "import cantoract.cli, cantoract; print(cantoract.__file__)"
    proc = spawn(lambda _: [sys.executable, "-c", code], cwd, env)
    path = os.path.abspath(proc.stdout.strip()) if proc.code == 0 else ""
    if not path.startswith(SRC + os.sep):
        raise Failure(f"cantoract must import from {SRC}, got {path or proc.stderr.strip()!r}")
    return path


def fingerprint(cantoract_path: str) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = res.stdout.strip() or None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "cantoract": cantoract_path}


def tail(values: list[float]) -> float:
    """The TAIL_PERCENTILE nearest-rank percentile when at least 10 samples lie
    beyond it (MIN_CLI_CALLS or more), else the maximum."""
    ordered = sorted(values)
    if len(ordered) < MIN_CLI_CALLS:
        return ordered[-1]
    return ordered[math.ceil(TAIL_PERCENTILE / 100 * len(ordered)) - 1]


def median_metrics(rows: list[dict]) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]} if rows else {}


class Runner:
    """Runs one workload for a time budget and turns its processes into metrics."""

    def __init__(self, golden: dict, workdir: str, env: dict):
        self.golden = golden
        self.workdir = workdir
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.notes: list[str] = []
        self._calibration = None

    def _verify(self, label: str, proc: Proc, digest: str | None) -> bool:
        self.attempted += 1
        problem = None
        if proc.code != 0:
            problem = f"exit {proc.code}: {proc.stderr.strip()[-300:]}"
        elif digest != self.golden.get(label):
            problem = f"digest {digest} != golden {self.golden.get(label)}"
        if problem:
            self.failed += 1
            self.errors.append(f"{label}: {problem}")
        return problem is None

    def _dump_path(self) -> str:
        return os.path.join(self.workdir, "spans.json")

    def _read_dump(self) -> dict:
        with open(self._dump_path(), encoding="utf-8") as fh:
            return json.load(fh)

    def _spawn_scaled(self, make_argv) -> Proc:
        """Spawn between two speed calibrations; the one after is reused before the next."""
        before = self._calibration or speed.calibrate()
        proc = spawn(make_argv, self.workdir, self.env)
        self._calibration = speed.calibrate()
        proc.scale = speed.REFERENCE_S / statistics.mean([before, *proc.probes, self._calibration])
        return proc

    def _note_speed(self, procs: list[Proc]) -> None:
        self.notes.append(
            f"unscaled median wall {statistics.median(p.wall_s for p in procs):.6g} s, "
            f"median speed scale {statistics.median(p.scale for p in procs):.4g}")

    # -- in-process workloads -------------------------------------------------

    def workload_process(self, name: str, v: int, traced: bool):
        script = os.path.join(HERE, "child.py")
        proc = self._spawn_scaled(lambda t: [sys.executable, script, "run", name, str(v),
                                             "1" if traced else "0", repr(t), self._dump_path()])
        result = None
        if proc.code == 0:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = self._verify(f"{name}/{v}", proc, result and result["digest"])
        dump = self._read_dump() if ok and traced else None
        return proc, (result if ok else None), dump

    def in_process(self, name: str, seed: int, seconds: float, traced: bool) -> dict:
        v = workloads.variant(seed)
        plain, traced_rows = [], []
        deadline = time.perf_counter() + seconds
        while len(plain) < MIN_PROCESSES or time.perf_counter() < deadline:
            proc, result, _ = self.workload_process(name, v, False)
            if result:
                plain.append((proc, result))
            if traced:
                proc, result, dump = self.workload_process(name, v, True)
                if result:
                    traced_rows.append((proc, result, dump))
            if self.failed and (not plain or time.perf_counter() >= deadline):
                break
        if not plain:
            return {}
        self._note_speed([p for p, _ in plain])
        if traced:
            return self._in_process_layers(plain, traced_rows)
        times = [p.time_s for p, _ in plain]
        return {
            "wall_s": statistics.median(times),
            "setup_s": statistics.median(r["setup_s"] * p.scale for p, r in plain),
            "candidates_per_s": statistics.median(r["candidates"] / (r["analysis_s"] * p.scale)
                                                  for p, r in plain),
            "cli_p50_ms": 1000 * statistics.median(times),
            "cli_tail_ms": 1000 * tail(times),
            "peak_rss_mb": max(p.rss_mb for p, _ in plain),
        }

    def _in_process_layers(self, plain, traced_rows) -> dict:
        if not traced_rows:
            return {}
        wall = statistics.median(p.time_s for p, _ in plain)
        rows = []
        for proc, result, dump in traced_rows:
            m = spans.layer_metrics([dump])
            m["chain.fiber_share"] = m["chain.fiber_s"] / result["analysis_s"]
            m["mealy.transduce_share"] = m["mealy.transduce_s"] / result["setup_s"]
            m["cli.startup_share"] = (m["cli.interp_s"] + m["cli.import_s"]) * proc.scale / wall
            m["trace.overhead_ratio"] = proc.time_s / wall
            rows.append(m)
        return median_metrics(rows)

    # -- cli-suite ------------------------------------------------------------

    def _cli_call(self, command: str, v: int, traced: bool):
        argv, out = workloads.cli_argv(command, v)
        if traced:
            script = os.path.join(HERE, "child.py")
            make = lambda t: [sys.executable, script, "cli", repr(t), self._dump_path(), *argv]
        else:
            make = lambda t: [sys.executable, "-m", "cantoract", *argv]
        out_path = os.path.join(self.workdir, out)
        if os.path.exists(out_path):
            os.remove(out_path)
        proc = self._spawn_scaled(make)
        text = digest = None
        if proc.code == 0 and os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                data = fh.read()
            digest = hashlib.sha256(data).hexdigest()
            text = data.decode("utf-8")
        ok = self._verify(workloads.cli_label(command, v), proc, digest)
        candidates = workloads.cli_candidates(command, text) if ok else 0
        dump = self._read_dump() if ok and traced else None
        return proc, ok, candidates, dump

    def cli_batch(self, batch: list[str], v: int, traced: bool):
        """[(command, proc, ok, candidates scored, span dump or None)] of one batch."""
        return [(command, *self._cli_call(command, v, traced)) for command in batch]

    def cli_suite(self, seed: int, seconds: float, traced: bool) -> dict:
        v = workloads.variant(seed)
        plain, traced_batches = [], []
        batches = workloads.cli_batches(seed)
        deadline = time.perf_counter() + seconds
        while sum(len(b) for b in plain) < MIN_CLI_CALLS or time.perf_counter() < deadline:
            calls = self.cli_batch(next(batches), v, False)
            if all(ok for _, _, ok, _, _ in calls):
                plain.append(calls)
            if traced:
                calls = self.cli_batch(next(batches), v, True)
                if all(ok for _, _, ok, _, _ in calls):
                    traced_batches.append(calls)
            if self.failed and (not plain or time.perf_counter() >= deadline):
                break
        if not plain:
            return {}
        procs = [proc for batch in plain for _, proc, _, _, _ in batch]
        self._note_speed(procs)
        times = [p.time_s for p in procs]
        if traced:
            return self._cli_layers(plain, traced_batches, statistics.median(times))
        scored = [(proc.time_s, n) for batch in plain for command, proc, _, n, _ in batch
                  if command in workloads.CLI_CANDIDATES]
        return {
            "wall_s": statistics.median(sum(p.time_s for _, p, _, _, _ in b) for b in plain),
            "setup_s": statistics.median(p.time_s for b in plain for c, p, _, _, _ in b
                                         if c == "build"),
            "candidates_per_s": sum(n for _, n in scored) / sum(t for t, _ in scored),
            "cli_p50_ms": 1000 * statistics.median(times),
            "cli_tail_ms": 1000 * tail(times),
            "peak_rss_mb": max(p.rss_mb for p in procs),
        }

    def _cli_layers(self, plain, traced_batches, call_p50: float) -> dict:
        if not traced_batches:
            return {}
        plain_wall = statistics.median(sum(p.time_s for _, p, _, _, _ in b) for b in plain)
        rows = []
        for batch in traced_batches:
            dumps = [dump for _, _, _, _, dump in batch]
            m = spans.layer_metrics(dumps)
            batch_wall = sum(p.wall_s for _, p, _, _, _ in batch)
            build_wall = sum(p.wall_s for c, p, _, _, _ in batch if c == "build")
            startup = statistics.median((d["interp_s"] + d["import_s"]) * p.scale
                                        for (_, p, _, _, _), d in zip(batch, dumps))
            m["chain.fiber_share"] = m["chain.fiber_s"] / batch_wall
            m["mealy.transduce_share"] = m["mealy.transduce_s"] / build_wall
            m["cli.startup_share"] = startup / call_p50
            m["trace.overhead_ratio"] = sum(p.time_s for _, p, _, _, _ in batch) / plain_wall
            rows.append(m)
        return median_metrics(rows)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def measure(runner: Runner, name: str, seed: int, seconds: float, traced: bool) -> dict:
    if name == workloads.CLI_SUITE:
        return runner.cli_suite(seed, seconds, traced)
    return runner.in_process(name, seed, seconds, traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=workloads.ALL + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        bench = load_benchmark()
        golden = load_golden()
        specs = bench["per_layer" if args.trace else "end_to_end"]
        seconds = bench["run_seconds"] if args.seconds is None else args.seconds
        os.makedirs(WORK, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench: cannot start: {exc}", file=sys.stderr)
        return 2
    try:
        # One CPU for the parent's speed probes and every child: see speed.py.
        try:
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        except OSError:
            pass
        env = child_env()
        print("# fingerprint " + json.dumps(fingerprint(check_import_path(workdir, env))))
        names = workloads.ALL if args.workload == "all" else (args.workload,)
        runner = Runner(golden, workdir, env)
        metrics = {}
        for name in names:
            values = measure(runner, name, args.seed, seconds, bool(args.trace))
            print(f"== {name} (seed {args.seed}, variant {workloads.variant(args.seed)}, "
                  f"{'traced' if args.trace else 'untraced'})")
            for spec in specs:
                value = values.get(spec["name"])
                shown = "n/a" if value is None else f"{value:.6g}"
                print(f"{spec['name']:40s} {shown:>14s} {spec['unit']}")
                if value is not None:
                    key = spec["name"] if len(names) == 1 else f"{name}/{spec['name']}"
                    metrics[key] = {"value": value, "unit": spec["unit"]}
            for note in runner.notes:
                print(f"# {note}")
            runner.notes.clear()
        ratio = runner.failed / runner.attempted if runner.attempted else 1.0
        print(f"{'failed_ratio':40s} {ratio:>14.6g} ratio ({runner.failed}/{runner.attempted})")
        for error in runner.errors[:20]:
            print(f"# failed: {error}")
    except Failure as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed if runner.attempted else 1,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
