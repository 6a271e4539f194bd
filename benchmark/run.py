"""frametrace benchmark: CLI job ladders checked by an independent oracle.

Run from the repository root:

    python3 benchmark/run.py --workload frame-ladder --seed 1 --seconds 40 --trace 0

Each run starts fresh worker processes (``worker.py``) that import
``frametrace.cli`` from ``src/`` and write the workload's seeded inputs.  One
worker runs the workload's job list again and again, one job at a time (a
closed loop with a single client), until the next pass would overrun
``--seconds``.  After each job this process checks the exit code, the JSON
report and, through ``oracle.py``, every vector or window the job wrote; the
check is outside the timed call.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``; ``--trace
1`` alternates untraced and traced passes and prints the per-layer metrics
from the span tracer (``tracer.py``).  The last line of stdout is the JSON
result; ``.bench_run/`` keeps the result with its environment block and, for
traced runs, the spans.  See ``README.md`` for the metrics and workloads.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from time import perf_counter

import tracer as tracer_mod
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_run")

#: Set-up-only workers started before and again after the measuring worker;
#: setup_s is the median over all of them and the measuring worker.
SETUP_PROBES = 4
#: Longest a worker may take for one request before the run is abandoned.
REQUEST_TIMEOUT_S = 150.0


class WorkerError(RuntimeError):
    pass


class Worker:
    """A worker process speaking one JSON line per request and reply."""

    def __init__(self, workload: str, seed: int, rundir: str):
        os.makedirs(rundir)
        self.rundir = rundir
        self._buf = b""
        self._err = open(os.path.join(rundir, "worker.err"), "wb")
        self._t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "benchmark", "worker.py"),
             "--root", ROOT, "--workload", workload, "--seed", str(seed)],
            cwd=rundir, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._err,
        )

    def ready(self) -> float:
        """Wait for the ready line; return seconds since the spawn."""
        self._reply()
        return perf_counter() - self._t0

    def _reply(self) -> dict:
        deadline = perf_counter() + REQUEST_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - perf_counter()))
            if not ready:
                raise WorkerError(f"worker gave no reply within {REQUEST_TIMEOUT_S:.0f} s")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                self._err.flush()
                with open(self._err.name, "r", encoding="utf-8", errors="replace") as fh:
                    raise WorkerError("worker exited early:\n" + fh.read()[-4000:])
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return json.loads(line)

    def request(self, **req) -> dict:
        try:
            self.proc.stdin.write((json.dumps(req) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise WorkerError("worker exited early") from exc
        return self._reply()

    def close(self) -> None:
        """Stop the process (it should already have quit) and wait for it."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=5)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._err.close()
        shutil.rmtree(self.rundir, ignore_errors=True)


def probe_setup(worker: Worker) -> float:
    """Set-up time of a worker that then quits without running a job."""
    try:
        seconds = worker.ready()
        worker.request(op="quit")
        return seconds
    finally:
        worker.close()


def judge(job: workloads.Job, reply: dict, rundir: str):
    """Return why the job failed, or None: exit code, report, tolerances, oracle."""
    if reply["crashed"]:
        return "uncaught exception: " + reply["stderr"][-300:]
    if reply["exit"] != job.expect:
        return f"exit {reply['exit']} != expected {job.expect}: {reply['stderr'][-300:]}"
    try:
        with open(os.path.join(rundir, job.report), "r", encoding="utf-8") as fh:
            report = json.load(fh)
        if job.expect == 0:
            over = [c["name"] for c in report["checks"] if not c["residual"] <= c["tol"]]
            if over or not report["overall_pass"]:
                return f"checks over tolerance: {over}"
        return job.verify(rundir, report) if job.verify else None
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def run_pass(worker: Worker, plan, next_job: int, failures: list) -> list:
    """Run every job once, in order; return [(job id, job, seconds)]."""
    out = []
    for k, job in enumerate(plan.jobs):
        for name in (job.report, *job.writes):
            path = os.path.join(worker.rundir, name)
            if os.path.exists(path):
                os.remove(path)
        jid = next_job + k
        reply = worker.request(op="run", job=jid, argv=list(job.argv))
        error = judge(job, reply, worker.rundir)
        if error:
            failures.append(f"{job.name}: {error}")
        out.append((jid, job, reply["dt"]))
    return out


def layer_metrics(spans_path: str, traced_passes: list) -> list:
    """Per traced pass: self time per metric, counters and derived ratios."""
    with open(spans_path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    pass_of = {jid: i for i, jobs in enumerate(traced_passes) for jid, _, _ in jobs}
    per = [Counter() for _ in traced_passes]
    for rec, own in zip(data["spans"], tracer_mod.self_times(data["spans"])):
        acc = per[pass_of[rec[4]]]
        acc[data["metric_of"][rec[0]]] += own
        acc["trace.self_total_s"] += own
        acc["trace.raised"] += rec[5]
        acc["trace.spans"] += 1
    for jid, counts in data["counts"].items():
        per[pass_of[int(jid)]].update(counts)
    out = []
    for acc, jobs in zip(per, traced_passes):
        wall = sum(dt for _, _, dt in jobs)
        bridges = sum(1 for _, job, _ in jobs if job.argv[:2] == ("gabor", "bridge"))
        acc["trace.wall_s"] = wall
        acc["trace.accounted_frac"] = acc["trace.self_total_s"] / wall
        acc["trace.absent"] = len(data["absent"])
        acc["trace.hook_errors"] = data["hook_errors"]
        if acc["commutant.reduce_in"]:
            acc["commutant.reduce_kept_ratio"] = acc["commutant.reduce_kept"] / acc["commutant.reduce_in"]
        if bridges:
            acc["gabor.wh_builds_per_bridge"] = acc["gabor.wh_builds"] / bridges
        out.append(acc)
    return out


def job_medians(passes: list) -> dict:
    """Median wall time of each job over ``passes``, by job name."""
    times = defaultdict(list)
    for jobs in passes:
        for _, job, dt in jobs:
            times[job.name].append(dt)
    return {name: statistics.median(ts) for name, ts in times.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "frametrace", "cli.py")):
        print(f"error: no frametrace sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    plan = workloads.build(args.workload, args.seed)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    os.makedirs(OUT_DIR, exist_ok=True)

    def spawn(k: int) -> Worker:
        return Worker(args.workload, args.seed, os.path.join(OUT_DIR, f"{tag}-{os.getpid()}-w{k}"))

    # Set-up samples: every worker pays interpreter start, the frametrace
    # import and input generation.  Probes before and after the measuring
    # worker spread the samples over the whole run.
    setups = []
    try:
        setups += [probe_setup(spawn(k)) for k in range(SETUP_PROBES)]
        worker = spawn(SETUP_PROBES)
        try:
            setups.append(worker.ready())
            failures, passes = [], []          # passes: [(traced, [(job id, job, seconds)])]
            modes = (False, True) if args.trace else (False,)
            deadline = perf_counter() + args.seconds
            next_job = 0
            while True:
                t0 = perf_counter()
                for traced in modes:
                    if args.trace:
                        worker.request(op="trace", on=traced)
                    passes.append((traced, run_pass(worker, plan, next_job, failures)))
                    next_job += len(plan.jobs)
                if perf_counter() + (perf_counter() - t0) > deadline:
                    break
            spans_path = os.path.join(OUT_DIR, f"spans-{tag}.json") if args.trace else None
            if args.trace:
                worker.request(op="trace", on=False)
            final = worker.request(op="quit", spans=spans_path)
        finally:
            worker.close()
        setups += [probe_setup(spawn(SETUP_PROBES + 1 + k)) for k in range(SETUP_PROBES)]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    untraced = [jobs for traced, jobs in passes if not traced]
    walls = [sum(dt for _, _, dt in jobs) for jobs in untraced]
    job_times = sorted(dt for jobs in untraced for _, _, dt in jobs)
    per_job = job_medians(untraced)
    attempted = sum(len(jobs) for _, jobs in passes)
    if args.trace:
        per_pass = layer_metrics(spans_path, [jobs for traced, jobs in passes if traced])
        values = {m["name"]: statistics.median(acc[m["name"]] for acc in per_pass) for m in spec["per_layer"]}
        values["trace.overhead_frac"] = values["trace.wall_s"] / statistics.median(walls) - 1.0
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(walls),
            "job_p50_s": statistics.median(per_job.values()),
            "peak_rss_mb": final["maxrss_kb"] / 1024.0,
            "setup_s": statistics.median(setups),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes of "
          f"{len(plan.jobs)} jobs, {len(job_times)} untraced job samples, "
          f"{len(setups)} set-ups")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    if len(job_times) > 10:
        # The highest percentile with ten samples beyond it.
        pct = 100.0 * (len(job_times) - 10) / len(job_times)
        print(f"  {'job_times':28s} p50 {statistics.median(job_times):.6g} s, "
              f"p{pct:.0f} {job_times[-11]:.6g} s, n={len(job_times)}")
    print(f"  {'fail_frac':28s} {len(failures) / attempted:.6g} ratio ({len(failures)}/{attempted})")
    print("env " + json.dumps(final["env"], sort_keys=True))
    for line in failures[:20]:
        print("FAIL " + line, file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "env": final["env"], "pass_walls_s": walls, "setups_s": setups,
                   "job_medians_s": per_job, "failures": failures}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # On SIGTERM, unwind through the finally blocks that stop the workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
