"""distsec benchmark: four CLI workloads, checked by an exact oracle.

Run from the root of a distsec checkout:

    python3 bench/run.py --workload sweep-exact --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

One client drives the CLI in a closed loop: one ``python -m distsec.cli``
subprocess at a time, each passing ``--jobs`` equal to the CPU count.  The
workload's job list (generated from ``--seed``) is run in passes for about
``--seconds``; cold starts of ``distsec --help`` and extra runs of the
largest job are spread between the jobs.  Afterwards every output is checked
against the exact oracle in ``oracle.py``.

End-to-end metrics (tracing off):
  wall_s       median time of one pass over the whole job list
  top_rung_s   mean latency of the workload's largest completing job
  setup_s      median cold start of ``python -m distsec.cli --help``
  peak_rss_mb  largest resident set of any job or sweep worker

``top_rung_s`` averages the largest job's runs, which are spread over the
whole measured time, rather than taking their median.  The shared hosts this
runs on switch between a fast and a slow speed (up to 1.7x apart) for
stretches of seconds to a minute, and a run holds only four to ten top-rung
runs: their median jumps between the two speeds, their mean moves with the
share of slow time.  A pass sums some twenty jobs, so ``wall_s`` stays the
median over passes.

With ``--trace 1`` the same jobs also run in process, once without and once
with spans around the CLI's calls into each library layer (``spans.py``),
and the per-layer metrics are printed instead.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.

``attempted`` counts the jobs in the workload's list and ``failed`` those of
them that failed in any of their runs, so both depend on the seed alone, not
on how many passes fit in the time.  Failures listed in ``baseline.json`` are
known defects of the package.  They count in ``failed`` like any other;
``correct`` turns false only when a job outside that list fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction

from check import Checker, Wrong
from spans import LAYERS, Recorder, instrumented, layer_metrics
from workloads import WORKLOADS, generate

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PROBE_TARGET = 16  # cold starts per run, spread over the measured time
MIN_PASSES = 2
# Share of the measured time spent on extra runs of the top-rung job, which
# is one long sample per pass otherwise.
TOP_SHARE = 0.3


@dataclass
class Result:
    """One job's run.  ``code`` is None when the job hit its time limit."""

    code: int | None
    seconds: float
    output: str
    stderr: str = ""
    cpu_s: float = 0.0


class JobTimeout(BaseException):
    """Raised by the alarm that ends an in-process job at its limit.

    A BaseException, so the CLI's catch-all for unexpected errors does not
    turn it into an ordinary exit code.
    """


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _output(job, workdir: str, stdout: str) -> str:
    """What a job produced: its ``-o`` file if it names one, else stdout."""
    if "-o" in job.argv:
        path = os.path.join(workdir, job.argv[job.argv.index("-o") + 1])
        with contextlib.suppress(OSError), open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    return stdout


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class SubprocessRunner:
    """Runs CLI commands as child processes of this one."""

    def __init__(self, root: str, workdir: str):
        self.workdir = workdir
        self.env = dict(os.environ)
        src = os.path.join(os.path.abspath(root), "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.prefix = [sys.executable, "-m", "distsec.cli"]

    def run(self, argv, limit_s: float) -> Result:
        cpu0 = _children_cpu()
        start = time.perf_counter()
        proc = subprocess.Popen(
            self.prefix + list(argv), cwd=self.workdir, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=limit_s)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.returncode is None:
                # Kill the whole session: a sweep's pool workers too.
                os.killpg(proc.pid, signal.SIGKILL)
                out, err = proc.communicate()
        seconds = time.perf_counter() - start
        return Result(code, seconds, out.decode(), err.decode(errors="replace"), _children_cpu() - cpu0)

    def job(self, job) -> Result:
        res = self.run(job.argv, job.limit_s)
        res.output = _output(job, self.workdir, res.output)
        return res


def measure(plan, runner: SubprocessRunner, seconds: float, top: int):
    """Passes over the job list for about ``seconds``.

    Cold starts are spread between the jobs, and so are extra runs of the
    top-rung job, while they fit in ``TOP_SHARE`` of the time.  A job that
    hit its time limit runs in the first pass only.  A new pass
    starts only while at least half a pass fits in the time left, so a run
    ends within half a pass of ``seconds``.  Returns (passes, extra top-rung
    results, probe times).
    """
    start = time.perf_counter()
    probe_every = seconds / PROBE_TARGET
    next_probe = start
    passes, extra, probes = [], [], []
    top_latency = None  # latest, as the cost of one more top-rung run
    while True:
        results = []
        for i, job in enumerate(plan.jobs):
            if passes and passes[0][i].code is None:
                # Cut at its limit once, it would be cut again: the first
                # run stands for the later passes.
                results.append(passes[0][i])
                continue
            if time.perf_counter() >= next_probe:
                probes.append(runner.run(["--help"], 60).seconds)
                next_probe += probe_every
                if top_latency and sum(r.seconds for r in extra) + top_latency <= TOP_SHARE * seconds:
                    extra.append(runner.job(plan.jobs[top]))
                    top_latency = extra[-1].seconds
            results.append(runner.job(job))
            if job is plan.jobs[top]:
                top_latency = results[-1].seconds
        passes.append(results)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (1 + 0.5 / len(passes)) >= seconds:
            break
    while len(probes) < PROBE_TARGET // 2:
        probes.append(runner.run(["--help"], 60).seconds)
    return passes, extra, probes


def library_codes(job):
    """Assignment tables behind a sweep's rows, rebuilt with the library's
    constructors (deterministic in their seeds), parsed as the CLI parses."""
    # distsec is imported late: main() first puts the checkout's src on the path.
    import distsec

    def parse(tok: str):
        try:
            return int(tok)
        except ValueError:
            return Fraction(tok) if job.spec["exact"] else float(tok)

    spec = job.spec
    pmf = None if spec["pmf"] is None else [parse(p) for p in spec["pmf"]]
    alphabet = distsec.make_alphabet([parse(v) for v in spec["values"]], pmf)
    codes = []
    for k in spec["ks"]:
        for alg in spec["algs"]:
            if alg == "greedy":
                code = distsec.greedy_code(alphabet, k)
            else:
                binning = distsec.exchange_binning(alphabet, k, None, seed=spec["seed"])
                code = distsec.complete_key_assignment(binning, k)
            codes.append(code.assignment)
    return codes


def verdicts(plan, passes, workdir: str, sweep_codes) -> list[list[str | None]]:
    """Per pass and job: None when correct, else why it failed.

    Passes with byte-identical outputs share one check.  A job whose output
    differs from its first pass's breaks the CLI's determinism contract.
    """
    first = [res.output for res in passes[0]]
    seen: dict[tuple, list] = {}
    out = []
    for results in passes:
        key = tuple((r.code, digest(r.output)) for r in results)
        if key not in seen:
            checker = Checker(workdir, sweep_codes)
            found = []
            for job, res, ref in zip(plan.jobs, results, first):
                found.append(_verdict(checker, job, res, ref))
            seen[key] = found
        out.append(seen[key])
    return out


def _verdict(checker: Checker | None, job, res: Result, first_output: str) -> str | None:
    """Why one run of a job failed, or None.  Without a checker only the exit
    and the bytes against the first pass are judged."""
    if res.code is None:
        return f"timed out after {job.limit_s:g} s"
    if res.code != 0:
        tail = res.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {res.code}: {tail[0][:200]}"
    if res.output != first_output:
        return "output differs from the same job's first pass"
    if checker is None:
        return None
    try:
        checker.check(job, res.output)
    except Wrong as e:
        return str(e)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        return f"unreadable output: {type(e).__name__}: {e}"
    return None


def in_process(plan, workdir: str, recorder: Recorder | None):
    """Run the jobs through ``distsec.cli.main`` in this process, serially.

    Returns (per-job Results, total seconds).  With a recorder, every job is
    a root span and the CLI's library calls are traced.
    """
    from distsec import analysis, cli

    def on_alarm(signum, frame):
        raise JobTimeout()

    old_handler = signal.signal(signal.SIGALRM, on_alarm)
    old_cwd = os.getcwd()
    os.chdir(workdir)
    results = []
    try:
        ctx = instrumented(cli, analysis, recorder) if recorder else contextlib.nullcontext()
        with ctx:
            total_start = time.perf_counter()
            for job in plan.jobs:
                argv = list(job.argv)
                argv[argv.index("--jobs") + 1] = "1"  # the traced run is single-threaded
                if recorder:
                    recorder.job = job.id
                span = recorder.span(f"job:{job.id}") if recorder else contextlib.nullcontext()
                stdout, stderr = io.StringIO(), io.StringIO()
                start = time.perf_counter()
                code = None
                try:
                    signal.setitimer(signal.ITIMER_REAL, job.limit_s)
                    with span, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        try:
                            code = cli.main(argv)
                        except SystemExit as e:
                            code = e.code if isinstance(e.code, int) else 1
                except JobTimeout:
                    code = None
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                seconds = time.perf_counter() - start
                results.append(Result(code, seconds, _output(job, workdir, stdout.getvalue()),
                                      stderr.getvalue()))
            total = time.perf_counter() - total_start
    finally:
        os.chdir(old_cwd)
        signal.signal(signal.SIGALRM, old_handler)
    return results, total


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs_flag = len(os.sched_getaffinity(0))
    plan = generate(workload, seed, jobs_flag)
    top = next(i for i, job in enumerate(plan.jobs) if job.top)
    with open(os.path.join(BENCH_DIR, "baseline.json"), encoding="utf-8") as fh:
        known = set(json.load(fh)["known_failures"].get(workload, []))

    work_root = os.path.join(BENCH_DIR, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
    try:
        plan.write_files(workdir)
        runner = SubprocessRunner(root, workdir)
        runner.run(["--help"], 60)  # writes bytecode caches once
        passes, extra, probes = measure(plan, runner, seconds, top)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

        traced = recorder = None
        if trace:
            untraced, plain_s = in_process(plan, workdir, None)
            recorder = Recorder()
            traced, traced_s = in_process(plan, workdir, recorder)

        check_start = time.perf_counter()
        codes = {}

        def sweep_codes(job):
            if recorder is not None and job.id in recorder.reports:
                return recorder.reports[job.id]
            if job.id not in codes:
                codes[job.id] = library_codes(job)
            return codes[job.id]

        per_pass = verdicts(plan, passes, workdir, sweep_codes)
        # An extra top-rung run repeats the first pass's job byte for byte.
        extra_failures = [_verdict(None, plan.jobs[top], res, passes[0][top].output) or per_pass[0][top]
                          for res in extra]
        mismatches = []
        if trace:
            for job, sub, ours, plain in zip(plan.jobs, passes[0], traced, untraced):
                if (sub.code, sub.output) != (ours.code, ours.output) or (ours.code, ours.output) != (
                        plain.code, plain.output):
                    mismatches.append(job.id)
        check_s = time.perf_counter() - check_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [sum(r.seconds for r in results) for results in passes]
    failed_ids = sorted({job.id for v in per_pass for job, why in zip(plan.jobs, v) if why}
                        | ({plan.jobs[top].id} if any(extra_failures) else set()))
    report = {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "jobs": [
            {"id": job.id, "latency_s": [p[i].seconds for p in passes],
             "digest": [digest(p[i].output) for p in passes],
             "failure": per_pass[0][i]}
            for i, job in enumerate(plan.jobs)
        ],
        "top_rung_extra_s": [r.seconds for r in extra],
        "top_rung_extra_failures": extra_failures,
        "probes_s": probes,
        "failed_ids": failed_ids,
        "unexpected_failures": sorted(set(failed_ids) - known),
        "trace_mismatches": mismatches,
    }
    metrics = {
        "wall_s": statistics.median(walls),
        "top_rung_s": statistics.mean([p[top].seconds for p in passes] + [r.seconds for r in extra]),
        "setup_s": statistics.median(probes),
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        layers = layer_metrics(recorder)
        sweeps = [i for i, job in enumerate(plan.jobs) if job.kind == "sweep"]
        cpu = [sum(p[i].cpu_s for i in sweeps) for p in passes]
        busy = [sum(p[i].seconds for i in sweeps) for p in passes]
        layers.update({
            "cli.jobs": len(plan.jobs),
            "cli.startup_share": metrics["setup_s"] * len(plan.jobs) / metrics["wall_s"],
            "cli.cpu_s": statistics.median(cpu),
            "cli.parallel_eff": statistics.median([c / (jobs_flag * b) if b else 0.0 for c, b in zip(cpu, busy)]),
            "trace.overhead_s": traced_s - plain_s,
            "check.busy_s": check_s,
        })
        report["spans"] = recorder.spans
        report["inprocess_s"] = {"untraced": plain_s, "traced": traced_s}
        metrics = layers
    report["metrics"] = metrics
    report["attempted"] = len(plan.jobs)
    report["failed"] = len(failed_ids)
    report["correct"] = not report["unexpected_failures"] and not mismatches
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report


def declared_units(root: str, trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def print_report(report: dict, trace: bool, units: dict[str, str]) -> None:
    wl = report["workload"]
    print(f"# {wl} seed={report['seed']} passes={report['passes']} jobs/pass={len(report['jobs'])}")
    for name, value in report["metrics"].items():
        print(f"{wl} {name} = {value:.6g} {units[name]}")
    print(f"{wl} fail_ratio = {report['failed'] / report['attempted']:.4g} "
          f"({report['failed']} of {report['attempted']} jobs)")
    for job in report["jobs"]:
        if job["failure"]:
            tag = "known defect" if job["id"] not in report["unexpected_failures"] else "UNEXPECTED"
            print(f"{wl} failed [{tag}] {job['id']}: {job['failure']}")
    for job_id in report["trace_mismatches"]:
        print(f"{wl} in-process output differs from the subprocess output: {job_id}")
    if trace:
        m = report["metrics"]
        lib = sum(m[f"{layer}.busy_s"] for layer in LAYERS if layer != "cli")
        shares = ", ".join(
            f"{layer} {100 * m[f'{layer}.busy_s'] / lib:.1f}%" for layer in LAYERS if layer != "cli" and lib
        )
        print(f"{wl} library time {lib:.3f} s by layer: {shares}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on termination too, so the running job's process group is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "distsec", "cli.py")):
        print(f"error: no distsec sources under {root}/src; run from the checkout root",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        print(f"error: no BENCHMARK.json in {root}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    if args.workload == "all":
        return run_all(args)
    units = declared_units(root, bool(args.trace))
    report = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    if set(report["metrics"]) != set(units):
        raise RuntimeError(f"metrics {sorted(report['metrics'])} differ from BENCHMARK.json's {sorted(units)}")
    print_report(report, bool(args.trace), units)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in report["metrics"].items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process so that resource usage of
    child processes (peak_rss_mb) is counted per workload."""
    results = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            return proc.returncode
        results.append((workload, json.loads(lines[-1])))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{w}.{name}": m for w, r in results for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
