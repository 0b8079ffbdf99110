"""The benchmark's oracle accepts what the package outputs today.

Every job of the four bench workloads, at one fixed seed, runs in process
through ``distsec.cli.main`` and is judged by the bench's own checker, as
``python3 bench/run.py`` judges it.  The bench modules are only imported: the
child interpreter writes no bytecode, and every job runs in a temporary
directory, so nothing is written under ``bench/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import distsec

SRC = Path(distsec.__file__).resolve().parents[1]
BENCH = SRC.parent / "bench"
SEED = 7

# Runs in a child interpreter: in_process times jobs out by SIGALRM, which
# needs the main thread, and chdirs into each job's directory.
CHILD = """
import json, sys, tempfile
from check import Checker
from run import _verdict, in_process, library_codes
from workloads import WORKLOADS, generate

found = {}
for workload in WORKLOADS:
    plan = generate(workload, int(sys.argv[1]), 1)
    with tempfile.TemporaryDirectory() as workdir:
        plan.write_files(workdir)
        results, _ = in_process(plan, workdir, None)
        checker = Checker(workdir, library_codes)
        found[workload] = {job.id: _verdict(checker, job, res, res.output)
                           for job, res in zip(plan.jobs, results)}
print(json.dumps(found))
"""


def test_the_bench_oracle_accepts_every_job_of_every_workload(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, str(SEED)], capture_output=True,
                          text=True, cwd=tmp_path, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert set(found) == {"sweep-exact", "sweep-float", "desk-search", "composed-system"}
    for workload, verdicts in found.items():
        assert verdicts, workload
        assert {job: why for job, why in verdicts.items() if why} == {}, workload
