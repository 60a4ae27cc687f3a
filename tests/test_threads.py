"""The CLI's threads: one BLAS thread unless the environment chooses, and bytes on any CPU count.

Every check runs a fresh interpreter, since this process has numpy, and so
its BLAS threads, loaded already. The BLAS thread variables of the calling
environment are dropped, so that the CLI's own choice is what runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bridgescore
import bridgescore.fileio as fileio

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def env(**extra):
    """A fresh interpreter's environment: this checkout's package, no BLAS thread choice."""
    src = str(Path(bridgescore.__file__).resolve().parents[1])
    out = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    out["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**out, **extra}


def python(*args, extra=None, **kwargs):
    done = subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          env=env(**(extra or {})), timeout=300, **kwargs)
    assert done.returncode == 0, done.stderr
    return done


THREADS_AFTER_MATMUL = """
import os
import bridgescore.cli
import numpy as np
a = np.random.default_rng(0).standard_normal((512, 512))
a @ a
print(len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="threads counted in /proc")
class TestBlasThreads:
    def test_cli_runs_blas_on_one_thread(self):
        assert python("-c", THREADS_AFTER_MATMUL).stdout == "1\n"

    @pytest.mark.skipif(CPUS < 2, reason="OpenBLAS starts no more threads than CPUs")
    def test_environment_chooses_the_thread_count(self):
        done = python("-c", THREADS_AFTER_MATMUL, extra={"OPENBLAS_NUM_THREADS": "2"})
        assert done.stdout == "2\n"


def test_package_import_loads_no_numpy():
    code = "import sys, bridgescore; print('numpy' in sys.modules)"
    assert python("-c", code).stdout == "False\n"


LAZY_NAMES = """
import importlib, bridgescore
for name in bridgescore.__all__:
    home = importlib.import_module(f"bridgescore.{bridgescore._HOME[name]}")
    assert name not in vars(bridgescore), name
    value = getattr(bridgescore, name)
    assert value is vars(home)[name] and value.__module__ == home.__name__, name
print(len(bridgescore.__all__))
"""


def test_every_public_name_resolves_to_its_module():
    # each name loads through the package's __getattr__, as the object its module defines
    assert int(python("-c", LAZY_NAMES).stdout) == len(bridgescore.__all__)


def test_cli_import_after_numpy_leaves_the_environment():
    code = ("import os, numpy; before = dict(os.environ); import bridgescore.cli; "
            "print(dict(os.environ) == before, 'OPENBLAS_NUM_THREADS' in os.environ)")
    assert python("-c", code).stdout == "True False\n"


def test_forking_command_gives_no_fork_warning(tmp_path):
    # from Python 3.12 os.fork warns in a process with threads; 400 documents of 41 points
    # at d=64 make a corpus of at least twice SPAN_FLOOR bytes, so fit forks its read on
    # two CPUs or more
    corpus = tmp_path / "c.jsonl"
    python("-m", "bridgescore.cli", "simulate", "--d", 64, "--T", 40, "--n", 400,
           "--seed", 1, "--out", corpus)
    assert corpus.stat().st_size >= 2 * fileio.SPAN_FLOOR
    done = python("-W", "error::DeprecationWarning", "-m", "bridgescore.cli", "fit",
                  "--in", corpus, "--out", tmp_path / "m.json")
    assert "Traceback" not in done.stderr
    assert "Warning" not in done.stderr


# this interpreter runs the CLI with its arguments on the first CPU only
PINNED = ("import os, runpy, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
          "sys.argv[0] = 'bridgescore'; runpy.run_module('bridgescore.cli', run_name='__main__')")


def outputs(path, pinned):
    """stdout and the output files of simulate, fit, score and discriminate at d=256."""
    start = ["-c", PINNED] if pinned else ["-m", "bridgescore.cli"]
    commands = [
        ["simulate", "--d", 256, "--T", "20:40", "--n", 16, "--sigma", "random-spd:7",
         "--endpoints", "random:1", "--seed", 3, "--out", "c.jsonl"],
        ["fit", "--in", "c.jsonl", "--out", "m.json"],
        ["score", "--in", "c.jsonl", "--model", "m.json", "--allow-in-sample",
         "--out", "s.jsonl"],
        ["discriminate", "--in", "c.jsonl", "--model", "m.json", "--block-sizes", "1,5",
         "--copies", 4, "--seed", 9],
    ]
    stdout = [python(*start, *argv, cwd=path).stdout for argv in commands]
    return stdout, [(path / name).read_bytes() for name in ("c.jsonl", "m.json", "s.jsonl")]


@pytest.mark.skipif(CPUS < 2, reason="one CPU has nothing to pin away")
def test_same_bytes_on_one_cpu_and_on_all_at_d256(tmp_path):
    # LAPACK's threaded Cholesky of a 256x256 covariance moves its last bits
    # with the thread count, and simulate mixes, and score solves, through it
    assert outputs(tmp_path, pinned=True) == outputs(tmp_path, pinned=False)
