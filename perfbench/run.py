#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the bridgescore CLI.

Run from the repository root:

    python3 perfbench/run.py --workload fit-d256 --seed 1 --seconds 20 --trace 0

With --trace 0 every command runs as a user runs it: one fresh
`python -m bridgescore.cli` process per command, in a closed loop with one
client and one command at a time, with the BLAS thread setting inherited
unchanged. The run reports the median wall time (cmd_s) and CPU time
(cmd_cpu_s) of the workload's command sequence over repetitions until
--seconds have passed, the largest resident set of those processes
(peak_rss_mb), and the median wall time of building the inputs (setup_s),
which is repeated SETUP_REPS times with the same seed and must give
byte-identical files.

With --trace 1 the commands run in this process through `cli.main`, with
the package's public functions wrapped by tracer.Tracer, alternating with
untraced runs so that the tracing overhead shows. Probes in fresh processes
add the import time and a single-threaded pooled covariance.

Every output is checked against reference.py; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics. The
work directory is .perfbench/ under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPS = 3  # set-up runs per benchmark run; setup_s is their median
MIN_REPS = 3  # timed repetitions of the command sequence, at least
MIN_TRACED = 2  # traced and untraced in-process repetitions, at least each
IMPORT_REPS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class SetupFailed(RuntimeError):
    pass


def cli_env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def run_cli(argv, outdir: Path) -> dict:
    """One CLI command in a fresh process: wall and CPU seconds, peak RSS, output."""
    out_path, err_path = outdir / "stdout.txt", outdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "bridgescore.cli", *argv],
                                stdout=out, stderr=err, env=cli_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode,
            "stdout": out_path.read_text(), "stderr": err_path.read_text()}


def python_probe(args, env=None) -> str:
    """stdout and stderr of `python <args>` with the sources on the path."""
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env or cli_env(), cwd=ROOT, timeout=120, check=True)
    return done.stdout + done.stderr


def machine() -> dict:
    """The machine and library facts every run records."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    llc = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = int((index / "level").read_text())
            if level >= llc.get("level", 0):
                llc = {"level": level, "size": (index / "size").read_text().strip()}
    model = ""
    with contextlib.suppress(OSError):
        found = re.search(r"model name\s*:\s*(.*)", Path("/proc/cpuinfo").read_text())
        model = found.group(1) if found else ""
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "last_level_cache": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in BLAS_ENV},
    }


class Run:
    """One benchmark run: one workload, one seed, traced or not."""

    def __init__(self, name, seed, seconds, size="full", tamper=None):
        self.cls = workloads.WORKLOADS[name]
        self.seed, self.seconds, self.size = seed, seconds, size
        self.tamper = tamper  # called with the workload after each command; for the self-test
        self.dir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.lines: list[str] = []

    def fail(self, what: str, errors) -> None:
        self.failed += 1
        self.problems.extend(f"{what}: {e}" for e in errors)

    def set_up(self, k: int, run_step):
        """Build set-up k's inputs in its own directory, running CLI steps with
        run_step(argv, workload) -> (exit code, stderr). Returns the workload,
        the wall seconds and the sha256 of each generated file."""
        where = self.dir / f"setup{k}"
        where.mkdir(parents=True, exist_ok=True)
        wl = self.cls(self.seed, self.size, where)
        start = time.perf_counter()
        for step in wl.setup_steps():
            if callable(step):
                step()
                continue
            self.attempted += 1
            code, err = run_step(step, wl)
            if code != 0:
                raise SetupFailed(f"{step[0]} exited {code}: {err.strip()[-300:]}")
        wall = time.perf_counter() - start
        if k == 0 and (errors := wl.corpus_errors()):
            self.fail("set-up corpus", errors)
        return wl, wall, {f: workloads.sha256(wl.path(f)) for f in wl.inputs}

    def check_inputs(self, digests: list[dict]) -> None:
        """Same seed, same files: every set-up must match the first byte for byte."""
        for k, other in enumerate(digests[1:], start=1):
            for name, digest in other.items():
                if digest != digests[0][name]:
                    self.fail(f"set-up {k}", [f"{name} differs from set-up 0 with the same seed"])
        for name, digest in digests[0].items():
            self.lines.append(f"input {name} sha256={digest}")

    def checked(self, wl, index, code, stdout, stderr, what) -> None:
        self.attempted += 1
        if self.tamper:
            self.tamper(wl)
        if code != 0:
            self.fail(what, [f"exit code {code}: {stderr.strip()[-300:]}"])
            return
        errors = wl.check(index, stdout)
        if errors:
            self.fail(what, errors)

    # --- tracing off: fresh processes -------------------------------------------

    def untraced(self) -> dict:
        """Set-ups alternate with timed segments, so that samples of both spread
        over the whole run rather than over one phase of a noisy host."""
        def run_step(argv, wl):
            res = run_cli(argv, wl.dir)
            return res["code"], res["stderr"]

        setup_times, digests = [], []
        walls, cpus, rss = [], [], 0.0
        for k in range(SETUP_REPS):
            wl, wall, digest = self.set_up(k, run_step)
            setup_times.append(wall)
            digests.append(digest)
            if k:
                shutil.rmtree(wl.dir)
            else:
                timed = wl

            start = time.perf_counter()
            while (len(walls) < MIN_REPS * (k + 1) // SETUP_REPS
                   or time.perf_counter() - start < self.seconds / SETUP_REPS):
                wall = cpu = 0.0
                for i, argv in enumerate(timed.commands()):
                    res = run_cli(argv, timed.dir)
                    wall += res["wall"]
                    cpu += res["cpu"]
                    rss = max(rss, res["rss_mb"])
                    self.checked(timed, i, res["code"], res["stdout"], res["stderr"], argv[0])
                walls.append(wall)
                cpus.append(cpu)
        self.check_inputs(digests)
        self.lines.append(f"reps: {len(walls)} command sequences of {len(timed.commands())} "
                          f"commands, {SETUP_REPS} set-ups")
        self.lines.append("wall s per rep: " + " ".join(f"{w:.4f}" for w in walls))
        self.lines.append("set-up wall s: " + " ".join(f"{w:.4f}" for w in setup_times))
        return {"cmd_s": median(walls), "cmd_cpu_s": median(cpus), "peak_rss_mb": rss,
                "setup_s": median(setup_times)}

    # --- tracing on: in-process ---------------------------------------------------

    def traced(self) -> dict:
        sys.path.insert(0, str(SRC))
        import bridgescore
        import bridgescore.cli

        tracer = Tracer()
        cache = getattr(getattr(bridgescore, "bridge", None), "temporal_cov", None)
        if not hasattr(cache, "cache_info"):
            cache = None

        absent = set()  # traced names the package no longer has

        def call(argv, trace: bool):
            """cli.main as a fresh process would run it: wall, exit code, stdout, stderr
            and the temporal-covariance cache counters."""
            if cache:
                cache.cache_clear()
            out, err = io.StringIO(), io.StringIO()
            if trace:
                absent.update(tracer.install(bridgescore))
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    start = time.perf_counter()
                    try:
                        code = bridgescore.cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code
                    wall = time.perf_counter() - start
            finally:
                tracer.uninstall()
            info = cache.cache_info() if cache else None
            return wall, code, out.getvalue(), err.getvalue(), info

        def setup_runner(trace: bool):
            def run_step(argv, wl):
                _, code, _, err, _ = call(argv, trace)
                return code, err
            return run_step

        # Set-up: once traced, once not, and the two must write identical files.
        lo = len(tracer.spans)
        wl, traced_setup, digest = self.set_up(0, setup_runner(True))
        _, untraced_setup, other = self.set_up(1, setup_runner(False))
        setup_summary, setup_notes = tracer.summary(lo), dict(tracer.notes)
        segments = [["setup", lo, len(tracer.spans)]]
        self.check_inputs([digest, other])

        per_iter, traced_walls, untraced_walls = [], [], []
        start = time.perf_counter()
        while (len(untraced_walls) < MIN_TRACED
               or time.perf_counter() - start < self.seconds):
            first = len(traced_walls) % 2 == 0  # alternate which of the pair runs first
            for trace in (first, not first):
                lo = len(tracer.spans)
                tracer.notes.clear()
                wall, hits, misses = 0.0, 0, 0
                for i, argv in enumerate(wl.commands()):
                    w, code, out, err, info = call(argv, trace)
                    wall += w
                    if info:
                        hits, misses = hits + info.hits, misses + info.misses
                    self.checked(wl, i, code, out, err, f"{argv[0]} (in-process)")
                if not trace:
                    untraced_walls.append(wall)
                    continue
                traced_walls.append(wall)
                segments.append(["command", lo, len(tracer.spans)])
                per_iter.append(command_layers(tracer.summary(lo), tracer.notes, wall,
                                               hits, misses))

        layers = {k: median([it[k] for it in per_iter]) for k in per_iter[0]}
        layers.update(setup_layers(setup_summary, setup_notes))
        layers.update(self.probes(wl))
        layers.update(corpus_layers(wl))
        layers["trace.overhead_frac"] = median(traced_walls) / median(untraced_walls) - 1.0
        self.lines.append(f"traced reps: {len(traced_walls)} traced, {len(untraced_walls)} "
                          f"untraced; set-up traced {traced_setup:.4f} s, "
                          f"untraced {untraced_setup:.4f} s")
        if absent:
            self.lines.append("absent (reported as 0): " + ", ".join(sorted(absent)))
        for phase, summary in (("setup", setup_summary),
                               ("command", tracer.summary(segments[-1][1]))):
            for name, s in sorted(summary.items()):
                self.lines.append(f"span {phase:7} {name + '_s':38} total {s['total_s']:.6f} s  "
                                  f"self {s['self_s']:.6f} s  calls {s['calls']}")
        spans_path = WORK / f"spans-{self.cls.name}-seed{self.seed}.json"
        tracer.dump(spans_path, {"workload": self.cls.name, "seed": self.seed,
                                 "segments": segments})
        self.lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
        return layers

    def probes(self, wl) -> dict:
        """Fresh-process import time, its scipy.stats share, and one-thread pooled covariance."""
        timing = ("import time; t = time.perf_counter(); import bridgescore.cli; "
                  "print(time.perf_counter() - t)")
        imports = [float(python_probe(["-c", timing])) for _ in range(IMPORT_REPS)]
        found = {}
        for line in python_probe(["-X", "importtime", "-c", "import bridgescore.cli"]).splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in ("scipy.stats", "bridgescore.cli"):
                found[parts[2]] = int(parts[1]) / 1e6
        pooled = ("import statistics, sys, time\n"
                  "from bridgescore import bridge, fileio\n"
                  "if not hasattr(bridge, 'pooled_covariance'): print(0.0); sys.exit()\n"
                  "cache = getattr(getattr(bridge, 'temporal_cov', None), 'cache_clear', None)\n"
                  "trajs = [r.trajectory for r in fileio.read_trajectories(sys.argv[1])[0]]\n"
                  "times = []\n"
                  "for _ in range(3):\n"
                  "    if cache: cache()\n"
                  "    t = time.perf_counter(); bridge.pooled_covariance(trajs)\n"
                  "    times.append(time.perf_counter() - t)\n"
                  "print(statistics.median(times))\n")
        one_thread = cli_env(**{k: "1" for k in BLAS_ENV})
        pooled_s = float(python_probe(["-c", pooled, wl.path(wl.fit_corpus)], one_thread))
        self.lines.append(f"cli.import_scipy_stats_s {found.get('scipy.stats', 0.0):.6f} s "
                          f"(of {found.get('bridgescore.cli', 0.0):.6f} s, -X importtime)")
        return {
            "cli.import_s": median(imports),
            "cli.import_scipy_stats_share": (found.get("scipy.stats", 0.0)
                                             / found.get("bridgescore.cli", 1.0)),
            "bridge.pooled_covariance_1thread_s": pooled_s,
        }


def _span(summary, name, key="total_s"):
    return summary.get(name, {}).get(key, 0)


def command_layers(summary, notes, wall, hits, misses) -> dict:
    """Per-layer numbers of one traced repetition of the command sequence."""
    read_s = _span(summary, "fileio.read_trajectories")
    share = {name: _span(summary, name) / wall for name in (
        "fileio.file_digest", "bridge.pooled_covariance", "bridge.mahalanobis_trace",
        "bridge.residuals", "score.bbscore", "numerics.chi_square_sf",
        "evalsuite.make_shuffle_set", "encoder.nll_gradient", "encoder.update_sigma_hat",
        "encoder.nll_objective")}
    out = {f"{name}_share": value for name, value in share.items()}
    out.update({
        "cli.self_s": _span(summary, "cli.main", "self_s"),
        "fileio.read_trajectories_s": read_s,
        "fileio.read_mb_per_s": notes.get("bytes_read", 0) / 1e6 / read_s if read_s else 0.0,
        "fileio.docs_read": notes.get("docs_read", 0),
        "bridge.pooled_covariance_calls": _span(summary, "bridge.pooled_covariance", "calls"),
        "bridge.mahalanobis_trace_calls": _span(summary, "bridge.mahalanobis_trace", "calls"),
        "bridge.temporal_cov_lookups": hits + misses,
        "bridge.temporal_cov_misses": misses,
        "bridge.temporal_cov_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "score.bbscore_calls": _span(summary, "score.bbscore", "calls"),
        "numerics.chi_square_sf_calls": _span(summary, "numerics.chi_square_sf", "calls"),
        "numerics.max_dof": notes.get("max_dof", 0),
        "evalsuite.copies_made": notes.get("copies_made", 0),
        "evalsuite.discrimination_accuracy_self_share":
            _span(summary, "evalsuite.discrimination_accuracy", "self_s") / wall,
        "encoder.nll_gradient_calls": _span(summary, "encoder.nll_gradient", "calls"),
        "trace.wall_s": wall,
        "trace.accounted_frac": sum(s["self_s"] for s in summary.values()) / wall,
    })
    return out


def setup_layers(summary, notes) -> dict:
    write_s = _span(summary, "fileio.write_trajectories")
    return {
        "fileio.write_trajectories_s": write_s,
        "fileio.write_mb_per_s": notes.get("bytes_written", 0) / 1e6 / write_s if write_s else 0.0,
        "bridge.sample_bridge_s": _span(summary, "bridge.sample_bridge"),
    }


def corpus_layers(wl) -> dict:
    docs = wl.docs()
    lengths = [doc["points"].shape[0] - 1 for doc in docs]
    return {
        "corpus.docs": len(docs),
        "corpus.total_dof": sum((T - 1) * wl.d for T in lengths),
        "corpus.distinct_T": len(set(lengths)),
        "corpus.bytes": os.path.getsize(wl.path(wl.corpus)),
    }


def declared_units(kind: str) -> dict:
    """Metric name to unit, for BENCHMARK.json's "end_to_end" or "per_layer" list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def benchmark(name, seed, seconds, trace, size="full", tamper=None) -> tuple[list[str], dict]:
    """Run one workload; returns the report lines and the result object."""
    run = Run(name, seed, seconds, size, tamper)
    run.lines.append(f"perfbench {name} seed={seed} seconds={seconds} trace={int(trace)} "
                     f"size={size} (closed loop, one client, one command at a time)")
    run.lines.append("machine " + json.dumps(machine(), sort_keys=True))
    try:
        if trace:
            values, units = run.traced(), declared_units("per_layer")
        else:
            values, units = run.untraced(), declared_units("end_to_end")
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    for key, m in metrics.items():
        run.lines.append(f"{key:44} {m['value']:.6f} {m['unit']}")
    run.lines.append(f"{'failed_frac':44} {run.failed / max(run.attempted, 1):.6f} ratio "
                     f"({run.failed} of {run.attempted} commands)")
    run.lines.extend(f"FAILED {p}" for p in run.problems)
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    return run.lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bridgescore" / "cli.py").is_file():
        print(f"perfbench: no bridgescore sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        lines, result = benchmark(args.workload, args.seed, args.seconds, args.trace)
    except SetupFailed as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
