"""Discrimination split over forked processes: the same accuracies for any process count.

A floor of one coordinate and a patched CPU set fix how many processes
share the documents, so that two and three processes, and the forked
children they start, run on small corpora and on a host with any number
of CPUs.
"""

import os
import pickle
import signal
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import bridgescore
import bridgescore.evalsuite as ev
import bridgescore.forks as forks
from bridgescore import LatentTrajectory, NumericalError, ShuffleSpec, discrimination_accuracies
from conftest import random_spatial, random_trajectory

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="only Linux forks")

SPECS = {
    "global": [ShuffleSpec(kind="global_block", block_size=b, copies=6, seed=3) for b in (1, 2, 3)],
    "local": [ShuffleSpec(kind="local_window", num_windows=w, window_size=3, copies=6, seed=3)
              for w in (1, 2)],
}


def at(n, call, *args, **kwargs):
    """call on a host with n CPUs and a floor of one coordinate: n processes share the work."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ev, "FORK_FLOOR", 1)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        return call(*args, **kwargs)


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(11)
    spatial = random_spatial(rng, 3)
    originals = [random_trajectory(rng, 3, int(T), traj_id=f"doc-{i:02d}")
                 for i, T in enumerate(rng.integers(6, 20, size=9))]
    a, b = rng.standard_normal((2, 3))  # repeated points: some copies equal the original
    originals.append(LatentTrajectory("doc-rep", "x", [a, b, a, b, a, b, b]))
    return spatial, originals[::-1]


@pytest.mark.parametrize("kind", SPECS)
@pytest.mark.parametrize("per_document", [False, True])
@pytest.mark.parametrize("n", [2, 3])
def test_accuracies_do_not_depend_on_process_count(corpus, children, kind, per_document, n):
    spatial, originals = corpus
    specs = SPECS[kind]
    want = at(1, discrimination_accuracies, originals, specs, spatial, per_document=per_document)
    assert children == []
    assert want == [ev.discrimination_accuracies(originals, [spec], spatial,
                                                 per_document=per_document)[0] for spec in specs]
    got = at(n, discrimination_accuracies, originals, specs, spatial, per_document=per_document)
    assert got == want
    assert [child.sent for child in children] == [True] * (n - 1)


@pytest.mark.parametrize("partial", [False, True])
def test_failed_child_costs_no_output(corpus, monkeypatch, children, partial):
    spatial, originals = corpus
    want = at(1, discrimination_accuracies, originals, SPECS["global"], spatial)

    def fail(work, part, pipe):
        if partial:  # a pickle cut short, as from a child killed while it sends
            data = pickle.dumps(work(part))
            pipe.write(data[:len(data) // 2])
            pipe.flush()
        os._exit(1)

    monkeypatch.setattr(forks, "_send", fail)
    assert at(3, discrimination_accuracies, originals, SPECS["global"], spatial) == want
    assert [child.sent for child in children] == [False, False]


def test_overflow_in_a_child_is_raised_here(corpus, children):
    # the overflowing document is last in id order, so a child scores it, fails, and its
    # part is redone here, where the NumericalError names it
    spatial, originals = corpus
    points = np.arange(24.0).reshape(8, 3)
    points[0, 0], points[1, 0] = 1e308, -1e308
    huge = LatentTrajectory("doc-zz", "x", points)
    with pytest.raises(NumericalError, match="trajectory 'doc-zz': its statistic or a shuffled"):
        at(2, discrimination_accuracies, [huge, *originals], SPECS["global"], spatial)
    assert [child.sent for child in children] == [False]


def test_one_process_off_linux(corpus, monkeypatch, children):
    spatial, originals = corpus
    want = at(1, discrimination_accuracies, originals, SPECS["local"], spatial)
    monkeypatch.setattr(sys, "platform", "darwin")
    assert at(3, discrimination_accuracies, originals, SPECS["local"], spatial) == want
    assert children == []


@pytest.mark.parametrize("short", [1, 0])
def test_the_floor_forks_from_twice_its_work(monkeypatch, children, short):
    # on 2 CPUs, the fewest copies whose coordinates reach twice FORK_FLOOR fork one child,
    # and one copy fewer none; scoring is stubbed, since only the split is looked at
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(ev, "_credits", lambda chunk, specs, spatial: [[np.ones(1)]] * len(specs))
    rng = np.random.default_rng(4)
    originals = [random_trajectory(rng, 2, 12, traj_id=f"doc-{i}") for i in range(2)]
    coordinates = sum(traj.points.size for traj in originals)
    copies = -(-2 * ev.FORK_FLOOR // coordinates) - short
    assert (copies * coordinates >= 2 * ev.FORK_FLOOR) == (not short)
    spec = ShuffleSpec(kind="global_block", block_size=1, copies=copies, seed=1)
    discrimination_accuracies(originals, [spec], random_spatial(rng, 2))
    assert [child.sent for child in children] == [True] * (1 - short)


class Box:
    """A result that can be watched by weak reference."""


def test_forked_holds_no_result_once_yielded(children):
    previous = None
    with forks.forked(range(4), lambda part: Box()) as results:
        for box in results:
            assert previous is None or previous() is None
            previous = weakref.ref(box)
            del box
    assert [child.sent for child in children] == [True] * 3


FORK_AFTER_BLAS = """
import os
import numpy as np
import bridgescore.evalsuite as ev
from bridgescore import (LatentTrajectory, ShuffleSpec, SpdMatrix,
                         discrimination_accuracies)
from bridgescore.bridge import increments, quadratic_form

rng = np.random.default_rng(0)
a = rng.standard_normal((256, 256))
spatial = SpdMatrix(a @ a.T / 256 + np.eye(256))
assert np.isfinite(quadratic_form(spatial, increments(rng.standard_normal((120, 256)))))
docs = [LatentTrajectory(f"d{i}", "x", rng.standard_normal((40, 256))) for i in range(6)]
specs = [ShuffleSpec(kind="global_block", block_size=b, copies=8, seed=1) for b in (1, 4)]
one = discrimination_accuracies(docs, specs, spatial)
ev.FORK_FLOOR = 1
os.sched_getaffinity = lambda pid: set(range(3))
assert discrimination_accuracies(docs, specs, spatial) == one
print("ok")
"""


def test_forks_after_blas_threads_started():
    # the children's d=256 products run on BLAS after the parent's threads ran
    src = str(Path(bridgescore.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-c", FORK_AFTER_BLAS], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the children too, in the same session
        proc.communicate()
        pytest.fail("discrimination forked after BLAS threads ran did not finish in 120 s")
    assert proc.returncode == 0, err
    assert out == "ok\n"
