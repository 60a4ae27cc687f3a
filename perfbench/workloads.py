"""The benchmark's workloads: how each builds its inputs, what it runs, and its checks.

A workload is bound to one directory. `setup_steps` build the inputs there
(CLI argument lists, plus plain Python steps for file handling a user would
do in the shell), `commands` are the timed CLI invocations, and `check`
compares one command's output with `reference`, which never runs the code
under test. Every `simulate`, `fit` and `train` seed derives from the
benchmark's seed argument.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import reference

EPSILON = 1e-7  # the `fit` and `train` default, which the commands leave unset
T_RANGE = "20:60"

# Relative tolerances of the output checks. The references agree with the
# seed code to about 1e-15 on these inputs.
SIGMA_RTOL = 1e-9  # Frobenius norm of the difference over that of the reference
NLL_RTOL = 1e-9

SIZES = {
    "full": {"fit_n": 120, "disc_n": 100, "copies": 20, "train_n": 100, "epochs": 8},
    "toy": {"fit_n": 14, "disc_n": 4, "copies": 3, "train_n": 6, "epochs": 2},
}


def derive(seed: int, tag: str) -> int:
    """A 32-bit seed for one input, derived from the benchmark seed."""
    digest = hashlib.sha256(f"perfbench|{seed}|{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Workload:
    name = ""
    inputs: tuple[str, ...] = ()  # files the set-up generates
    fit_corpus = ""  # the corpus whose pooled covariance the one-thread probe times
    corpus = ""  # the corpus the timed commands read
    d = 0

    def __init__(self, seed: int, size: str, where: Path):
        self.seed = seed
        self.n = SIZES[size]
        self.dir = Path(where)
        self._docs = None
        self._want = {}  # reference results, by command index

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def simulate(self, n: int, out: str, tag: str, domain: str = "sim") -> list[str]:
        return ["simulate", "--d", str(self.d), "--T", T_RANGE, "--n", str(n),
                "--sigma", f"random-spd:{derive(self.seed, tag + '-sigma')}",
                "--endpoints", "random:1", "--domain", domain,
                "--seed", str(derive(self.seed, tag)), "--out", self.path(out)]

    def docs(self) -> list[dict]:
        """The command corpus as the reference reads it."""
        if self._docs is None:
            self._docs = reference.read_corpus(self.path(self.corpus))
        return self._docs

    def corpus_docs(self) -> int:
        raise NotImplementedError

    def corpus_errors(self) -> list[str]:
        """Shape errors of the simulated command corpus."""
        lo, hi = (int(v) for v in T_RANGE.split(":"))
        docs = self.docs()
        bad = [doc["id"] for doc in docs
               if doc["points"].shape[1] != self.d or not lo <= doc["points"].shape[0] - 1 <= hi]
        errors = [f"{self.corpus}: {len(bad)} documents off d={self.d}, T={T_RANGE}"] if bad else []
        if len(docs) != self.corpus_docs():
            errors.append(f"{self.corpus}: {len(docs)} documents, expected {self.corpus_docs()}")
        return errors

    def model_matrix(self) -> np.ndarray:
        return np.asarray(json.loads(Path(self.path("model.json")).read_text())["matrix"])

    def setup_steps(self) -> list:
        raise NotImplementedError

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self, index: int, stdout: str) -> list[str]:
        """Mismatches between command `index`'s output and the reference."""
        raise NotImplementedError


class FitD256(Workload):
    """Fit the pooled covariance of a wide corpus.

    pooled_covariance, and the BLAS threads it runs on, take the largest
    share; parsing wide JSONL rows most of the rest.
    """

    name = "fit-d256"
    inputs = ("corpus.jsonl",)
    fit_corpus = corpus = "corpus.jsonl"
    d = 256

    def corpus_docs(self):
        return self.n["fit_n"]

    def setup_steps(self):
        return [self.simulate(self.n["fit_n"], "corpus.jsonl", "corpus")]

    def commands(self):
        return [["fit", "--in", self.path("corpus.jsonl"), "--out", self.path("model.json")]]

    def check(self, index, stdout):
        errors = []
        if index not in self._want:
            self._want[index] = reference.pooled_sigma(self.docs(), EPSILON)
        want, weight = self._want[index]
        model = json.loads(Path(self.path("model.json")).read_text())
        if model.get("d") != self.d or model.get("weight") != weight:
            errors.append(f"model.json: d={model.get('d')} weight={model.get('weight')}, "
                          f"reference d={self.d} weight={weight}")
        got = np.asarray(model["matrix"], dtype=float)
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        if not rel <= SIGMA_RTOL:
            errors.append(f"model.json: matrix differs from the reference by {rel:.3g} relative")
        if model.get("source_corpus_digest") != sha256(self.path("corpus.jsonl")):
            errors.append("model.json: source_corpus_digest is not the corpus sha256")
        return errors


class DiscriminateD16(Workload):
    """Global and local shuffle discrimination on a tiny corpus.

    File I/O is near zero; the time goes to start-up, the per-call overhead
    of many small bbscore calls, and the shuffles. A change that helps large
    corpora but taxes small calls shows here.
    """

    name = "discriminate-d16"
    inputs = ("corpus.jsonl", "model.json")
    fit_corpus = corpus = "corpus.jsonl"
    BLOCKS = (1, 2, 5, 10)
    WINDOWS = (1, 2, 3)
    WINDOW_SIZE = 3
    d = 16

    def corpus_docs(self):
        return self.n["disc_n"]

    def setup_steps(self):
        return [self.simulate(self.n["disc_n"], "corpus.jsonl", "corpus"),
                ["fit", "--in", self.path("corpus.jsonl"), "--out", self.path("model.json")]]

    def commands(self):
        common = ["discriminate", "--in", self.path("corpus.jsonl"),
                  "--model", self.path("model.json"), "--copies", str(self.n["copies"]),
                  "--seed", str(derive(self.seed, "shuffle"))]
        return [common + ["--kind", "global",
                          "--block-sizes", ",".join(map(str, self.BLOCKS))],
                common + ["--kind", "local", "--windows", ",".join(map(str, self.WINDOWS)),
                          "--window-size", str(self.WINDOW_SIZE)]]

    def check(self, index, stdout):
        kind, sizes = [("global", self.BLOCKS), ("local", self.WINDOWS)][index]
        if index not in self._want:
            self._want[index] = reference.discrimination_table(
                self.docs(), self.model_matrix(), kind, sizes, self.WINDOW_SIZE,
                self.n["copies"], derive(self.seed, "shuffle"))
        want = self._want[index]
        got = stdout.splitlines()[-len(want):]
        if got != want:
            return [f"discriminate --kind {kind}: table {got} differs from reference {want}"]
        return []


class TrainD64(Workload):
    """Train the encoder on a two-domain corpus.

    The only workload that runs the encoder. It calls pooled_covariance many
    times on small in-memory corpora, unlike fit-d256's one call on a file.
    """

    name = "train-d64"
    inputs = ("corpus.jsonl",)
    fit_corpus = corpus = "corpus.jsonl"
    STEP_SIZE = 1e-6  # the default 1e-3 diverges on these corpora (exit code 2)
    BATCH_SIZE = 8
    d = 64

    def corpus_docs(self):
        return 2 * self.n["train_n"]

    def setup_steps(self):
        return [self.simulate(self.n["train_n"], "news.jsonl", "news", "news"),
                self.simulate(self.n["train_n"], "forum.jsonl", "forum", "forum"),
                self.concatenate]

    def concatenate(self) -> None:
        """Join the two domain files, dropping the second file's header line."""
        with open(self.path("corpus.jsonl"), "w", encoding="utf-8") as out:
            for k, name in enumerate(("news.jsonl", "forum.jsonl")):
                with open(self.path(name), encoding="utf-8") as fh:
                    lines = fh.readlines()
                out.writelines(lines[k:])

    def commands(self):
        return [["train", "--corpora", self.path("corpus.jsonl"),
                 "--epochs", str(self.n["epochs"]), "--step-size", repr(self.STEP_SIZE),
                 "--batch-size", str(self.BATCH_SIZE),
                 "--seed", str(derive(self.seed, "train")), "--out", self.path("state.json")]]

    def check(self, index, stdout):
        errors = []
        if index not in self._want:
            self._want[index] = reference.nll_trace(
                self.docs(), self.n["epochs"], self.STEP_SIZE, self.BATCH_SIZE, EPSILON,
                derive(self.seed, "train"))
        want = self._want[index]
        got = json.loads(Path(self.path("state.json")).read_text()).get("nll_trace", [])
        if len(got) != len(want):
            return [f"state.json: nll_trace has {len(got)} values, expected {len(want)}"]
        if any(b >= a for a, b in zip(got, got[1:])):
            errors.append(f"state.json: nll_trace does not decrease strictly: {got}")
        for epoch, (g, w) in enumerate(zip(got, want)):
            if not abs(g - w) <= NLL_RTOL * abs(w):
                errors.append(f"state.json: nll_trace[{epoch}] {g!r}, reference {w!r}")
        return errors


WORKLOADS = {w.name: w for w in (FitD256, DiscriminateD16, TrainD64)}
