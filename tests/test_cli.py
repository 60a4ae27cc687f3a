import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bridgescore
from bridgescore import SpdMatrix, ValidationError, chi_square_sf, score_statistics
from bridgescore.cli import main
from bridgescore.fileio import (
    TrajectoryRecord,
    file_digest,
    read_sigma_model,
    read_trajectories,
    write_sigma_model,
    write_trajectories,
)


def run(*argv):
    return main([str(a) for a in argv])


def cli_env():
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = str(Path(bridgescore.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_process(*argv):
    """The CLI in a fresh interpreter, importing this checkout's package."""
    return subprocess.run([sys.executable, *map(str, argv)], capture_output=True, text=True,
                          env=cli_env(), timeout=120)


def assert_clean_exit_1(done, where):
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert where in done.stderr


def simulate_file(tmp_path, name="corpus.jsonl", n=30, d=2, T=20, seed=1,
                  sigma="random-spd:5", domain="sim", label=None):
    out = tmp_path / name
    argv = ["simulate", "--d", d, "--T", T, "--n", n, "--sigma", sigma,
            "--seed", seed, "--domain", domain, "--out", out]
    if label:
        argv += ["--label", label]
    assert run(*argv) == 0
    return out


class TestSimulate:
    def test_empty_file_has_header(self, tmp_path):
        out = simulate_file(tmp_path, n=0)
        records, header = read_trajectories(out)
        assert records == []
        assert header["kind"] == "trajectories"
        assert header["seed"] == 1
        assert "created_by" in header

    def test_byte_identical_reruns(self, tmp_path):
        a = simulate_file(tmp_path, name="a.jsonl", seed=9)
        b = simulate_file(tmp_path, name="b.jsonl", seed=9)
        assert a.read_bytes() == b.read_bytes()

    def test_round_trips_through_ingestion(self, tmp_path):
        out = simulate_file(tmp_path, n=12, T="8:15")
        records, _ = read_trajectories(out)
        assert len(records) == 12
        lengths = {r.trajectory.T for r in records}
        assert lengths <= set(range(8, 16)) and len(lengths) > 1

    def test_order_independent_of_corpus_position(self, tmp_path):
        # same doc id gets the same trajectory regardless of n
        small = simulate_file(tmp_path, name="s.jsonl", n=3, seed=4)
        large = simulate_file(tmp_path, name="l.jsonl", n=6, seed=4)
        rs, _ = read_trajectories(small)
        rl, _ = read_trajectories(large)
        for a, b in zip(rs, rl):
            assert a.trajectory.id == b.trajectory.id
            assert np.array_equal(a.trajectory.points, b.trajectory.points)

    @pytest.mark.parametrize("option, value, message", [
        ("--T", "5:x", "--T '5:x': expected an integer >= 5, got 'x'"),
        ("--T", "9:5", "--T '9:5': expected an integer >= 9, got '5'"),
        ("--T", "10:", "--T '10:': expected an integer >= 10, got ''"),
        ("--T", "1", "--T '1': expected an integer >= 2, got '1'"),
        ("--endpoints", "random:abc", "--endpoints 'random:abc': expected a finite number >= 0"),
        ("--endpoints", "random:nan", "--endpoints 'random:nan': expected a finite number >= 0"),
        ("--endpoints", "random:-1", "--endpoints 'random:-1': expected a finite number >= 0"),
        ("--endpoints", "random:inf", "--endpoints 'random:inf': expected a finite number >= 0"),
        ("--endpoints", "randomly", "--endpoints 'randomly': expected 'zero' or 'random[:scale]'"),
        ("--sigma", "random-spd:x", "--sigma 'random-spd:x': expected an integer >= 0"),
        ("--sigma", "random-spd:-3", "--sigma 'random-spd:-3': expected an integer >= 0"),
        ("--d", "0", "--d 0: expected an integer >= 1"),
        ("--n", "-1", "--n -1: expected an integer >= 0"),
    ])
    def test_bad_spec_exits_1_before_any_output(self, tmp_path, option, value, message):
        args = {"--d": "2", "--T": "8", "--n": "3", option: value}
        out = tmp_path / "c.jsonl"
        done = run_process("-m", "bridgescore.cli", "simulate",
                           *[v for pair in args.items() for v in pair], "--out", out)
        assert_clean_exit_1(done, f"error: {message}")
        assert len(done.stderr.splitlines()) == 1 and "Warning" not in done.stderr
        assert not out.exists()


class TestIngestionDiagnostics:
    def write_lines(self, tmp_path, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_bad_json(self, tmp_path):
        path = self.write_lines(tmp_path, ['{"id": "a", "points": [[0],[0],[0]'])
        with pytest.raises(ValidationError, match="bad.jsonl:1"):
            read_trajectories(path)

    def test_ragged_points(self, tmp_path):
        path = self.write_lines(
            tmp_path, ['{"id":"a","domain":"d","points":[[0,1],[2],[3,4]]}']
        )
        with pytest.raises(ValidationError, match="rectangular"):
            read_trajectories(path)

    def test_too_few_points(self, tmp_path):
        path = self.write_lines(tmp_path, ['{"id":"a","domain":"d","points":[[0],[1]]}'])
        with pytest.raises(ValidationError, match="at least 3"):
            read_trajectories(path)

    def test_nonfinite(self, tmp_path):
        path = self.write_lines(
            tmp_path, ['{"id":"a","domain":"d","points":[[0],[null],[1]]}']
        )
        with pytest.raises(ValidationError, match="non-finite"):
            read_trajectories(path)

    def test_duplicate_ids(self, tmp_path):
        row = '{"id":"a","domain":"d","points":[[0],[1],[0]]}'
        path = self.write_lines(tmp_path, [row, row])
        with pytest.raises(ValidationError, match="duplicate id"):
            read_trajectories(path)

    def test_missing_field(self, tmp_path):
        path = self.write_lines(tmp_path, ['{"id":"a","points":[[0],[1],[0]]}'])
        with pytest.raises(ValidationError, match="domain"):
            read_trajectories(path)

    def test_cli_exit_code_on_bad_file(self, tmp_path, capsys):
        path = self.write_lines(tmp_path, ['{"id":"a","points":[[0],[1],[0]]}'])
        rc = run("fit", "--in", path, "--out", tmp_path / "m.json")
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("point", ['["q", 1]', '[[1], 1]', '[[1], [1]]'])
    def test_non_numeric_coordinate(self, tmp_path, point):
        row = '{"id":"a","domain":"d","points":[[0,1],%s,[3,4]]}' % point
        path = self.write_lines(tmp_path, [row])
        with pytest.raises(ValidationError, match="bad.jsonl:1"):
            read_trajectories(path)

    @pytest.mark.parametrize("point", ['["q", 1]', '[[1], 1]'])
    def test_non_numeric_coordinate_cli_exit_1(self, tmp_path, point):
        row = '{"id":"a","domain":"d","points":[[0,1],%s,[3,4]]}' % point
        path = self.write_lines(tmp_path, [row])
        done = run_process("-m", "bridgescore.cli", "fit", "--in", path,
                           "--out", tmp_path / "m.json")
        assert_clean_exit_1(done, "bad.jsonl:1")

    @pytest.mark.parametrize("point", ["[true, 1]", "[0, false]", '["1.5", 1]', '[1, "2"]'])
    def test_boolean_or_string_coordinate(self, tmp_path, point):
        row = '{"id":"a","domain":"d","points":[[0,1],%s,[3,4]]}' % point
        path = self.write_lines(tmp_path, [row])
        with pytest.raises(ValidationError, match="bad.jsonl:1"):
            read_trajectories(path)
        done = run_process("-m", "bridgescore.cli", "fit", "--in", path,
                           "--out", tmp_path / "m.json")
        assert_clean_exit_1(done, "bad.jsonl:1")

    @pytest.mark.parametrize("depth", [20_000, 100_000, 200_000])
    def test_deep_nesting_cli_exit_1(self, tmp_path, depth):
        # past 10,000 '[' and '{' bytes json alone parses a line, and refuses the depth;
        # orjson would overflow the C stack some 150k levels deep
        nested = "[" * depth + "]" * depth
        path = self.write_lines(tmp_path, ['{"id":"a","domain":"d","points":[[0],[1],[2]],'
                                           f'"x":{nested}}}'])
        done = run_process("-m", "bridgescore.cli", "fit", "--in", path,
                           "--out", tmp_path / "m.json")
        assert_clean_exit_1(done, "bad.jsonl:1: invalid JSON (maximum recursion depth exceeded")

    def test_true_in_a_string_keeps_numbers(self, tmp_path):
        path = self.write_lines(
            tmp_path, ['{"id":"true-false","domain":"d","points":[[0,1],[2,3.5],[3,4]]}'])
        records, _ = read_trajectories(path)
        np.testing.assert_array_equal(records[0].trajectory.points, [[0, 1], [2, 3.5], [3, 4]])


class TestFileDigest:
    @pytest.mark.parametrize("size", [0, 1 << 20, (1 << 20) + 1, 5 * (1 << 19) + 7])
    def test_matches_whole_file_hash(self, tmp_path, size):
        data = np.random.default_rng(size).bytes(size)
        path = tmp_path / "blob.bin"
        path.write_bytes(data)
        assert file_digest(path) == hashlib.sha256(data).hexdigest()


CLI = [sys.executable, "-m", "bridgescore.cli"]


class TestPipes:
    """Corpora written to stdout and read from stdin, through real pipes."""

    def test_corpus_on_stdout_pipes_into_fit(self, tmp_path):
        argv = ["simulate", "--d", "3", "--T", "8:12", "--n", "20", "--seed", "4"]
        simulate = subprocess.Popen([*CLI, *argv, "--out", "/dev/stdout"], env=cli_env(),
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        tee = tmp_path / "piped.jsonl"
        fit_argv = [*CLI, "fit", "--in", "/dev/stdin", "--out", str(tmp_path / "m.json")]
        script = f"tee {shlex.quote(str(tee))} | {shlex.join(fit_argv)}"
        fit = subprocess.run(["sh", "-c", script], stdin=simulate.stdout, capture_output=True,
                             text=True, env=cli_env(), timeout=120)
        simulate.stdout.close()
        _, err = simulate.communicate(timeout=120)
        assert simulate.returncode == 0, err
        assert fit.returncode == 0, fit.stderr
        assert err.decode().startswith("simulate: wrote 20 trajectories to /dev/stdout")
        assert run(*argv, "--out", tmp_path / "c.jsonl") == 0
        assert tee.read_bytes() == (tmp_path / "c.jsonl").read_bytes()

    @pytest.mark.parametrize("command", ["fit", "shuffle", "train"])
    def test_piped_corpus_digest_is_its_bytes(self, tmp_path, command):
        corpus = simulate_file(tmp_path, n=8, T=10)
        digests = []
        for source, data in ((corpus, None), ("/dev/stdin", corpus.read_bytes())):
            out = tmp_path / f"out-{len(digests)}.json"
            flag = "--corpora" if command == "train" else "--in"
            argv = [command, flag, str(source), "--out", str(out)]
            argv += ["--epochs", "1", "--step-size", "1e-8"] if command == "train" else []
            done = subprocess.run([*CLI, *argv], input=data, capture_output=True,
                                  env=cli_env(), timeout=120)
            assert done.returncode == 0, done.stderr
            digests.append(json.loads(out.read_text().splitlines()[0])["source_corpus_digest"])
        assert digests == [hashlib.sha256(corpus.read_bytes()).hexdigest()] * 2


class TestFit:
    def test_writes_valid_model(self, tmp_path, capsys):
        corpus = simulate_file(tmp_path)
        model_path = tmp_path / "model.json"
        assert run("fit", "--in", corpus, "--out", model_path) == 0
        out = capsys.readouterr().out
        assert "weight=" in out and "logdet=" in out and "sigma2=" in out
        model = read_sigma_model(model_path)
        assert model.d == 2
        assert json.loads(model_path.read_text())["weight"] == 30 * 19
        assert model.source_corpus_digest

    def test_epsilon_one_gives_isotropic(self, tmp_path):
        corpus = simulate_file(tmp_path)
        model_path = tmp_path / "model.json"
        assert run("fit", "--in", corpus, "--epsilon", 1.0, "--out", model_path) == 0
        payload = json.loads(model_path.read_text())
        m = np.asarray(payload["matrix"])
        assert m[0, 1] == 0.0 and m[1, 0] == 0.0
        assert m[0, 0] == m[1, 1]

    def test_refit_byte_identical(self, tmp_path):
        corpus = simulate_file(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("fit", "--in", corpus, "--out", a) == 0
        assert run("fit", "--in", corpus, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_compare_to_prints_error(self, tmp_path, capsys):
        corpus = simulate_file(tmp_path, n=60, T=30)
        ref = tmp_path / "ref.json"
        fit1 = tmp_path / "fit1.json"
        assert run("fit", "--in", corpus, "--out", ref) == 0
        capsys.readouterr()
        assert run("fit", "--in", corpus, "--out", fit1, "--compare-to", ref) == 0
        out = capsys.readouterr().out
        assert "relative Frobenius error" in out

    @pytest.mark.parametrize("ref_d", [None, 3])
    def test_bad_compare_to_writes_no_model(self, tmp_path, ref_d):
        # the reference model is read and checked before the fit writes anything
        corpus = simulate_file(tmp_path)
        ref = tmp_path / "ref.json"
        message = f"error: {ref}: cannot read file"
        if ref_d:
            assert run("fit", "--in", simulate_file(tmp_path, name="c3.jsonl", d=ref_d),
                       "--out", ref) == 0
            message = "error: --compare-to model has d=3, fitted d=2"
        out = tmp_path / "m.json"
        done = run_process("-m", "bridgescore.cli", "fit", "--in", corpus, "--out", out,
                           "--compare-to", ref)
        assert done.returncode == 1
        assert done.stderr.startswith(message)
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
        assert done.stdout == ""
        assert not out.exists()

    def test_recovers_generating_covariance(self, tmp_path, capsys):
        # simulate from a known covariance written as a model file, refit,
        # and check the printed error against that generating covariance
        from conftest import random_spd

        rng = np.random.default_rng(17)
        star = tmp_path / "star.json"
        write_sigma_model(star, SpdMatrix(random_spd(rng, 4)),
                          weight=4, domain="truth", epsilon=0.0, source_corpus_digest="")
        corpus = tmp_path / "big.jsonl"
        assert run("simulate", "--d", 4, "--T", 50, "--n", 200, "--sigma", star,
                   "--seed", 23, "--out", corpus) == 0
        capsys.readouterr()
        assert run("fit", "--in", corpus, "--out", tmp_path / "fit.json",
                   "--compare-to", star) == 0
        out = capsys.readouterr().out
        rel = float(out.split("relative Frobenius error")[1].split(":")[1].strip())
        assert rel < 0.10

    def test_domain_filter(self, tmp_path):
        a = simulate_file(tmp_path, name="a.jsonl", domain="news", seed=3)
        b = simulate_file(tmp_path, name="b.jsonl", domain="wiki", seed=4)
        mixed = tmp_path / "mixed.jsonl"
        ra, _ = read_trajectories(a)
        rb, _ = read_trajectories(b)
        write_trajectories(mixed, ra + rb)
        model_path = tmp_path / "m.json"
        assert run("fit", "--in", mixed, "--domain", "wiki", "--out", model_path) == 0
        assert json.loads(model_path.read_text())["domain"] == "wiki"
        rc = run("fit", "--in", mixed, "--domain", "absent", "--out", model_path)
        assert rc == 1

    @pytest.mark.parametrize("eps", ["1.5", "5", "-0.1", "nan"])
    def test_epsilon_out_of_range_exit_1(self, tmp_path, capsys, eps):
        corpus = simulate_file(tmp_path)
        model = tmp_path / "m.json"
        assert run("fit", "--in", corpus, "--epsilon", eps, "--out", model) == 1
        assert "epsilon must lie in [0, 1]" in capsys.readouterr().err
        assert not model.exists()

    def test_singular_corpus_exit_2(self, tmp_path, capsys):
        rows = []
        for i in range(4):
            pts = [[float(t), 2.0 * t] for t in range(5)]
            rows.append(TrajectoryRecord(trajectory_from(pts, f"line-{i}")))
        path = tmp_path / "lines.jsonl"
        write_trajectories(path, rows)
        rc = run("fit", "--in", path, "--epsilon", 0.0, "--out", tmp_path / "m.json")
        assert rc == 2
        assert "numerical error:" in capsys.readouterr().err


    def test_near_singular_mle_fits_and_scores(self, tmp_path):
        # a pooled MLE with condition number near 1e10 (epsilon 0 keeps it unblended)
        # fits, and the model scores held-out documents with finite results
        d = 3
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((d, d)))
        sigma = q @ np.diag([1.0, 1e-5, 1e-10]) @ q.T
        spatial = bridgescore.SpdMatrix(0.5 * (sigma + sigma.T))
        gen = tmp_path / "gen.json"
        write_sigma_model(gen, spatial, weight=100, domain="x", epsilon=0.0,
                          source_corpus_digest="")
        fit_corpus = simulate_file(tmp_path, name="fit.jsonl", n=20, d=d, T=30, seed=1, sigma=gen)
        held_out = simulate_file(tmp_path, name="held.jsonl", n=20, d=d, T=30, seed=2, sigma=gen)
        model = tmp_path / "m.json"
        done = run_process("-m", "bridgescore.cli", "fit", "--in", fit_corpus, "--epsilon", 0,
                           "--out", model)
        assert done.returncode == 0 and "Traceback" not in done.stderr
        assert 1e9 < np.linalg.cond(read_sigma_model(model).spatial.entries) < 1e11
        scores = tmp_path / "s.jsonl"
        done = run_process("-m", "bridgescore.cli", "score", "--in", held_out, "--model", model,
                           "--out", scores)
        assert done.returncode == 0 and "Traceback" not in done.stderr
        rows = [json.loads(line) for line in scores.read_text().splitlines()[1:]]
        values = np.array([[r["bbscore"], r["statistic"], r["p_value"]] for r in rows])
        assert len(rows) == 20 and np.all(np.isfinite(values))
        assert 0.5 < values[:, 0].mean() < 1.5
        # discrimination whitens every copy through the same factor: finite accuracies
        for kind, sizes in ((["--per-document"], 4), (["--kind", "local"], 3)):
            done = run_process("-m", "bridgescore.cli", "discriminate", "--in", fit_corpus,
                               "--model", model, "--copies", 5, "--seed", 3, *kind)
            assert done.returncode == 0 and "Traceback" not in done.stderr
            table = [line.split() for line in done.stdout.splitlines()[2:]]
            accuracies = np.array([float(acc) for _, acc in table])
            assert len(table) == sizes
            assert np.all(np.isfinite(accuracies) & (accuracies >= 0.0) & (accuracies <= 1.0))
        # the trainer's unblended update loses definiteness once the weights move: exit 2
        state = tmp_path / "state.json"
        done = run_process("-m", "bridgescore.cli", "train", "--corpora", fit_corpus,
                           "--epsilon", 0, "--step-size", 1e-6, "--out", state)
        assert done.returncode == 2
        assert done.stderr.splitlines() == [
            "numerical error: domain 'sim': covariance estimate of dim 3 is singular (epsilon=0.0)"
        ]
        assert not state.exists()
        # with the default blend the objective rises at epoch 1 and stays up: exit 2
        done = run_process("-m", "bridgescore.cli", "train", "--corpora", fit_corpus,
                           "--step-size", 1e-6, "--out", state)
        assert done.returncode == 2
        [line] = done.stderr.splitlines()
        assert re.fullmatch(r"numerical error: epoch 1: objective \S+ rose above its initial "
                            r"value -\S+", line)
        assert not state.exists()


def trajectory_from(points, traj_id, domain="d"):
    from bridgescore import LatentTrajectory

    return LatentTrajectory(id=traj_id, domain=domain, points=np.asarray(points, float))


class TestScore:
    def setup_pair(self, tmp_path):
        fit_corpus = simulate_file(tmp_path, name="fitcorpus.jsonl", n=50, seed=11)
        eval_corpus = simulate_file(tmp_path, name="evalcorpus.jsonl", n=40, seed=12)
        model = tmp_path / "model.json"
        assert run("fit", "--in", fit_corpus, "--out", model) == 0
        return fit_corpus, eval_corpus, model

    def test_scores_written(self, tmp_path):
        _, eval_corpus, model = self.setup_pair(tmp_path)
        out = tmp_path / "scores.jsonl"
        assert run("score", "--in", eval_corpus, "--model", model, "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "scores" and header["in_sample"] is False
        rows = [json.loads(line) for line in lines[1:]]
        assert len(rows) == 40
        for row in rows:
            assert set(row) == {"id", "bbscore", "statistic", "dof", "p_value"}
            assert row["statistic"] == pytest.approx(row["bbscore"] * row["dof"])

    def test_in_sample_refused_without_flag(self, tmp_path, capsys):
        fit_corpus, _, model = self.setup_pair(tmp_path)
        out = tmp_path / "scores.jsonl"
        rc = run("score", "--in", fit_corpus, "--model", model, "--out", out)
        assert rc == 1
        assert "--allow-in-sample" in capsys.readouterr().err

    def test_in_sample_mean_near_one(self, tmp_path):
        fit_corpus, _, model = self.setup_pair(tmp_path)
        out = tmp_path / "scores.jsonl"
        assert run("score", "--in", fit_corpus, "--model", model, "--out", out,
                   "--allow-in-sample") == 0
        rows = [json.loads(line) for line in out.read_text().strip().splitlines()[1:]]
        mean = float(np.mean([r["bbscore"] for r in rows]))
        assert 0.9 <= mean <= 1.1

    def test_dimension_mismatch_names_both(self, tmp_path, capsys):
        _, _, model = self.setup_pair(tmp_path)
        other = simulate_file(tmp_path, name="d3.jsonl", d=3, seed=13)
        rc = run("score", "--in", other, "--model", model, "--out", tmp_path / "x.jsonl")
        assert rc == 1
        err = capsys.readouterr().err
        assert "d=3" in err and "d=2" in err

    def test_straight_line_scores_zero(self, tmp_path):
        _, _, model = self.setup_pair(tmp_path)
        pts = [[float(t), -2.0 * t] for t in range(0, 8, 2)]
        path = tmp_path / "line.jsonl"
        write_trajectories(path, [TrajectoryRecord(trajectory_from(pts, "line"))])
        out = tmp_path / "line-scores.jsonl"
        assert run("score", "--in", path, "--model", model, "--out", out) == 0
        row = json.loads(out.read_text().strip().splitlines()[1])
        assert row["bbscore"] == 0.0 and row["p_value"] == 1.0

    def test_heuristic_flag(self, tmp_path):
        _, eval_corpus, model = self.setup_pair(tmp_path)
        out = tmp_path / "scores.jsonl"
        assert run("score", "--in", eval_corpus, "--model", model, "--out", out,
                   "--with-heuristic") == 0
        lines = out.read_text().strip().splitlines()
        assert json.loads(lines[0])["heuristic"] == "reconstruction"
        assert "heuristic_score" in json.loads(lines[1])

    def test_heuristic_of_a_chord_document_exit_2_without_output(self, tmp_path, capsys):
        # the heuristic's variance MLE is zero on the chord, and its squared residuals
        # overflow near 1e160: every score is computed, and the error raised, before
        # the output file is opened
        _, _, model = self.setup_pair(tmp_path)
        path = tmp_path / "chord.jsonl"
        write_trajectories(path, [TrajectoryRecord(
            trajectory_from([[0, 0], [1, 2], [2, 4], [3, 6]], "chord"))])
        out = tmp_path / "chord-scores.jsonl"
        assert run("score", "--in", path, "--model", model, "--out", out,
                   "--with-heuristic") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("numerical error: ") and "lies on its chord" in err[0]
        assert not out.exists()

        # a valid model under which the statistic stays finite; a fresh interpreter
        # shows any numpy warning on stderr
        model, path = tmp_path / "big-model.json", tmp_path / "big.jsonl"
        write_sigma_model(model, SpdMatrix(1e300 * np.eye(2)), weight=100,
                          domain="x", epsilon=0.0, source_corpus_digest="")
        write_trajectories(path, [TrajectoryRecord(
            trajectory_from([[0, 0], [1e160, -1e160], [0, 1e160]], "big"))])
        assert run("score", "--in", path, "--model", model, "--out", tmp_path / "big.out") == 0
        out = tmp_path / "big-scores.jsonl"
        done = run_process("-m", "bridgescore.cli", "score", "--in", path, "--model", model,
                           "--out", out, "--with-heuristic")
        assert done.returncode == 2
        assert done.stderr == ("numerical error: trajectory 'big': "
                               "its heuristic score is not finite\n")
        assert not out.exists()


def test_score_and_predictions_are_compact_sorted_json(tmp_path):
    # the bytes json.dumps(sort_keys=True, separators=(",", ":")) writes, line by line,
    # with the tool version in each header
    low = simulate_file(tmp_path, name="low.jsonl", n=6, T=12, domain="a", label="low")
    high = simulate_file(tmp_path, name="high.jsonl", n=6, T=12, seed=2, domain="b", label="high")
    labeled = tmp_path / "both.jsonl"
    write_trajectories(labeled, read_trajectories(low)[0] + read_trajectories(high)[0])
    model = tmp_path / "m.json"
    assert run("fit", "--in", labeled, "--out", model) == 0
    scores, preds = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
    assert run("score", "--in", low, "--model", model, "--out", scores, "--with-heuristic") == 0
    assert run("classify", "--train", labeled, "--test", labeled, "--model", model,
               "--label-order", "low,high", "--out", preds) == 0
    for path, rows in ((scores, 7), (preds, 13)):
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) == rows
        assert json.loads(lines[0])["created_by"] == f"bridgescore {bridgescore.__version__}"
        compact = [json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) + "\n"
                   for line in lines]
        assert lines == compact


class TestShuffleAndDiscriminate:
    def test_shuffle_writes_copies(self, tmp_path):
        corpus = simulate_file(tmp_path, n=5, T=12)
        out = tmp_path / "shuffled.jsonl"
        assert run("shuffle", "--in", corpus, "--kind", "global", "--block-size", 2,
                   "--copies", 5, "--out", out) == 0
        records, header = read_trajectories(out)
        assert header["kind_of_shuffle"] == "global"
        assert 1 <= len(records) <= 25

    def test_discriminate_prints_table(self, tmp_path, capsys):
        corpus = simulate_file(tmp_path, name="eval.jsonl", n=12, T=24, seed=21)
        fit_corpus = simulate_file(tmp_path, name="fitc.jsonl", n=40, T=24, seed=22)
        model = tmp_path / "m.json"
        assert run("fit", "--in", fit_corpus, "--out", model) == 0
        capsys.readouterr()
        assert run("discriminate", "--in", corpus, "--model", model,
                   "--block-sizes", "1,2", "--copies", 5, "--seed", 3) == 0
        out = capsys.readouterr().out
        assert "block_size" in out and "accuracy" in out
        lines = [line for line in out.splitlines() if line.strip() and line.strip()[0].isdigit()]
        assert len(lines) == 2
        accs = [float(line.split()[1]) for line in lines]
        assert all(0.0 <= a <= 1.0 for a in accs)
        assert all(a > 0.9 for a in accs)

    def test_discriminate_local(self, tmp_path, capsys):
        corpus = simulate_file(tmp_path, name="eval.jsonl", n=10, T=24, seed=31)
        fit_corpus = simulate_file(tmp_path, name="fitc.jsonl", n=40, T=24, seed=32)
        model = tmp_path / "m.json"
        assert run("fit", "--in", fit_corpus, "--out", model) == 0
        capsys.readouterr()
        assert run("discriminate", "--in", corpus, "--model", model, "--kind", "local",
                   "--windows", "1,2", "--copies", 5, "--seed", 3) == 0
        out = capsys.readouterr().out
        assert "windows" in out

    @pytest.mark.parametrize("kind, sizes, error", [
        ("global", ["--block-sizes", "1,2,5,10"], "points cannot form two blocks of 10"),
        ("local", ["--windows", "1,2,5"], "cannot place 5 disjoint windows of 3"),
    ])
    def test_size_too_large_fails_before_output(self, tmp_path, kind, sizes, error):
        # sizes too large for the shortest documents come last, after sizes that fit all
        corpus = simulate_file(tmp_path, n=30, T="10:40", seed=1)
        model = tmp_path / "m.json"
        assert run("fit", "--in", corpus, "--out", model) == 0
        records, _ = read_trajectories(corpus)
        short = min((r.trajectory for r in records if r.trajectory.T + 1 < 20),
                    key=lambda t: t.id)
        done = run_process("-m", "bridgescore.cli", "discriminate", "--in", corpus,
                           "--model", model, "--kind", kind, *sizes, "--copies", 2)
        assert_clean_exit_1(done, f"error: trajectory {short.id!r}: ")
        assert error in done.stderr
        assert done.stdout == ""

    @pytest.mark.parametrize("argv, option", [
        (["--block-sizes", ""], "--block-sizes"),
        (["--block-sizes", ","], "--block-sizes"),
        (["--kind", "local", "--windows", ""], "--windows"),
    ])
    def test_empty_size_list_exits_1(self, tmp_path, argv, option):
        corpus = simulate_file(tmp_path, n=6, T=8)
        model = tmp_path / "m.json"
        assert run("fit", "--in", corpus, "--out", model) == 0
        done = run_process("-m", "bridgescore.cli", "discriminate", "--in", corpus,
                           "--model", model, *argv, "--copies", 2)
        assert done.returncode == 1
        assert done.stderr == f"error: {option} names no size\n"
        assert done.stdout == ""


class TestRelativeClassifyCompare:
    def test_relative_command(self, tmp_path, capsys):
        originals = simulate_file(tmp_path, name="orig.jsonl", n=10, T=20, seed=41)
        fit_corpus = simulate_file(tmp_path, name="fitc.jsonl", n=40, T=20, seed=42)
        model = tmp_path / "m.json"
        assert run("fit", "--in", fit_corpus, "--out", model) == 0
        shuffled = tmp_path / "shuf.jsonl"
        assert run("shuffle", "--in", originals, "--kind", "global", "--block-size", 1,
                   "--copies", 3, "--out", shuffled) == 0
        capsys.readouterr()
        assert run("relative", "--set-a", originals, "--set-b", shuffled,
                   "--model", model) == 0
        out = capsys.readouterr().out
        assert "relative accuracy" in out
        acc = float(out.split("relative accuracy:")[1].split()[0])
        assert acc > 0.8

    def test_relative_labels_keyed_per_set(self, tmp_path, capsys):
        # two simulate runs share ids; each set's labels must stay its own
        set_a = simulate_file(tmp_path, name="a.jsonl", n=8, T=15, seed=61, label="high")
        set_b = simulate_file(tmp_path, name="b.jsonl", n=8, T=15, seed=62, label="low")
        fit_corpus = simulate_file(tmp_path, name="fitc.jsonl", n=30, T=15, seed=63)
        model = tmp_path / "m.json"
        assert run("fit", "--in", fit_corpus, "--out", model) == 0
        capsys.readouterr()
        accs = []
        for truth in ("labels", "a-more-coherent"):
            assert run("relative", "--set-a", set_a, "--set-b", set_b, "--model", model,
                       "--truth", truth) == 0
            accs.append(capsys.readouterr().out.split("relative accuracy:")[1].split()[0])
        assert accs[0] == accs[1]

    def test_classify_command_separable(self, tmp_path, capsys):
        fit_corpus = simulate_file(tmp_path, name="fitc.jsonl", n=40, T=20, seed=52)
        model = tmp_path / "m.json"
        assert run("fit", "--in", fit_corpus, "--out", model) == 0
        # classes separated by residual scale: low coherence = big residuals
        rng = np.random.default_rng(5)
        records = []
        for i, (label, scale) in enumerate(
            [(lab, s) for lab, s in (("low", 4.0), ("middle", 2.0), ("high", 1.0))
             for _ in range(12)]
        ):
            pts = rng.standard_normal((21, 2)) * scale
            records.append(TrajectoryRecord(trajectory_from(pts, f"doc-{i:03d}"), label))
        labeled = tmp_path / "labeled.jsonl"
        write_trajectories(labeled, records)
        preds = tmp_path / "preds.jsonl"
        capsys.readouterr()
        assert run("classify", "--train", labeled, "--test", labeled, "--model", model,
                   "--out", preds) == 0
        out = capsys.readouterr().out
        assert "spearman_rho=" in out
        rho = float(out.split("spearman_rho=")[1].split()[0])
        assert rho > 0.9
        lines = preds.read_text().strip().splitlines()
        assert len(lines) == 37

    def test_classify_ignores_training_record_order(self, tmp_path, capsys):
        low = simulate_file(tmp_path, name="low.jsonl", n=10, T=15, seed=71,
                            sigma="random-spd:1", domain="lo", label="low")
        high = simulate_file(tmp_path, name="high.jsonl", n=10, T=15, seed=72,
                             domain="hi", label="high")
        fit_corpus = simulate_file(tmp_path, name="fitc.jsonl", n=30, T=15, seed=73)
        model = tmp_path / "m.json"
        assert run("fit", "--in", fit_corpus, "--out", model) == 0
        header, *rows = low.read_text().splitlines(keepends=True)
        rows += high.read_text().splitlines(keepends=True)[1:]
        outputs = []
        for name, lines in (("train.jsonl", rows), ("reversed.jsonl", rows[::-1])):
            (tmp_path / name).write_text(header + "".join(lines))
            preds = tmp_path / f"preds-{name}"
            capsys.readouterr()
            assert run("classify", "--train", tmp_path / name, "--test", low,
                       "--model", model, "--out", preds) == 0
            outputs.append((capsys.readouterr().out, preds.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_compare_domains_command(self, tmp_path, capsys):
        a = simulate_file(tmp_path, name="a.jsonl", n=10, T=20, seed=61,
                          sigma="random-spd:1", domain="a")
        b = simulate_file(tmp_path, name="b.jsonl", n=10, T=20, seed=62,
                          sigma="random-spd:99", domain="b")
        fit_a = simulate_file(tmp_path, name="fa.jsonl", n=40, T=20, seed=63,
                              sigma="random-spd:1", domain="a")
        fit_b = simulate_file(tmp_path, name="fb.jsonl", n=40, T=20, seed=64,
                              sigma="random-spd:99", domain="b")
        model_a, model_b = tmp_path / "ma.json", tmp_path / "mb.json"
        assert run("fit", "--in", fit_a, "--out", model_a) == 0
        assert run("fit", "--in", fit_b, "--out", model_b) == 0
        capsys.readouterr()
        assert run("compare-domains", "--corpus-a", a, "--corpus-b", b,
                   "--model-a", model_a, "--model-b", model_b) == 0
        out = capsys.readouterr().out
        assert "sigma_a" in out and "sigma_b" in out


class TestDuplicateIdsAcrossFiles:
    """Two files may reuse each other's ids; each command keys records per file."""

    @staticmethod
    def scores(path, model):
        trajs = [r.trajectory for r in read_trajectories(path)[0]]
        statistic, dof = score_statistics(trajs, read_sigma_model(model).spatial)
        return dict(zip([t.id for t in trajs], (statistic / dof).tolist()))

    def test_relative_labels(self, tmp_path, capsys):
        a = simulate_file(tmp_path, name="a.jsonl", n=8, T=15, seed=61)
        b = simulate_file(tmp_path, name="b.jsonl", n=8, T=15, seed=62)
        model = tmp_path / "m.json"
        assert run("fit", "--in", simulate_file(tmp_path, name="f.jsonl", seed=63),
                   "--out", model) == 0
        order = ["low", "middle", "high"]
        labels = {}
        for path, shift in ((a, 0), (b, 1)):  # the same id carries a different label per file
            records = read_trajectories(path)[0]
            labels[path] = {r.trajectory.id: order[(i + shift) % 3]
                            for i, r in enumerate(records)}
            write_trajectories(path, [TrajectoryRecord(r.trajectory, labels[path][r.trajectory.id])
                                      for r in records])
        assert labels[a].keys() == labels[b].keys()
        scores_a, scores_b = self.scores(a, model), self.scores(b, model)
        hits = pairs = 0
        for ia, sa in scores_a.items():
            for ib, sb in scores_b.items():
                truth = order.index(labels[a][ia]) - order.index(labels[b][ib])
                if truth:
                    pairs += 1
                    hits += (sa < sb) if truth > 0 else (sa > sb)
        capsys.readouterr()
        assert run("relative", "--set-a", a, "--set-b", b, "--model", model,
                   "--truth", "labels") == 0
        out = capsys.readouterr().out
        assert out.startswith(f"relative accuracy: {hits / pairs:.4f} over 8x8 cross pairs")

    @pytest.mark.parametrize("pairing", ["cross", "matched"])
    def test_compare_domains(self, tmp_path, capsys, pairing):
        a = simulate_file(tmp_path, name="a.jsonl", n=9, T=12, seed=71, sigma="random-spd:1")
        b = simulate_file(tmp_path, name="b.jsonl", n=9, T=12, seed=72, sigma="random-spd:9")
        model_a, model_b = tmp_path / "ma.json", tmp_path / "mb.json"
        assert run("fit", "--in", simulate_file(tmp_path, name="fa.jsonl", seed=73,
                                                sigma="random-spd:1"), "--out", model_a) == 0
        assert run("fit", "--in", simulate_file(tmp_path, name="fb.jsonl", seed=74,
                                                sigma="random-spd:9"), "--out", model_b) == 0
        capsys.readouterr()
        assert run("compare-domains", "--corpus-a", a, "--corpus-b", b, "--model-a", model_a,
                   "--model-b", model_b, "--pairing", pairing) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert len(rows) == 2
        for row, tag, model in zip(rows, ("sigma_a", "sigma_b"), (model_a, model_b)):
            scores_a, scores_b = self.scores(a, model), self.scores(b, model)
            assert scores_a.keys() == scores_b.keys()
            if pairing == "matched":
                pairs = [(scores_a[i], scores_b[i]) for i in scores_a]
            else:
                pairs = [(sa, sb) for sa in scores_a.values() for sb in scores_b.values()]
            frac = sum(1.0 if sa < sb else 0.5 if sa == sb else 0.0 for sa, sb in pairs)
            assert row.split() == [tag, f"{frac / len(pairs):.4f}"]


class TestTrainCommand:
    def test_train_writes_state_deterministically(self, tmp_path, capsys):
        corpus = simulate_file(tmp_path, n=16, T=12, seed=71)
        out_a, out_b = tmp_path / "sa.json", tmp_path / "sb.json"
        argv = ["train", "--corpora", corpus, "--epochs", 2, "--step-size", "1e-8",
                "--batch-size", 4, "--seed", 5]
        assert run(*argv, "--out", out_a) == 0
        assert run(*argv, "--out", out_b) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        payload = json.loads(out_a.read_text())
        assert payload["kind"] == "trainer_state"
        assert "sim" in payload["sigma_hat"]
        assert len(payload["nll_trace"]) == 3
        out = capsys.readouterr().out
        assert "epoch 2" in out

    def test_train_init_from_file(self, tmp_path):
        corpus = simulate_file(tmp_path, n=10, T=12, seed=81)
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps([[1.0, 0.0], [0.0, 1.0]]))
        out = tmp_path / "state.json"
        assert run("train", "--corpora", corpus, "--epochs", 1, "--step-size", "1e-8",
                   "--init", weights, "--out", out) == 0

    @pytest.mark.parametrize("d_out, init_rows, message", [
        (-1, None, "--d-out must be >= 1, got -1"),
        (0, None, "--d-out must be >= 1, got 0"),
        (2, 1, "--d-out 2 differs from the row count 1 of "),
    ])
    def test_bad_d_out_exits_1(self, tmp_path, d_out, init_rows, message):
        corpus = simulate_file(tmp_path, n=6, T=8)
        argv = ["--d-out", d_out]
        if init_rows:
            weights = tmp_path / "w.json"
            weights.write_text(json.dumps(np.eye(init_rows, 2).tolist()))
            argv += ["--init", weights]
        out = tmp_path / "state.json"
        done = run_process("-m", "bridgescore.cli", "train", "--corpora", corpus, "--epochs", 1,
                           "--step-size", "1e-8", *argv, "--out", out)
        assert done.returncode == 1
        assert done.stderr.startswith(f"error: {message}")
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
        assert not out.exists()

    @pytest.mark.parametrize("step", ["nan", "inf", "-inf", "0"])
    def test_bad_step_size_exits_1(self, tmp_path, step):
        corpus = simulate_file(tmp_path, n=6, T=8)
        out = tmp_path / "state.json"
        done = run_process("-m", "bridgescore.cli", "train", "--corpora", corpus, "--epochs", 1,
                           f"--step-size={step}", "--out", out)
        assert done.returncode == 1
        assert done.stderr == f"error: step_size must be positive and finite, got {float(step)}\n"
        assert not out.exists()

    def test_diverging_step_exits_2(self, tmp_path):
        # a step of 1e308 overflows the weights: a numerical failure, named, unwarned
        corpus = simulate_file(tmp_path, n=6, T=8)
        out = tmp_path / "state.json"
        done = run_process("-m", "bridgescore.cli", "train", "--corpora", corpus, "--epochs", 1,
                           "--step-size", "1e308", "--out", out)
        assert done.returncode == 2
        assert done.stderr == "numerical error: domain 'sim': a gradient step overflows float64\n"
        assert not out.exists()

    def test_d_out_sets_the_identity_rows(self, tmp_path):
        corpus = simulate_file(tmp_path, n=6, T=8)
        out = tmp_path / "state.json"
        assert run("train", "--corpora", corpus, "--epochs", 1, "--step-size", "1e-8",
                   "--d-out", 1, "--out", out) == 0
        assert np.shape(json.loads(out.read_text())["weights"]) == (1, 2)

    @pytest.mark.parametrize("epsilon", [[], ["--epsilon", 0]])
    def test_domain_weight_below_dimension_exits_1(self, tmp_path, epsilon):
        # two T=3 documents at d=8: pooled weight 4, which fit rejects too
        corpus = simulate_file(tmp_path, n=2, d=8, T=3, sigma="random-spd:1", domain="a")
        out = tmp_path / "state.json"
        argv = ["-m", "bridgescore.cli", "train", "--corpora", corpus, "--epochs", 2,
                "--step-size", "1e-6", *epsilon, "--out", out]
        done = run_process(*argv)
        assert done.returncode == 1
        assert done.stderr == "error: domain 'a': pooled weight 4 is below dimension 8\n"
        assert not out.exists()
        if not epsilon:  # four encoded dimensions need a weight of four only
            done = run_process(*argv, "--d-out", 4)
            assert done.returncode == 0, done.stderr
            assert np.shape(json.loads(out.read_text())["weights"]) == (4, 8)

    def test_sigma_model_file_rejects_tampering(self, tmp_path):
        corpus = simulate_file(tmp_path, n=20, T=12, seed=91)
        model = tmp_path / "m.json"
        assert run("fit", "--in", corpus, "--out", model) == 0
        payload = json.loads(model.read_text())
        payload["matrix"][0][1] = payload["matrix"][0][1] + 1.0  # breaks symmetry
        model.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="symmetric"):
            read_sigma_model(model)

    def test_sigma_model_weight_floor(self, tmp_path):
        model = tmp_path / "m.json"
        write_sigma_model(model, SpdMatrix(np.eye(3)), weight=2, domain="x",
                          epsilon=0.0, source_corpus_digest="")
        with pytest.raises(ValidationError, match="weight"):
            read_sigma_model(model)


def scores_match_the_library(corpus, model, scores):
    """The rows of a score file, checked against score_statistics on the corpus as read."""
    trajs = [rec.trajectory for rec in read_trajectories(corpus)[0]]
    statistic, dof = score_statistics(trajs, read_sigma_model(model).spatial)
    p_value = chi_square_sf(statistic, dof)
    rows = [json.loads(line) for line in scores.read_text().splitlines()[1:]]
    assert [row["id"] for row in rows] == [traj.id for traj in trajs]
    assert [row["dof"] for row in rows] == dof.tolist()
    for row, stat, k, p in zip(rows, statistic, dof, p_value):
        assert row["statistic"] == stat and row["bbscore"] == stat / k
        assert row["p_value"] == p
    return rows


@pytest.mark.parametrize("d", [3, 8])
def test_fit_and_train_reject_the_same_corpora(tmp_path, capsys, d):
    # one document of T = weight + 1, whose increments span weight dimensions
    for weight in (d - 1, d, d + 1):
        corpus = simulate_file(tmp_path, name=f"w{weight}.jsonl", n=1, d=d, T=weight + 1,
                               seed=weight, sigma="random-spd:3")
        capsys.readouterr()
        fitted = run("fit", "--in", corpus, "--out", tmp_path / f"m{weight}.json")
        fit_err = capsys.readouterr().err
        trained = run("train", "--corpora", corpus, "--epochs", 1, "--step-size", "1e-8",
                      "--out", tmp_path / f"s{weight}.json")
        train_err = capsys.readouterr().err
        assert (fitted, trained) == ((1, 1) if weight < d else (0, 0))
        assert train_err == fit_err.replace("error: ", "error: domain 'sim': ")
        if weight < d:
            assert fit_err == f"error: pooled weight {weight} is below dimension {d}\n"


class TestLongDocument:
    def test_score_of_one_document_of_dof_near_1e6(self, tmp_path):
        # one 20001-point line of some 25 MB, whose brackets the reader counts before
        # orjson parses it
        fit_corpus = simulate_file(tmp_path, name="fit.jsonl", n=10, d=64, T=200, seed=2)
        long_doc = simulate_file(tmp_path, name="long.jsonl", n=1, d=64, T=20000, seed=3)
        model, scores = tmp_path / "m.json", tmp_path / "s.jsonl"
        assert run("fit", "--in", fit_corpus, "--out", model) == 0
        assert run("score", "--in", long_doc, "--model", model, "--out", scores) == 0
        (row,) = scores_match_the_library(long_doc, model, scores)
        assert row["dof"] == 19999 * 64
        assert row["bbscore"] == pytest.approx(1.0, abs=0.05)


class TestTwoSteps:
    """T = 2, a document of two endpoints and one interior point, through every command."""

    def test_every_command(self, tmp_path, capsys):
        corpus = simulate_file(tmp_path, n=12, T=2, seed=3)
        held_out = simulate_file(tmp_path, name="held.jsonl", n=5, T=2, seed=4)
        model, scores = tmp_path / "m.json", tmp_path / "s.jsonl"
        assert run("fit", "--in", corpus, "--out", model) == 0
        assert run("score", "--in", held_out, "--model", model, "--out", scores) == 0
        rows = scores_match_the_library(held_out, model, scores)
        assert len(rows) == 5 and all(row["dof"] == 2 for row in rows)
        discriminate = ["discriminate", "--in", corpus, "--model", model]
        capsys.readouterr()
        assert run(*discriminate, "--block-sizes", 1) == 0
        # one interior point: every copy is its original, and no pair is told apart
        assert capsys.readouterr().out.splitlines()[-1].split() == ["1", "0.0000"]
        assert run(*discriminate, "--kind", "local", "--windows", 1, "--window-size", 3) == 0
        train = ["train", "--corpora", corpus, "--epochs", 1, "--step-size", "1e-8"]
        assert run(*train, "--out", tmp_path / "state.json") == 0
        capsys.readouterr()
        assert run(*train, "--triplet-mode", "--out", tmp_path / "triplet.json") == 1
        assert "has T=2 < 4" in capsys.readouterr().err


class TestMalformedModelFiles:
    @pytest.mark.parametrize("change", [
        {"d": None}, {"d": 2.5}, {"d": "2"}, {"weight": None}, {"epsilon": None},
        {"matrix": [[1.0, 0.0], [0.0]]}, {"matrix": [[1.0, 0.0], [0.0, True]]},
        {"matrix": [[1.0, "0"], [0.0, 1.0]]}, {"matrix": [[float("nan"), 0.0], [0.0, 1.0]]},
        {"matrix": [[1.0, 0.0], [0.0, float("inf")]]}, {"epsilon": float("nan")},
        {"epsilon": 10 ** 400},
    ])
    def test_bad_field_exits_1(self, tmp_path, change):
        corpus = simulate_file(tmp_path, n=5, T=8, seed=3)
        model = tmp_path / "m.json"
        write_sigma_model(model, bridgescore.SpdMatrix(np.eye(2)), weight=50, domain="x",
                          epsilon=0.0, source_corpus_digest="")
        model.write_text(json.dumps({**json.loads(model.read_text()), **change}))
        with pytest.raises(ValidationError, match="m.json"):
            read_sigma_model(model)
        done = run_process("-m", "bridgescore.cli", "score", "--in", corpus, "--model", model,
                           "--out", tmp_path / "s.jsonl")
        assert_clean_exit_1(done, "m.json")

    @pytest.mark.parametrize("text", ["[1, 2]", "null", '"model"', "3"])
    def test_not_an_object_exits_1(self, tmp_path, text):
        corpus = simulate_file(tmp_path, n=5, T=8, seed=3)
        model = tmp_path / "m.json"
        model.write_text(text)
        done = run_process("-m", "bridgescore.cli", "score", "--in", corpus, "--model", model,
                           "--out", tmp_path / "s.jsonl")
        assert_clean_exit_1(done, "m.json")

    @pytest.mark.parametrize("weights", [[[1.0, 0.0], [0.0]], {"weights": [[1.0], [0.0, 1.0]]},
                                         [[1.0, False], [0.0, 1.0]]])
    def test_bad_weights_exit_1(self, tmp_path, weights):
        corpus = simulate_file(tmp_path, n=5, T=8, seed=3)
        init = tmp_path / "w.json"
        init.write_text(json.dumps(weights))
        done = run_process("-m", "bridgescore.cli", "train", "--corpora", corpus, "--epochs", 1,
                           "--init", init, "--out", tmp_path / "state.json")
        assert_clean_exit_1(done, "w.json")


    def test_nonfinite_sigma_model_rejected_at_load(self, tmp_path):
        model = tmp_path / "m.json"
        model.write_text('{"kind": "sigma_model", "d": 2, "weight": 50, '
                         '"matrix": [[NaN, 0.0], [0.0, 1.0]]}')
        with pytest.raises(ValidationError, match="m.json: matrix is not symmetric "
                                                  "positive-definite: .*non-finite"):
            read_sigma_model(model)
        done = run_process("-m", "bridgescore.cli", "simulate", "--d", 2, "--T", 8, "--n", 3,
                           "--sigma", model, "--out", tmp_path / "c.jsonl")
        assert_clean_exit_1(done, "m.json")
        assert "sim-00000" not in done.stderr


class TestUnreadableFiles:
    """Missing and non-UTF-8 inputs exit 1 with a path: message, never a traceback."""

    @pytest.fixture
    def corpus(self, tmp_path):
        return simulate_file(tmp_path, n=5, T=8, seed=3)

    def test_missing_model(self, tmp_path, corpus):
        missing = tmp_path / "missing.json"
        with pytest.raises(ValidationError, match="missing.json: cannot read file"):
            read_sigma_model(missing)
        done = run_process("-m", "bridgescore.cli", "score", "--in", corpus, "--model", missing,
                           "--out", tmp_path / "s.jsonl")
        assert_clean_exit_1(done, "missing.json")

    def test_missing_init_weights(self, tmp_path, corpus):
        done = run_process("-m", "bridgescore.cli", "train", "--corpora", corpus,
                           "--epochs", 1, "--init", tmp_path / "missing.json",
                           "--out", tmp_path / "state.json")
        assert_clean_exit_1(done, "missing.json")

    def test_missing_corpus(self, tmp_path):
        missing = tmp_path / "missing.jsonl"
        with pytest.raises(ValidationError, match="missing.jsonl: cannot read file"):
            read_trajectories(missing)
        done = run_process("-m", "bridgescore.cli", "fit", "--in", missing,
                           "--out", tmp_path / "m.json")
        assert_clean_exit_1(done, "missing.jsonl")

    def test_directory_as_corpus(self, tmp_path):
        done = run_process("-m", "bridgescore.cli", "fit", "--in", tmp_path,
                           "--out", tmp_path / "m.json")
        assert_clean_exit_1(done, str(tmp_path))

    @pytest.mark.parametrize("name", ["utf16.jsonl", "utf16.json"])
    def test_not_utf8(self, tmp_path, corpus, name):
        bad = tmp_path / name
        bad.write_bytes(b"\xff\xfe" + corpus.read_text().encode("utf-16-le"))
        if name.endswith(".jsonl"):
            argv = ["fit", "--in", bad, "--out", tmp_path / "m.json"]
        else:
            argv = ["score", "--in", corpus, "--model", bad, "--out", tmp_path / "s.jsonl"]
        done = run_process("-m", "bridgescore.cli", *argv)
        assert_clean_exit_1(done, name)


class TestCorpusModelDimensions:
    """Every corpus is checked for one d and against each model it is scored with, naming it."""

    @pytest.fixture
    def files(self, tmp_path):
        d3 = simulate_file(tmp_path, name="d3.jsonl", n=6, d=3, T=8, seed=3, label="low")
        d2 = simulate_file(tmp_path, name="d2.jsonl", n=6, d=2, T=8, seed=4, label="high")
        model3, model2 = tmp_path / "m3.json", tmp_path / "m2.json"
        assert run("fit", "--in", simulate_file(tmp_path, name="f3.jsonl", d=3, seed=5),
                   "--out", model3) == 0
        assert run("fit", "--in", simulate_file(tmp_path, name="f2.jsonl", d=2, seed=6),
                   "--out", model2) == 0
        return d3, d2, model3, model2

    def check(self, argv, corpus, model):
        done = run_process("-m", "bridgescore.cli", *argv)
        assert_clean_exit_1(done, f"corpus {corpus} has d=")
        assert f"model {model} has d=" in done.stderr

    @pytest.mark.parametrize("truth", ["labels", "a-more-coherent"])
    def test_relative_set_b(self, files, truth):
        d3, d2, model3, _ = files
        self.check(["relative", "--set-a", d3, "--set-b", d2, "--model", model3,
                    "--truth", truth, "--label-order", "low,high"], d2, model3)

    @pytest.mark.parametrize("wrong", ["train", "test"])
    def test_classify(self, files, wrong):
        d3, d2, model3, _ = files
        train, test = (d2, d3) if wrong == "train" else (d3, d2)
        self.check(["classify", "--train", train, "--test", test, "--model", model3,
                    "--label-order", "low,high"], d2, model3)

    def test_compare_domains_corpus_b(self, files):
        d3, d2, model3, _ = files
        self.check(["compare-domains", "--corpus-a", d3, "--corpus-b", d2,
                    "--model-a", model3, "--model-b", model3], d2, model3)

    def test_compare_domains_reference_model(self, files):
        d3, _, model3, model2 = files
        self.check(["compare-domains", "--corpus-a", d3, "--corpus-b", d3, "--model-a", model3,
                    "--model-b", model3, "--model-ref", model2], d3, model2)

    @pytest.mark.parametrize("command", ["fit", "train", "shuffle"])
    def test_mixed_corpus_names_file(self, tmp_path, command):
        # the reader rejects the first record of another d at its line: a header, three
        # d=3 records, then line 5
        d3 = simulate_file(tmp_path, name="d3.jsonl", n=3, d=3, T=8, seed=3)
        d2 = simulate_file(tmp_path, name="d2.jsonl", n=3, d=2, T=8, seed=7, domain="other")
        mixed = tmp_path / "mixed.jsonl"
        write_trajectories(mixed, read_trajectories(d3)[0] + read_trajectories(d2)[0])
        argv = {"fit": ["fit", "--in"], "train": ["train", "--epochs", 1, "--corpora"],
                "shuffle": ["shuffle", "--in"]}[command]
        done = run_process("-m", "bridgescore.cli", *argv, mixed, "--out", tmp_path / "o.json")
        assert_clean_exit_1(done, f"error: {mixed}:5: trajectory 'other-00000' has d=2, "
                                  "expected 3 like the records before it")
        assert not (tmp_path / "o.json").exists()


class TestLabelErrors:
    """relative --truth labels and classify share one label check, which names the file."""

    @pytest.fixture
    def files(self, tmp_path):
        low = simulate_file(tmp_path, name="low.jsonl", n=6, T=8, seed=3, label="low")
        high = simulate_file(tmp_path, name="high.jsonl", n=6, T=8, seed=4, label="high")
        model = tmp_path / "m.json"
        assert run("fit", "--in", simulate_file(tmp_path, name="f.jsonl", seed=5),
                   "--out", model) == 0
        return low, high, model

    @pytest.mark.parametrize("command", ["relative", "classify"])
    def test_duplicate_label_order(self, files, command):
        low, high, model = files
        argv = (["relative", "--set-a", high, "--set-b", low, "--truth", "labels"]
                if command == "relative" else ["classify", "--train", high, "--test", low])
        done = run_process("-m", "bridgescore.cli", *argv, "--model", model,
                           "--label-order", "low,high,low")
        assert_clean_exit_1(done, "label order ['low', 'high', 'low'] contains duplicates")

    @pytest.mark.parametrize("command", ["relative", "classify"])
    def test_label_outside_order_names_file(self, files, command):
        low, high, model = files
        argv = (["relative", "--set-a", low, "--set-b", high, "--truth", "labels"]
                if command == "relative" else ["classify", "--train", low, "--test", high])
        done = run_process("-m", "bridgescore.cli", *argv, "--model", model,
                           "--label-order", "low,middle")
        assert_clean_exit_1(done, f"{high}: trajectory 'sim-00000' has label 'high' outside")

    @pytest.mark.parametrize("command", ["relative", "classify"])
    def test_missing_label_names_file(self, tmp_path, files, command):
        low, _, model = files
        unlabeled = simulate_file(tmp_path, name="none.jsonl", n=4, T=8, seed=6)
        argv = (["relative", "--set-a", low, "--set-b", unlabeled, "--truth", "labels"]
                if command == "relative" else ["classify", "--train", unlabeled, "--test", low])
        done = run_process("-m", "bridgescore.cli", *argv, "--model", model)
        assert done.returncode == 1
        assert done.stderr == f"error: {unlabeled}: record 'sim-00000' has no label\n"


class TestOverflowingCoordinates:
    """Finite coordinates whose increments overflow exit 2, naming the document, unwarned."""

    @pytest.fixture
    def huge(self, tmp_path):
        out = tmp_path / "huge.jsonl"
        assert run("simulate", "--d", 2, "--T", 5, "--n", 3, "--endpoints", "random:1e308",
                   "--out", out) == 0
        return out

    @staticmethod
    def assert_numerical_exit_2(done, noun="trajectory"):
        assert done.returncode == 2
        assert done.stderr.startswith(f"numerical error: {noun} 'sim-00000': its ")
        assert "Warning" not in done.stderr and "Traceback" not in done.stderr

    def test_fit(self, tmp_path, huge):
        done = run_process("-m", "bridgescore.cli", "fit", "--in", huge,
                           "--out", tmp_path / "m.json")
        self.assert_numerical_exit_2(done)
        assert "increments overflow float64" in done.stderr

    def test_score(self, tmp_path, huge):
        model = tmp_path / "m.json"
        assert run("fit", "--in", simulate_file(tmp_path, name="f.jsonl", seed=5),
                   "--out", model) == 0
        done = run_process("-m", "bridgescore.cli", "score", "--in", huge, "--model", model,
                           "--out", tmp_path / "s.jsonl")
        self.assert_numerical_exit_2(done)
        assert "statistic overflows float64" in done.stderr

    @pytest.mark.parametrize("argv", [["--block-sizes", 1], ["--block-sizes", 1, "--per-document"],
                                      ["--kind", "local", "--windows", 1, "--window-size", 3]])
    def test_discriminate(self, tmp_path, huge, argv):
        model = tmp_path / "m.json"
        assert run("fit", "--in", simulate_file(tmp_path, name="f.jsonl", seed=5),
                   "--out", model) == 0
        done = run_process("-m", "bridgescore.cli", "discriminate", "--in", huge,
                           "--model", model, *argv)
        self.assert_numerical_exit_2(done)
        assert "statistic or a shuffled copy's overflows float64" in done.stderr
        assert done.stdout == ""

    def test_train(self, tmp_path, huge):
        done = run_process("-m", "bridgescore.cli", "train", "--corpora", huge, "--epochs", 1,
                           "--out", tmp_path / "state.json")
        self.assert_numerical_exit_2(done)
        assert "increments overflow float64" in done.stderr
        assert not (tmp_path / "state.json").exists()

    def test_simulate_endpoints(self, tmp_path):
        out = tmp_path / "huge.jsonl"
        done = run_process("-m", "bridgescore.cli", "simulate", "--d", 2, "--T", 5, "--n", 3,
                           "--endpoints", "random:1e308", "--seed", 1, "--out", out)
        assert done.returncode == 2
        assert done.stderr == ("numerical error: trajectory 'sim-00002': "
                               "its endpoints overflow float64\n")
        assert not out.exists()

    def test_train_large_weights(self, tmp_path):
        # the increments' Gram is finite, but W G W^T overflows
        corpus = simulate_file(tmp_path, n=3, d=2, T=5, seed=1)
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps([[1e160, 0.0], [0.0, 1e160]]))
        done = run_process("-m", "bridgescore.cli", "train", "--corpora", corpus, "--epochs", 1,
                           "--init", weights, "--out", tmp_path / "state.json")
        assert done.returncode == 2
        assert done.stderr == ("numerical error: domain 'sim': "
                               "its encoded covariance overflows float64\n")
        assert not (tmp_path / "state.json").exists()


WRITERS = ["simulate", "fit", "score", "shuffle", "classify", "train"]


class TestUnwritableOutputs:
    """An --out that cannot be written exits 1 with a path: message, never a traceback."""

    @pytest.fixture
    def argvs(self, tmp_path):
        """Each writing command's arguments but --out, over a labeled two-domain corpus."""
        low = simulate_file(tmp_path, name="low.jsonl", n=6, T=8, domain="a", label="low")
        high = simulate_file(tmp_path, name="high.jsonl", n=6, T=8, domain="b", label="high")
        corpus = tmp_path / "both.jsonl"
        write_trajectories(corpus, read_trajectories(low)[0] + read_trajectories(high)[0])
        model = tmp_path / "m.json"
        assert run("fit", "--in", corpus, "--out", model) == 0
        return {
            "simulate": ["--d", 2, "--T", 8, "--n", 3],
            "fit": ["--in", corpus],
            "score": ["--in", corpus, "--model", model, "--allow-in-sample"],
            "shuffle": ["--in", corpus, "--copies", 2],
            "classify": ["--train", corpus, "--test", corpus, "--model", model,
                         "--label-order", "low,high"],
            "train": ["--corpora", corpus, "--epochs", 1, "--step-size", "1e-8"],
        }

    @pytest.mark.parametrize("command", WRITERS)
    def test_missing_directory_exits_1(self, tmp_path, argvs, command):
        bad = tmp_path / "missing-dir" / "out.json"
        done = run_process("-m", "bridgescore.cli", command, *argvs[command], "--out", bad)
        assert_clean_exit_1(done, f"{bad}: cannot write file")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("command", WRITERS)
    def test_full_disk_exits_1(self, argvs, command):
        # /dev/full opens for writing and fails every write, as a full disk does
        done = run_process("-m", "bridgescore.cli", command, *argvs[command], "--out",
                           "/dev/full")
        assert done.returncode == 1
        assert done.stderr == "error: /dev/full: cannot write file (No space left on device)\n"

    def test_train_fails_before_training(self, tmp_path):
        # two million epochs take minutes; the bad path must end the run at once
        corpus = simulate_file(tmp_path, n=6, d=2, T=12, seed=5)
        bad = tmp_path / "missing-dir" / "s.json"
        done = run_process("-m", "bridgescore.cli", "train", "--corpora", corpus,
                           "--epochs", 2_000_000, "--step-size", "1e-8", "--out", bad)
        assert_clean_exit_1(done, f"{bad}: cannot write file (No such file or directory)")
        assert done.stdout == ""
        assert not bad.parent.exists()

    @pytest.mark.parametrize("name, reason", [("out-dir", "Is a directory"),
                                              ("file/out.json", "No such file or directory")])
    def test_unwritable_path_reasons(self, tmp_path, capsys, name, reason):
        (tmp_path / "out-dir").mkdir()
        (tmp_path / "file").write_text("")
        bad = tmp_path / name
        assert run("simulate", "--d", 2, "--T", 4, "--n", 1, "--out", bad) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{bad}: cannot write file ({reason})" in captured.err


class TestClosedStdout:
    """A stdout whose reader has gone exits 1 with one error line, never a traceback."""

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_corpus_on_stdout_read_in_part(self):
        # some 2.5 MB, far past a pipe's buffer, so the writer is still writing at the close
        simulate = subprocess.Popen([*CLI, "simulate", "--d", "16", "--T", "20:60", "--n", "200",
                                     "--out", "/dev/stdout"], env=cli_env(),
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert len(simulate.stdout.read(100)) == 100
        simulate.stdout.close()
        _, err = simulate.communicate(timeout=120)
        assert simulate.returncode == 1
        assert err.decode() == "error: /dev/stdout: cannot write file (Broken pipe)\n"

    @pytest.mark.parametrize("command", ["discriminate", "fit"])
    def test_output_into_a_closed_pipe(self, tmp_path, command):
        corpus = simulate_file(tmp_path, n=8, T=10)
        model = tmp_path / "m.json"
        assert run("fit", "--in", corpus, "--out", model) == 0
        argv = {"discriminate": ["--model", model, "--block-sizes", "1", "--copies", "2"],
                "fit": ["--out", tmp_path / "again.json"]}[command]
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([*CLI, command, "--in", *map(str, [corpus, *argv])],
                                  stdout=write, stderr=subprocess.PIPE, text=True,
                                  env=cli_env(), timeout=120)
        finally:
            os.close(write)
        assert done.returncode == 1
        assert done.stderr == "error: stdout: cannot write (Broken pipe)\n"

    def test_no_stdout_at_start_up(self, tmp_path):
        # with fd 1 closed before start-up Python has no sys.stdout, and print would drop
        # the table: the command stops before it reads (discriminate's model is missing)
        # or writes anything
        corpus = simulate_file(tmp_path, n=8, T=10)
        model = tmp_path / "m.json"
        for argv in (["discriminate", "--model", model, "--block-sizes", "1", "--copies", "2"],
                     ["fit", "--out", model]):
            argv = [*CLI, argv[0], "--in", *map(str, [corpus, *argv[1:]])]
            done = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *argv],
                                  capture_output=True, text=True, env=cli_env(), timeout=120)
            assert (done.returncode, done.stderr) == (
                1, "error: stdout: cannot write (Bad file descriptor)\n")
            assert not model.exists()

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_without_stdout(self, flag):
        done = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *CLI, flag],
                              capture_output=True, text=True, env=cli_env(), timeout=120)
        assert done.returncode == 0


class TestUsageErrors:
    """argparse's usage errors exit 1, as validation errors do; 2 is a numerical failure."""

    @pytest.mark.parametrize("argv, message", [
        (["fit", "--in", "c.jsonl", "--out", "m.json", "--epsilon", "abc"],
         "bridgescore fit: error: argument --epsilon: invalid float value: 'abc'\n"),
        (["fit", "--in", "c.jsonl", "--out", "m.json", "--bogus"],
         "bridgescore: error: unrecognized arguments: --bogus\n"),
        (["bogus"], "bridgescore: error: argument command: invalid choice: 'bogus'"),
    ])
    def test_exit_1_with_usage(self, argv, message):
        done = run_process("-m", "bridgescore.cli", *argv)
        assert done.returncode == 1
        assert done.stderr.startswith("usage: bridgescore")
        assert message in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("command, removed", [
        ("fit", "--seed 1"), ("score", "--seed 1"), ("relative", "--seed 1"),
        ("classify", "--seed 1"), ("compare-domains", "--seed 1"),
        ("discriminate", "--use-pvalue"),
    ])
    def test_removed_option_exits_1(self, tmp_path, command, removed):
        # no command defines an option that cannot change its result: naming one is a usage error
        low = simulate_file(tmp_path, name="low.jsonl", n=6, T=12, domain="a", label="low")
        high = simulate_file(tmp_path, name="high.jsonl", n=6, T=12, seed=2, domain="b",
                             label="high")
        both, model, out = tmp_path / "both.jsonl", tmp_path / "m.json", tmp_path / "out.jsonl"
        write_trajectories(both, read_trajectories(low)[0] + read_trajectories(high)[0])
        assert run("fit", "--in", both, "--out", model) == 0
        argv = {
            "fit": ["--in", both, "--out", out],
            "score": ["--in", low, "--model", model, "--out", out],
            "relative": ["--set-a", high, "--set-b", low, "--model", model],
            "classify": ["--train", both, "--test", both, "--model", model,
                         "--label-order", "low,high", "--out", out],
            "compare-domains": ["--corpus-a", low, "--corpus-b", high,
                                "--model-a", model, "--model-b", model],
            "discriminate": ["--in", both, "--model", model, "--block-sizes", 1, "--copies", 2],
        }[command]
        done = run_process("-m", "bridgescore.cli", command, *argv, *removed.split())
        assert done.returncode == 1
        assert done.stderr.startswith("usage: bridgescore")
        assert f"bridgescore: error: unrecognized arguments: {removed}\n" in done.stderr
        assert "Traceback" not in done.stderr
        assert done.stdout == ""
        assert not out.exists()
        assert run(command, *argv) == 0  # and runs without it

    @pytest.mark.parametrize("argv", [["--help"], ["fit", "--help"], ["--version"]])
    def test_help_and_version_exit_0(self, argv):
        done = run_process("-m", "bridgescore.cli", *argv)
        assert done.returncode == 0
        assert done.stderr == ""


class TestWriters:
    """Float arrays are written with the bytes json gives a per-float list of their values."""

    @staticmethod
    def per_float(rows):
        return json.dumps([[float(v) for v in row] for row in rows], separators=(",", ":"))

    @pytest.fixture
    def scaled(self):
        rng = np.random.default_rng(17)
        return rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-30, 30, (40, 3))

    def test_trajectories_bytes(self, tmp_path, scaled):
        rng = np.random.default_rng(5)
        records = [TrajectoryRecord(bridgescore.LatentTrajectory(
            id=f"doc-{i}", domain="x", points=rng.standard_normal((int(rng.integers(3, 9)), 3))
            * scaled[i]), label="lab" if i % 2 else None) for i in range(40)]
        specials = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, 0.1, 1 / 3]
        records.append(TrajectoryRecord(bridgescore.LatentTrajectory(
            id="specials", domain="x", points=np.resize(specials, (7, 3)))))
        path = tmp_path / "c.jsonl"
        write_trajectories(path, records, meta={"seed": 1})
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        for rec, line in zip(records, lines, strict=True):
            label = "" if rec.label is None else f',"label":"{rec.label}"'
            assert line == (f'{{"domain":"x","id":"{rec.trajectory.id}"{label},'
                            f'"points":{self.per_float(rec.trajectory.points)}}}')

    def test_model_and_trainer_state_bytes(self, tmp_path, scaled):
        from bridgescore import LinearEncoder, SpdMatrix, TrainerState
        from bridgescore.fileio import write_trainer_state

        a = scaled[:3] @ scaled[:3].T + np.eye(3)
        spatial = SpdMatrix(0.5 * (a + a.T))
        model = tmp_path / "m.json"
        write_sigma_model(model, spatial, weight=9, domain="x",
                          epsilon=0.0, source_corpus_digest="")
        assert f'"matrix":{self.per_float(spatial.entries)}' in model.read_text()
        state = TrainerState(encoder=LinearEncoder(weights=scaled[:2]),
                             sigma_hat={"x": spatial, "y": SpdMatrix(np.eye(3))},
                             sigma_scalar={"x": 1.0, "y": 1.0})
        out = tmp_path / "state.json"
        write_trainer_state(out, state)
        text = out.read_text()
        assert f'"weights":{self.per_float(scaled[:2])}' in text
        assert f'"x":{self.per_float(spatial.entries)}' in text
        assert f'"y":{self.per_float(np.eye(3))}' in text


SCIPY_LOADED = "any(m.split('.')[0] == 'scipy' for m in sys.modules)"


class TestStartup:
    """Each check runs in a fresh interpreter: pytest itself has loaded scipy."""

    def test_cli_import_leaves_scipy_stats_out(self):
        done = run_process("-c", "import sys, bridgescore.cli; "
                                 "print('scipy.stats' in sys.modules)")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_cli_import_loads_no_scipy(self):
        done = run_process("-c", f"import sys, bridgescore.cli; print({SCIPY_LOADED})")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_simulate_fit_shuffle_run_on_numpy_alone(self, tmp_path):
        corpus, model = str(tmp_path / "c.jsonl"), str(tmp_path / "m.json")
        code = "\n".join([
            "import sys",
            "from bridgescore.cli import main",
            f"assert main(['simulate', '--d', '3', '--T', '8:12', '--n', '20', "
            f"'--sigma', 'random-spd:2', '--out', {corpus!r}]) == 0",
            f"assert main(['fit', '--in', {corpus!r}, '--out', {model!r}]) == 0",
            f"assert main(['shuffle', '--in', {corpus!r}, '--copies', '2', "
            f"'--out', {str(tmp_path / 's.jsonl')!r}]) == 0",
            f"print({SCIPY_LOADED})",
        ])
        done = run_process("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"

    def test_train_runs_on_numpy_alone(self, tmp_path):
        corpus = simulate_file(tmp_path, n=6, d=2, T=12, seed=5)
        argv = ["train", "--corpora", str(corpus), "--epochs", "2", "--step-size", "1e-8",
                "--out", str(tmp_path / "state.json")]
        done = run_process("-c", "import sys; from bridgescore.cli import main; "
                                 f"assert main({argv!r}) == 0; "
                                 f"assert main({argv + ['--triplet-mode']!r}) == 0; "
                                 f"print({SCIPY_LOADED})")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"

    def test_scoring_loads_scipy_special_only_for_pvalues(self, tmp_path):
        low = simulate_file(tmp_path, name="low.jsonl", n=6, T=12, domain="a", label="low")
        high = simulate_file(tmp_path, name="high.jsonl", n=6, T=12, seed=2, domain="b",
                             label="high")
        labeled = tmp_path / "both.jsonl"
        write_trajectories(labeled, read_trajectories(low)[0] + read_trajectories(high)[0])
        model = tmp_path / "m.json"
        assert run("fit", "--in", labeled, "--out", model) == 0
        numpy_only = [
            ["relative", "--set-a", low, "--set-b", high, "--model", model],
            ["compare-domains", "--corpus-a", low, "--corpus-b", high,
             "--model-a", model, "--model-b", model],
            ["classify", "--train", labeled, "--test", labeled, "--model", model,
             "--label-order", "low,high", "--axis", "score"],
        ]
        score = ["score", "--in", low, "--model", model, "--out", tmp_path / "s.jsonl"]
        lines = ["import sys", "from bridgescore.cli import main"]
        lines += [f"assert main({list(map(str, argv))!r}) == 0" for argv in numpy_only]
        lines += [f"print({SCIPY_LOADED})", f"assert main({list(map(str, score))!r}) == 0",
                  "print('scipy.special' in sys.modules, 'scipy.linalg' in sys.modules)"]
        done = run_process("-c", "\n".join(lines))
        assert done.returncode == 0, done.stderr
        *_, loaded, scored, loaded_after_score = done.stdout.splitlines()
        assert (loaded, loaded_after_score) == ("False", "True False")
        assert scored.startswith("score: 6 documents")

    @pytest.mark.parametrize("command, loaded, absent", [
        ("fit", "fileio", ("evalsuite", "score", "encoder")),
        ("train", "encoder", ("evalsuite", "score")),
        ("discriminate", "evalsuite", ("encoder",)),
    ])
    def test_each_command_loads_only_its_modules(self, tmp_path, command, loaded, absent):
        corpus = simulate_file(tmp_path, n=6, d=2, T=12, seed=5)
        model = tmp_path / "m.json"
        assert run("fit", "--in", corpus, "--out", model) == 0
        argv = {
            "fit": ["--in", corpus, "--out", tmp_path / "refit.json"],
            "train": ["--corpora", corpus, "--epochs", "1", "--step-size", "1e-8",
                      "--out", tmp_path / "state.json"],
            "discriminate": ["--in", corpus, "--model", model, "--copies", "2",
                             "--block-sizes", "1"],
        }[command]
        # -X importtime lists every module the process imports, one per stderr line
        done = run_process("-X", "importtime", "-m", "bridgescore.cli", command, *argv)
        assert done.returncode == 0, done.stderr
        modules = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
                   if line.startswith("import time:")}
        assert f"bridgescore.{loaded}" in modules
        assert not modules & {f"bridgescore.{name}" for name in absent}

    def test_discriminate_loads_no_scipy(self, tmp_path):
        corpus = simulate_file(tmp_path, n=6, d=2, T=12, seed=5)
        model = tmp_path / "m.json"
        assert run("fit", "--in", corpus, "--out", model) == 0
        argv = ["discriminate", "--in", str(corpus), "--model", str(model), "--copies", "2",
                "--block-sizes", "1"]
        done = run_process("-c", "import sys; from bridgescore.cli import main; "
                                 f"assert main({argv!r}) == 0; "
                                 "print('scipy.linalg' in sys.modules, "
                                 "'scipy.special' in sys.modules)")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False False"
