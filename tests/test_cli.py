import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bridgescore
from bridgescore import ValidationError
from bridgescore.cli import main
from bridgescore.fileio import (
    SigmaModel,
    TrajectoryRecord,
    file_digest,
    read_sigma_model,
    read_trajectories,
    write_sigma_model,
    write_trajectories,
)


def run(*argv):
    return main([str(a) for a in argv])


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
        src = str(Path(bridgescore.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "bridgescore.cli", "fit", "--in", str(path),
             "--out", str(tmp_path / "m.json")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "bad.jsonl:1" in done.stderr


class TestFileDigest:
    @pytest.mark.parametrize("size", [0, 1 << 20, (1 << 20) + 1, 5 * (1 << 19) + 7])
    def test_matches_whole_file_hash(self, tmp_path, size):
        data = np.random.default_rng(size).bytes(size)
        path = tmp_path / "blob.bin"
        path.write_bytes(data)
        assert file_digest(path) == hashlib.sha256(data).hexdigest()


class TestFit:
    def test_writes_valid_model(self, tmp_path, capsys):
        corpus = simulate_file(tmp_path)
        model_path = tmp_path / "model.json"
        assert run("fit", "--in", corpus, "--out", model_path) == 0
        out = capsys.readouterr().out
        assert "weight=" in out and "logdet=" in out and "sigma2=" in out
        model = read_sigma_model(model_path)
        assert model.d == 2
        assert model.weight == 30 * 19
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

    def test_recovers_generating_covariance(self, tmp_path, capsys):
        # simulate from a known covariance written as a model file, refit,
        # and check the printed error against that generating covariance
        from bridgescore import SpatialCovariance, SpdMatrix
        from conftest import random_spd

        rng = np.random.default_rng(17)
        star = tmp_path / "star.json"
        write_sigma_model(star, SigmaModel(
            spatial=SpatialCovariance(sigma=SpdMatrix(random_spd(rng, 4))),
            weight=4, domain="truth", epsilon=0.0, source_corpus_digest=""))
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
        assert read_sigma_model(model_path).domain == "wiki"
        rc = run("fit", "--in", mixed, "--domain", "absent", "--out", model_path)
        assert rc == 1

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
        from bridgescore import SpatialCovariance

        write_sigma_model(model, SigmaModel(
            spatial=SpatialCovariance.identity(3), weight=2, domain="x",
            epsilon=0.0, source_corpus_digest=""))
        with pytest.raises(ValidationError, match="weight"):
            read_sigma_model(model)
