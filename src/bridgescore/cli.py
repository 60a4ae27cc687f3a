"""Command-line interface tying the library into reproducible workflows.

Every command is deterministic given its input files and flags; only
simulate, shuffle, discriminate and train draw random numbers, from --seed.
Output files embed the tool version and input digests. Commands hand rows
to fileio's one writer, write_lines or a writer built on it, and read their
corpora and models through one gate, _inputs. Each command imports the
modules only it runs (encoder, evalsuite, score) when it runs, so that fit
loads none of them. Exit codes: 0 on success, 1 on validation errors, usage
errors, failed writes and a closed stdout, 2 on numerical failures.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import os
import sys
from typing import TYPE_CHECKING

# One BLAS thread, unless the environment chooses a count: the forks give the
# parallelism, a thread pool only spins, and LAPACK's d=256 Cholesky bytes would
# depend on the CPU count. Once numpy is loaded the setting cannot take effect,
# and writing it would only leak into the caller's subprocesses.
if "numpy" not in sys.modules and not any(
        os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS")):
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

from .bridge import pooled_covariance, sample_bridge, shrink_covariance
from .errors import InsufficientDataError, NumericalError, ValidationError
from .fileio import (
    TOOL_VERSION,
    TrajectoryRecord,
    check_writable,
    file_digest,
    read_sigma_model,
    read_trajectories,
    read_weights,
    write_lines,
    write_sigma_model,
    write_trainer_state,
    write_trajectories,
)
from .numerics import SpdMatrix, chi_square_sf

if TYPE_CHECKING:
    from .evalsuite import ShuffleSpec


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _inputs(paths, models=(), digest=None, order=None):
    """The nonempty corpora at paths as trajectory lists, and the models at models of their d.

    With order, labels from least to most coherent, each corpus is a pair
    (trajectories, ranks): each record's rank is its label's index in order.
    Corpora are checked in turn, then models, then their d. digest, a
    hashlib hash, is fed the corpora's bytes when given.
    """
    corpora, dims = [], []
    for path in paths:
        records, _ = read_trajectories(path, digest)
        if not records:
            raise ValidationError(f"{path}: corpus contains no records")
        dims.append(records[0].trajectory.d)
        trajs = [r.trajectory for r in records]
        if order is None:
            corpora.append(trajs)
            continue
        for rec in records:
            if rec.label is None:
                raise ValidationError(f"{path}: record {rec.trajectory.id!r} has no label")
        if len(set(order)) != len(order):
            raise ValidationError(f"{path}: label order {order} contains duplicates")
        rank = {label: i for i, label in enumerate(order)}
        for rec in records:
            if rec.label not in rank:
                raise ValidationError(f"{path}: trajectory {rec.trajectory.id!r} has label "
                                      f"{rec.label!r} outside {order}")
        corpora.append((trajs, np.array([rank[r.label] for r in records])))
    loaded = [read_sigma_model(path) for path in models]
    for model_path, model in zip(models, loaded):
        for path, d in zip(paths, dims):
            if d != model.d:
                raise ValidationError(f"dimension mismatch: corpus {path} has d={d}, "
                                      f"model {model_path} has d={model.d}")
    return corpora, loaded


def _log(out):
    """Where a command's own lines go: stdout, or stderr when out is stdout itself."""
    try:
        same = os.path.samestat(os.fstat(1), os.stat(out))
    except OSError:  # stdout closed, or out not written yet
        same = False
    return sys.stderr if same else sys.stdout


def _spec_number(text: str, kind, least, arg: str, spec: str):
    """text, a field of the value spec of option arg, as a finite kind (int or float) >= least."""
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or not least <= value < float("inf"):
        raise ValidationError(f"{arg} {spec!r}: expected "
                              f"{'an integer' if kind is int else 'a finite number'} >= {least}, "
                              f"got {text!r}")
    return value


def _parse_sigma_spec(spec: str, d: int) -> SpdMatrix:
    if spec == "identity":
        return SpdMatrix(np.eye(d))
    if spec.startswith("random-spd:"):
        seed = _spec_number(spec.split(":", 1)[1], int, 0, "--sigma", spec)
        a = np.random.default_rng(seed).standard_normal((d, d))
        return SpdMatrix(a @ a.T / d + 0.5 * np.eye(d))
    model = read_sigma_model(spec)
    if model.d != d:
        raise ValidationError(f"sigma model {spec} has d={model.d}, requested d={d}")
    return model.spatial


def _parse_length_spec(spec: str) -> tuple[int, int]:
    lo, sep, hi = spec.partition(":")
    lo = _spec_number(lo, int, 2, "--T", spec)
    hi = _spec_number(hi, int, lo, "--T", spec) if sep else lo
    return lo, hi


def _parse_endpoint_scale(spec: str) -> float:
    """The scale of random endpoints; 0 for zero endpoints."""
    if spec == "zero":
        return 0.0
    if spec == "random":
        return 1.0
    if not spec.startswith("random:"):
        raise ValidationError(f"--endpoints {spec!r}: expected 'zero' or 'random[:scale]'")
    return _spec_number(spec.split(":", 1)[1], float, 0, "--endpoints", spec)


def cmd_simulate(args) -> int:
    from .evalsuite import stable_seed
    if args.d < 1:
        raise ValidationError(f"--d {args.d}: expected an integer >= 1")
    if args.n < 0:
        raise ValidationError(f"--n {args.n}: expected an integer >= 0")
    t_lo, t_hi = _parse_length_spec(args.T)
    scale = _parse_endpoint_scale(args.endpoints)
    spatial = _parse_sigma_spec(args.sigma, args.d)
    records = []
    for i in range(args.n):
        doc_id = f"{args.domain}-{i:05d}"
        rng = np.random.default_rng(stable_seed(args.seed, doc_id))
        T = int(rng.integers(t_lo, t_hi + 1)) if t_hi > t_lo else t_lo
        if scale > 0.0:
            with np.errstate(over="ignore"):  # checked once, on both endpoints
                s0 = scale * rng.standard_normal(args.d)
                sT = scale * rng.standard_normal(args.d)
            if not (np.isfinite(s0).all() and np.isfinite(sT).all()):
                raise NumericalError(f"trajectory {doc_id!r}: its endpoints overflow float64")
        else:
            s0 = np.zeros(args.d)
            sT = np.zeros(args.d)
        traj = sample_bridge(args.d, T, spatial, s0, sT, rng, id=doc_id, domain=args.domain)
        records.append(TrajectoryRecord(trajectory=traj, label=args.label))
    meta = {
        "seed": args.seed,
        "spec": {"d": args.d, "T": args.T, "n": args.n, "sigma": args.sigma,
                 "endpoints": args.endpoints, "domain": args.domain},
    }
    write_trajectories(args.out, records, meta=meta)
    print(f"simulate: wrote {len(records)} trajectories to {args.out} (seed={args.seed})",
          file=_log(args.out))
    return 0


def cmd_fit(args) -> int:
    digest = hashlib.sha256()
    (trajs,), _ = _inputs([args.input], digest=digest)
    if args.domain is not None:
        trajs = [traj for traj in trajs if traj.domain == args.domain]
        if not trajs:
            raise InsufficientDataError(f"{args.input}: no records in domain {args.domain!r}")
    d = trajs[0].d
    ref = read_sigma_model(args.compare_to) if args.compare_to else None
    if ref is not None and ref.d != d:
        raise ValidationError(f"--compare-to model has d={ref.d}, fitted d={d}")
    m, weight = pooled_covariance(trajs)
    spatial, sigma2 = shrink_covariance(m, weight, args.epsilon)
    write_sigma_model(args.out, spatial, weight=weight, domain=trajs[0].domain,
                      epsilon=args.epsilon, source_corpus_digest=digest.hexdigest())
    log = _log(args.out)
    print(
        f"fit: d={d} weight={weight} logdet={spatial.log_det():.6f} "
        f"trace={float(np.trace(spatial.entries)):.6f} sigma2={sigma2:.6f} "
        f"epsilon={args.epsilon} -> {args.out}", file=log
    )
    if ref is not None:
        err = np.linalg.norm(spatial.entries - ref.spatial.entries)
        rel = err / np.linalg.norm(ref.spatial.entries)
        print(f"fit: relative Frobenius error vs {args.compare_to}: {rel:.6f}", file=log)
    return 0


def cmd_score(args) -> int:
    from .score import heuristic_bbscore, score_statistics
    sha = hashlib.sha256()
    (trajs,), (model,) = _inputs([args.input], [args.model], sha)
    digest = sha.hexdigest()
    if digest == model.source_corpus_digest and not args.allow_in_sample:
        raise ValidationError(
            f"{args.input} is the corpus the model was fitted on; "
            "pass --allow-in-sample to score it anyway (biases bbscore toward 1)"
        )
    # every score, and a NumericalError, before the first byte is written
    statistic, dof = score_statistics(trajs, model.spatial)
    bbscore, p_value = statistic / dof, chi_square_sf(statistic, dof)
    extras = ([{"heuristic_score": heuristic_bbscore(traj)} for traj in trajs]
              if args.with_heuristic else [{}] * len(trajs))
    header = {
        "kind": "scores",
        "model": args.model,
        "model_digest": file_digest(args.model),
        "corpus_digest": digest,
        "in_sample": bool(digest == model.source_corpus_digest),
    }
    if args.with_heuristic:
        header["heuristic"] = "reconstruction"
    write_lines(args.out, header, ({
        "id": traj.id,
        "bbscore": score,
        "statistic": stat,
        "dof": k,
        "p_value": p,
        **extra,
    } for traj, score, stat, k, p, extra in zip(trajs, bbscore.tolist(), statistic.tolist(),
                                                 dof.tolist(), p_value.tolist(), extras)))
    print(f"score: {len(trajs)} documents, mean bbscore {np.mean(bbscore):.4f} -> {args.out}",
          file=_log(args.out))
    return 0


def cmd_shuffle(args) -> int:
    from .evalsuite import make_shuffle_set
    digest = hashlib.sha256()
    (originals,), _ = _inputs([args.input], digest=digest)
    spec = _shuffle_spec(args, args.block_size if args.kind == "global" else args.windows)
    out_records = [TrajectoryRecord(trajectory=copy)
                   for traj in originals for copy in make_shuffle_set(traj, spec)]
    meta = {"seed": args.seed, "kind_of_shuffle": args.kind, "copies": args.copies,
            "source_corpus_digest": digest.hexdigest()}
    write_trajectories(args.out, out_records, meta=meta)
    print(f"shuffle: wrote {len(out_records)} copies of {len(originals)} originals to {args.out} "
          f"(seed={args.seed})", file=_log(args.out))
    return 0


def _shuffle_spec(args, size: int) -> ShuffleSpec:
    """Global blocks of size points, or size local windows of args.window_size."""
    from .evalsuite import ShuffleSpec
    if args.kind == "global":
        return ShuffleSpec("global_block", block_size=size, copies=args.copies, seed=args.seed)
    return ShuffleSpec("local_window", num_windows=size,
                       window_size=args.window_size, copies=args.copies, seed=args.seed)


def cmd_discriminate(args) -> int:
    from .evalsuite import discrimination_accuracies
    option, header, sizes = (("--block-sizes", "block_size", args.block_sizes)
                             if args.kind == "global" else ("--windows", "windows", args.windows))
    if not sizes:
        raise ValidationError(f"{option} names no size")
    (originals,), (model,) = _inputs([args.input], [args.model])
    specs = [_shuffle_spec(args, size) for size in sizes]
    # every size is scored, and a size some document is too short for fails, before any output
    accuracies = discrimination_accuracies(originals, specs, model.spatial,
                                           per_document=args.per_document)
    print(f"discrimination ({args.kind}, copies={args.copies}, seed={args.seed}, "
          f"per_document={args.per_document})")
    print(f"{header:>10}  {'accuracy':>8}")
    for size, acc in zip(sizes, accuracies):
        print(f"{size:>10}  {acc:>8.4f}")
    return 0


def cmd_relative(args) -> int:
    from .evalsuite import relative_accuracy
    labels = args.truth == "labels"
    (set_a, set_b), (model,) = _inputs([args.set_a, args.set_b], [args.model],
                                       order=args.label_order.split(",") if labels else None)
    if labels:
        (set_a, rank_a), (set_b, rank_b) = set_a, set_b
    else:
        rank_a, rank_b = np.ones(len(set_a)), np.zeros(len(set_b))
    acc = relative_accuracy(set_a, set_b, rank_a, rank_b, model.spatial,
                            use_pvalue=args.use_pvalue)
    print(f"relative accuracy: {acc:.4f} over {len(set_a)}x{len(set_b)} cross pairs "
          f"(truth={args.truth}, use_pvalue={args.use_pvalue})")
    return 0


def cmd_classify(args) -> int:
    from .evalsuite import threshold_classify
    order = args.label_order.split(",")
    ((train, train_ranks), (test, test_ranks)), (model,) = _inputs(
        [args.train, args.test], [args.model], order=order)
    use_pvalue = {"auto": None, "score": False, "pvalue": True}[args.axis]
    predicted, rho = threshold_classify(train, train_ranks, test, test_ranks, model.spatial,
                                        use_pvalue=use_pvalue)
    hits = np.count_nonzero(predicted == test_ranks)
    print(f"classify: spearman_rho={rho:.4f} accuracy={hits / len(predicted):.4f} "
          f"n={len(predicted)} axis={args.axis}")
    if args.out:
        write_lines(args.out, {"kind": "predictions", "spearman_rho": rho},
                    ({"id": traj.id, "label": order[truth], "predicted": order[pred]}
                     for traj, truth, pred in zip(test, test_ranks.tolist(), predicted.tolist())))
    return 0


def cmd_compare_domains(args) -> int:
    from .evalsuite import domain_swap_compare
    corpora, models = _inputs([args.corpus_a, args.corpus_b],
                              [p for p in (args.model_a, args.model_b, args.model_ref) if p])
    results = domain_swap_compare(*corpora, *(m.spatial for m in models), pairing=args.pairing)
    print(f"domain comparison (pairing={args.pairing})")
    print(f"{'model':>10}  {'frac A more coherent':>22}")
    for tag in ("sigma_a", "sigma_b", "sigma_ref"):
        if tag in results:
            print(f"{tag:>10}  {results[tag]:>22.4f}")
    return 0


def cmd_train(args) -> int:
    from .encoder import LinearEncoder, TrainerState, train
    if args.d_out is not None and args.d_out < 1:
        raise ValidationError(f"--d-out must be >= 1, got {args.d_out}")
    digest = hashlib.sha256()
    (trajs,), _ = _inputs([args.corpora], digest=digest)
    d_in = trajs[0].d
    corpora = {}
    for traj in trajs:
        corpora.setdefault(traj.domain, []).append(traj)
    if args.init == "identity":
        weights = np.eye(d_in if args.d_out is None else args.d_out, d_in)
    else:
        weights = read_weights(args.init)
        if weights.shape[1] != d_in:
            raise ValidationError(
                f"init weights expect d_in={weights.shape[1]}, corpus has d={d_in}"
            )
        if args.d_out is not None and weights.shape[0] != args.d_out:
            raise ValidationError(f"--d-out {args.d_out} differs from the row count "
                                  f"{weights.shape[0]} of {args.init}")
    state = TrainerState(
        encoder=LinearEncoder(weights=weights),
        epsilon=args.epsilon,
        step_size=args.step_size,
        batch_size=args.batch_size,
        triplet_mode=args.triplet_mode,
        seed=args.seed,
    )
    state, trace = train(state, corpora, args.epochs)
    log = _log(args.out)
    if trace:
        print(f"train: initial nll={trace[0]:.6f}", file=log)
        for epoch, value in enumerate(trace[1:], start=1):
            print(f"train: epoch {epoch}: nll={value:.6f}", file=log)
    write_trainer_state(args.out, state, extra={"epochs": args.epochs, "nll_trace": trace,
                                                "source_corpus_digest": digest.hexdigest()})
    print(f"train: wrote state to {args.out} (seed={args.seed})", file=log)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse's parser, save that a usage error exits 1: 2 is a numerical failure.

    Subparsers are made of this class too.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bridgescore",
        description="Brownian-bridge sequence modeling, covariance fitting, and coherence scoring",
    )
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write simulated bridge trajectories")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--T", required=True, help="length T, fixed ('50') or range ('10:60')")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", default="identity",
                   help="'identity', 'random-spd:<seed>', or a sigma model file")
    p.add_argument("--endpoints", default="zero", help="'zero' or 'random[:scale]'")
    p.add_argument("--domain", default="sim")
    p.add_argument("--label", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit the pooled spatial covariance")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--domain", default=None, help="only fit records in this domain")
    p.add_argument("--epsilon", type=float, default=1e-7)
    p.add_argument("--compare-to", default=None, help="print relative error vs this model")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("score", help="score a corpus against a fitted model")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--allow-in-sample", action="store_true")
    p.add_argument("--with-heuristic", action="store_true",
                   help="also emit the reconstructed heuristic score")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("shuffle", help="write shuffled copies of each document")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--kind", choices=("global", "local"), default="global")
    p.add_argument("--block-size", type=int, default=1)
    p.add_argument("--windows", type=int, default=1)
    p.add_argument("--window-size", type=int, default=3)
    p.add_argument("--copies", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_shuffle)

    p = sub.add_parser("discriminate", help="original-vs-shuffled discrimination accuracy")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--kind", choices=("global", "local"), default="global")
    p.add_argument("--block-sizes", type=_int_list, default=[1, 2, 5, 10])
    p.add_argument("--windows", type=_int_list, default=[1, 2, 3])
    p.add_argument("--window-size", type=int, default=3)
    p.add_argument("--copies", type=int, default=20)
    p.add_argument("--per-document", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_discriminate)

    p = sub.add_parser("relative", help="relative accuracy over cross-set pairs")
    p.add_argument("--set-a", required=True)
    p.add_argument("--set-b", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--truth", choices=("labels", "a-more-coherent"), default="a-more-coherent")
    p.add_argument("--label-order", default="low,middle,high",
                   help="labels from least to most coherent")
    p.add_argument("--use-pvalue", action="store_true")
    p.set_defaults(func=cmd_relative)

    p = sub.add_parser("classify", help="threshold classification with Spearman correlation")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--label-order", default="low,middle,high")
    p.add_argument("--axis", choices=("auto", "score", "pvalue"), default="auto")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("compare-domains", help="score two corpora under swapped domain models")
    p.add_argument("--corpus-a", required=True)
    p.add_argument("--corpus-b", required=True)
    p.add_argument("--model-a", required=True)
    p.add_argument("--model-b", required=True)
    p.add_argument("--model-ref", default=None)
    p.add_argument("--pairing", choices=("cross", "matched"), default="cross")
    p.set_defaults(func=cmd_compare_domains)

    p = sub.add_parser("train", help="train the linear encoder on a multi-domain corpus")
    p.add_argument("--corpora", required=True, help="trajectory file; domains come from records")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--step-size", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--epsilon", type=float, default=1e-7,
                   help="blend of each covariance update toward its isotropic scale; "
                        "0 updates with the raw MLE")
    p.add_argument("--triplet-mode", action="store_true")
    p.add_argument("--d-out", type=int, default=None)
    p.add_argument("--init", default="identity", help="'identity' or a JSON weights file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if sys.stdout is None:  # fd 1 was closed at start-up, and print would drop every line
        print(f"error: stdout: cannot write ({os.strerror(errno.EBADF)})", file=sys.stderr)
        return 1
    try:
        try:
            if getattr(args, "out", None):
                check_writable(args.out)
            return args.func(args)
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except NumericalError as exc:
            print(f"numerical error: {exc}", file=sys.stderr)
            return 2
        finally:
            sys.stdout.flush()
    except BrokenPipeError as exc:  # stdout's reader has gone
        # what stdout still buffers goes to the null device, not to a shutdown warning
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        print(f"error: stdout: cannot write ({exc.strerror})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
