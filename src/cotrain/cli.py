"""Command-line entry points.

Subcommands: ``train``, ``eval``, ``gradcheck``, ``ablate``,
``inspect-projections``, ``dump-dataset``.  Exit codes: 0 success, 1 usage or
configuration problems, 2 verification failure (gradient checks over
threshold), 3 numeric failure (non-finite loss or gradient norm during training).

Each command resolves and checks its whole config, and builds every state it
will train, before it writes anything, so a refused command exits 1 and
leaves no run directory.  The run itself (steps, evaluations, checkpoints) is
:func:`cotrain.trainer.run`, and ``ablate``'s runs go through
:func:`cotrain.trainer.run_matrix`, one forked process per CPU; ``train`` and
``ablate`` add the argument handling and the report.  ``eval`` and
``inspect-projections`` take the config of the checkpoint's run: ``--config``
if given, else the ``resolved_config.cfg`` the run wrote beside it, else the
defaults; then ``--set`` and ``--seed``.

Run directories are append-only: a second run aimed at a non-empty directory
is refused unless ``--force`` is given, which clears it first.
"""
from __future__ import annotations

import argparse
import csv
import json
import shutil
import sys
import time
from pathlib import Path
from typing import Optional

from .config import RunConfig, write_resolved
from .errors import ConfigError, FormatError, NumericError, ShapeError
from .libc import mallopt
from .losses import alias_agreement, top_projection_pairs
from .tensor_io import save_arrays
from .trainer import MODES, EvalResult, TrainState, evaluate, load_checkpoint, run, run_matrix
from .verify import run_all

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_NUMERIC = 3

REPORT_HEADER = ("mode", "dataset", "top1", "top5", "steps", "seed")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cotrain", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file; defaults apply when omitted")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override one config value (repeatable)",
        )
        p.add_argument("--seed", type=int, help="shorthand for --set train.seed=N")
        p.add_argument("--out", default=None, help="run directory")
        p.add_argument("--force", action="store_true", help="clear an existing run directory")

    p_train = sub.add_parser("train", help="train one model and write metrics, checkpoints, report")
    common(p_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True, help="path to a .mttn checkpoint")

    p_grad = sub.add_parser("gradcheck", help="run the finite-difference verification table")
    p_grad.add_argument("--threshold-scale", type=float, default=1.0,
                        help="multiply every tolerance (diagnostics only)")

    p_abl = sub.add_parser("ablate", help="run every mode over shared seeds and tabulate accuracy")
    common(p_abl)
    p_abl.add_argument("--seeds", default="1,2,3", help="comma-separated training seeds")

    p_insp = sub.add_parser("inspect-projections", help="print the strongest cross-dataset projection pairs")
    common(p_insp)
    p_insp.add_argument("--checkpoint", required=True)
    p_insp.add_argument("--pair", default=None, metavar="I:K",
                        help="source:target dataset ids (default: all ordered pairs)")
    p_insp.add_argument("--top", type=int, default=None, help="pairs per matrix (default report.top_pairs)")

    p_dump = sub.add_parser("dump-dataset", help="write suite clips and a JSON index")
    common(p_dump)
    p_dump.add_argument("--split", choices=("train", "test"), default="train")
    p_dump.add_argument("--limit", type=int, default=0, help="clips per dataset (0 = whole split)")

    return parser


def _load_config(args, path: Optional[str] = None) -> RunConfig:
    """``path`` (default ``--config``), then ``--set`` and ``--seed``."""
    overrides = list(args.overrides)
    if getattr(args, "seed", None) is not None:
        overrides.append(f"train.seed={args.seed}")
    return RunConfig.load(path or args.config, overrides)


def _checkpoint_config(args) -> RunConfig:
    """``--config``, else the ``resolved_config.cfg`` beside ``--checkpoint``, else the defaults; then the overrides."""
    sibling = Path(args.checkpoint).parent / "resolved_config.cfg"
    if args.config is None and sibling.exists():
        return _load_config(args, str(sibling))
    return _load_config(args)


def _prepare_out(args, default_name: str) -> Path:
    out = Path(args.out) if args.out else Path("runs") / default_name
    if out.exists() and any(out.iterdir()):
        if not args.force:
            raise ConfigError(
                f"run directory {out} is not empty; pass --force to clear it"
            )
        shutil.rmtree(out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _pct(x: float) -> str:
    return f"{100.0 * x:.4f}"


def _write_report(path: Path, rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_HEADER)
        writer.writerows(rows)


def _report_rows(state: TrainState, results: dict[int, EvalResult]) -> list[tuple]:
    """One ``REPORT_HEADER`` row per dataset of a finished run."""
    return [
        (
            state.config.mode,
            spec.name,
            _pct(results[spec.id].top1),
            _pct(results[spec.id].top5),
            state.config.steps,
            state.config.seed,
        )
        for spec in state.suite.specs
    ]


def _load_checkpoint(state: TrainState, path) -> None:
    """Load for a command: a missing, truncated or mismatched checkpoint is a usage error."""
    try:
        load_checkpoint(state, path)
    except OSError as err:
        raise ConfigError(f"{err.filename or path}: {err.strerror or err}") from None
    except (ConfigError, FormatError, ShapeError, json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ConfigError(f"{path}: {err}") from None


def cmd_train(args) -> int:
    cfg = _load_config(args)
    settings = cfg.run_settings()
    state = cfg.train_state()
    out = _prepare_out(args, "train")
    write_resolved(cfg, out)
    rows = _report_rows(state, run(state, out, **settings))
    _write_report(out / "report.csv", rows)
    for row in rows:
        print(f"{row[0]:>24}  {row[1]:<8} top1={row[2]:>8}  top5={row[3]:>8}")
    print(f"run complete: {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _checkpoint_config(args)
    eval_batch = cfg.run_settings()["eval_batch"]
    state = cfg.train_state()
    _load_checkpoint(state, args.checkpoint)
    results = evaluate(state.model, state.suite, batch_size=eval_batch)
    for spec in state.suite.specs:
        r = results[spec.id]
        print(f"{spec.name:<8} top1={_pct(r.top1):>8}  top5={_pct(r.top5):>8}  n={r.count}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    start = time.time()
    checks = run_all()
    width = max(len(c.name) for c in checks)
    failures = 0
    for c in checks:
        tol = c.threshold * args.threshold_scale
        ok = c.error < tol
        failures += 0 if ok else 1
        print(f"{c.name:<{width}}  max_rel_err={c.error:.3e}  tol={tol:.1e}  {'ok' if ok else 'FAIL'}")
    elapsed = time.time() - start
    print(f"{len(checks)} checks, {failures} failures, {elapsed:.1f}s")
    return EXIT_OK if failures == 0 else EXIT_VERIFICATION


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers, got '{text}'") from None
    if not seeds:
        raise ConfigError("--seeds must name at least one seed")
    # A repeated seed would train the same runs twice into one directory.
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise ConfigError(f"--seeds names seed {','.join(map(str, repeated))} more than once")
    return seeds


def cmd_ablate(args) -> int:
    seeds = _parse_seeds(str(args.seeds))
    cfg = _load_config(args)
    settings = cfg.run_settings()
    suite = cfg.suite()
    # Every run's state is built before the run directory is made, so a setting
    # no mode can train with is refused before anything is written or trained.
    # Each run's config sets its mode and seed; its checkpoints carry its hash.
    run_cfgs = [cfg.for_run(m, s) for m in MODES for s in seeds]
    states = [run_cfg.train_state(suite) for run_cfg in run_cfgs]
    out = _prepare_out(args, "ablate")
    write_resolved(cfg, out)
    runs = [(state, out / f"{state.config.mode}_seed{state.config.seed}") for state in states]
    for run_cfg, (_, run_dir) in zip(run_cfgs, runs):
        run_dir.mkdir()
        write_resolved(run_cfg, run_dir)
    acc: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for (state, run_dir), results in zip(runs, run_matrix(runs, **settings)):
        mode, seed = state.config.mode, state.config.seed
        for spec in suite.specs:
            acc.setdefault((mode, spec.name), []).append((results[spec.id].top1, results[spec.id].top5))
        _write_report(run_dir / "report.csv", _report_rows(state, results))
        print(f"done: {mode} seed={seed}")
    seed_tag = ";".join(str(s) for s in seeds)
    steps = cfg.get("train", "steps")
    rows = []
    for mode in MODES:
        for spec in suite.specs:
            pairs = acc[(mode, spec.name)]
            top1 = sum(p[0] for p in pairs) / len(pairs)
            top5 = sum(p[1] for p in pairs) / len(pairs)
            rows.append((mode, spec.name, _pct(top1), _pct(top5), steps, seed_tag))
    _write_report(out / "ablate.csv", rows)
    for row in rows:
        print(f"{row[0]:>28}  {row[1]:<8} top1={row[2]:>8}  top5={row[3]:>8}")
    return EXIT_OK


def cmd_inspect_projections(args) -> int:
    cfg = _checkpoint_config(args)
    state = cfg.train_state()
    suite = state.suite
    if state.model.projections is None:
        raise ConfigError("this mode trains no projection bank; nothing to inspect")
    bank = state.model.projections

    if args.pair is not None:
        try:
            i, k = (int(part) for part in args.pair.split(":"))
        except ValueError:
            raise ConfigError(f"--pair must be I:K dataset ids, got '{args.pair}'") from None
        if (i, k) not in bank.pairs():
            raise ConfigError(
                f"--pair {args.pair}: needs two different dataset ids in 0..{len(suite.specs) - 1}"
            )
        pairs_to_show = [(i, k)]
    else:
        pairs_to_show = bank.pairs()
    _load_checkpoint(state, args.checkpoint)

    top = args.top if args.top is not None else cfg.get("report", "top_pairs")
    for i, k in pairs_to_show:
        spec_i, spec_k = suite.specs[i], suite.specs[k]
        cap = spec_i.num_classes * spec_k.num_classes
        n = top
        if n > cap:
            print(f"note: clamping --top {n} to {cap} for pair {i}->{k}")
            n = cap
        rows = top_projection_pairs(bank, i, k, n, spec_i.class_names, spec_k.class_names)
        print(f"projection {spec_i.name} ({i}) -> {spec_k.name} ({k})")
        for src, dst, weight in rows:
            print(f"  {src:<12} -> {dst:<12}  {weight:+.4f}")
    agree_hits, agree_total = alias_agreement(bank, suite.alias_map, pairs_to_show)
    if agree_total:
        rate = agree_hits / agree_total
        print(f"alias agreement: {agree_hits}/{agree_total} = {rate:.3f}")
    return EXIT_OK


def cmd_dump_dataset(args) -> int:
    if args.limit < 0:
        raise ConfigError(f"--limit must be 0 (whole split) or a positive count, got {args.limit}")
    cfg = _load_config(args)
    suite = cfg.suite()
    out = _prepare_out(args, "dump")
    write_resolved(cfg, out)
    arrays = {}
    index = []
    for spec in suite.specs:
        ids = suite.split_ids(spec.id, args.split)
        if args.limit:
            ids = ids[: args.limit]
        for sid in ids:
            sid = int(sid)
            key = f"{spec.name}/{args.split}/{sid:05d}"
            arrays[key] = suite.clip(spec.id, sid)
            index.append(
                {
                    "key": key,
                    "dataset": spec.name,
                    "dataset_id": spec.id,
                    "sample_id": sid,
                    "label": suite.label_of(spec.id, sid),
                    "class": spec.class_names[suite.label_of(spec.id, sid)],
                }
            )
    save_arrays(out / "clips.mttn", arrays)
    (out / "index.json").write_text(json.dumps(index, indent=2) + "\n")
    print(f"wrote {len(index)} clips to {out}")
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "ablate": cmd_ablate,
    "inspect-projections": cmd_inspect_projections,
    "dump-dataset": cmd_dump_dataset,
}


# glibc's mallopt parameters (malloc.h) and the values the CLI pins.
_MALLOPT = (("M_MMAP_THRESHOLD", -3, 1 << 30), ("M_TRIM_THRESHOLD", -1, -1))


def _pin_malloc() -> None:
    """Serve large arrays from a heap glibc never trims, as ``perfbench/run.py`` does.

    Under glibc's default, adaptive thresholds numpy's temporaries of 128 KiB
    and up can be mapped and faulted in afresh on every call: one
    ``adamw_update`` over a 270k-element arena took 2.9 ms that way against
    1.4 ms pinned.  ``mallopt`` takes an int, so the trim threshold is -1
    ("never trim", per mallopt(3)) where the benchmark's environment gives
    4 GiB.  Other C libraries are left alone.
    """
    mallopt(_MALLOPT)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _pin_malloc()
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
