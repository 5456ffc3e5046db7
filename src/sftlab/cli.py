"""Batch experiment runner.

    sftlab list
    sftlab validate config.json
    sftlab run config.json [--out DIR] [--jobs N] [--seed S]

A config is one JSON object: {"seed": int, "experiments": [name | {"name":
..., "params": {...}}, ...]}.  The params are the experiment's keyword
arguments; a bad key or value is refused before anything runs.  Each run
writes a summary with one pass/fail verdict per experiment, per-experiment
CSV tables whose bodies are byte-identical across reruns with the same seed,
and a metadata file that keeps timings, versions and the params that ran
out of the deterministic outputs.
An experiment that raises is recorded as a failed result with its error type
and message; the rest of the batch still runs and the exit code is 1.
"""
from __future__ import annotations

import argparse
import json
import platform
import sys
import time
import zlib
from pathlib import Path

from . import __version__
from .errors import BadParams
from .experiments import (ExperimentResult, catalog, resolve_params,
                          run_experiment)


def _derived_seed(seed: int, name: str) -> int:
    return (seed * 1_000_003 + zlib.crc32(name.encode())) % 2 ** 32


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SystemExit(f"cannot read config {path}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")
    return data


def _normalize(data: dict, path: str) -> tuple[int, list[tuple[str, dict]]]:
    if not isinstance(data, dict):
        raise SystemExit(f"{path}: config must be a JSON object")
    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SystemExit(f"{path}: 'seed' must be an integer")
    raw = data.get("experiments", [])
    if not isinstance(raw, list):
        raise SystemExit(f"{path}: 'experiments' must be a list")
    known = {name for name, _ in catalog()}
    out = []
    first: dict[str, int] = {}  # name: index of its entry
    for i, item in enumerate(raw):
        if isinstance(item, str):
            name, params = item, {}
        elif isinstance(item, dict) and isinstance(item.get("name"), str):
            name = item["name"]
            params = item.get("params", {})
            if not isinstance(params, dict):
                raise SystemExit(
                    f"{path}: experiments[{i}].params must be an object")
        else:
            raise SystemExit(
                f"{path}: experiments[{i}] must be a name or an object "
                f"with a 'name'")
        if name not in known:
            raise SystemExit(
                f"{path}: experiments[{i}]: unknown experiment {name!r} "
                f"(see `sftlab list`)")
        if name in first:
            # the summary keeps one result per name
            raise SystemExit(
                f"{path}: experiments[{i}]: {name!r} is already listed at "
                f"experiments[{first[name]}]")
        first[name] = i
        try:
            out.append((name, resolve_params(name, params)))
        except BadParams as exc:
            raise SystemExit(f"{path}: experiments[{i}]: {exc}")
    return seed, out


def _run_one(name: str, seed: int, params: dict) -> ExperimentResult:
    return run_experiment(name, seed, params)


def _failed(name: str, exc: Exception) -> ExperimentResult:
    """A FAIL result standing in for an experiment that raised."""
    print(f"{name} raised {type(exc).__name__}: {exc}", file=sys.stderr)
    return ExperimentResult(name, False, {"error": type(exc).__name__,
                                          "message": str(exc)})


def cmd_list(_args) -> int:
    for name, target in catalog():
        print(f"{name:24s} {target}")
    return 0


def cmd_validate(args) -> int:
    data = _load_config(args.config)
    seed, experiments = _normalize(data, args.config)
    print(f"config ok: seed={seed}, {len(experiments)} experiment(s)")
    return 0


def cmd_run(args) -> int:
    data = _load_config(args.config)
    seed, experiments = _normalize(data, args.config)
    if args.seed is not None:
        seed = args.seed
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()

    results: dict[str, ExperimentResult] = {}
    # a pool starts all its workers up front: no more than there are jobs
    jobs = max(1, min(args.jobs, len(experiments)))
    if jobs == 1:
        for name, params in experiments:
            try:
                results[name] = _run_one(name, _derived_seed(seed, name),
                                         params)
            except Exception as exc:  # one experiment must not lose the batch
                results[name] = _failed(name, exc)
    else:
        import concurrent.futures  # only a pool needs it
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(_run_one, name, _derived_seed(seed, name), params):
                name for name, params in experiments}
            for fut in concurrent.futures.as_completed(futures):
                name = futures[fut]
                try:
                    results[name] = fut.result()
                except Exception as exc:
                    results[name] = _failed(name, exc)

    summary = {
        "seed": seed,
        "experiments": {},
        "all_passed": True,
    }
    for name, _ in experiments:  # keep config order in the summary
        res = results[name]
        summary["experiments"][name] = res.summary()
        summary["all_passed"] = summary["all_passed"] and res.passed
        exp_dir = out_dir / name
        exp_dir.mkdir(exist_ok=True)
        for fname, lines in res.tables.items():
            (exp_dir / fname).write_text("\n".join(lines) + "\n")
        print(f"[{'PASS' if res.passed else 'FAIL'}] {name}")
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    meta = {
        "sftlab_version": __version__,
        "python": platform.python_version(),
        "wall_time_s": time.time() - started,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "jobs": jobs,
        "params": dict(experiments),
    }
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(f"summary: {out_dir / 'summary.json'}")
    return 0 if summary["all_passed"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sftlab",
        description="desk-scale experiments for the symbolic-dynamics lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="catalog of built-in experiments")
    p_list.set_defaults(fn=cmd_list)

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("config")
    p_val.set_defaults(fn=cmd_validate)

    p_run = sub.add_parser("run", help="run the experiments in a config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="runs/latest",
                       help="output directory (default runs/latest)")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1)")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.set_defaults(fn=cmd_run)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
