"""Print the sha256 of every deterministic output of the built-in configs.

    python3 tools/output_digests.py [--seeds 7 21]

Run it from the repository root.  For each seed it runs ``configs/all.json``,
the config of each benchmark workload (``perfbench/workloads.py``) and
``thm1_5_chaos`` at horizon 5,000,000 (``chaos_5m``, whose members cross many
chunks and four stage ends), ``thm1_1_capacity`` with ``family_sizes``
[16, 18, 20] (``capacity_20``, whose sampling batches span many blocks of
rows) and ``thm1_3_cocycle_family`` at N = 12 with ``tail_len`` 2048
(``cocycle_12``, whose 4,096 members walk many blocks of window ranks) with
``sftlab run`` in a fresh interpreter,
writing into a temporary directory that is removed afterwards.  The output
is one JSON object, sorted by key, that maps ``config/seed/file`` to the
sha256 of ``summary.json`` and of every CSV (``meta.json`` holds timings and
is left out).  Two trees give the same outputs for these seeds exactly when
their printed objects are equal, so comparing them is one ``diff``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, config  # noqa: E402


def _configs(seed: int) -> dict[str, dict]:
    out = {"all": json.loads((ROOT / "configs" / "all.json").read_text())}
    out.update((name, config(name, seed)) for name in WORKLOADS)
    out["chaos_5m"] = {"seed": seed, "experiments": [
        {"name": "thm1_5_chaos", "params": {"horizon": 5_000_000}}]}
    out["capacity_20"] = {"seed": seed, "experiments": [
        {"name": "thm1_1_capacity", "params": {"family_sizes": [16, 18, 20]}}]}
    out["cocycle_12"] = {"seed": seed, "experiments": [
        {"name": "thm1_3_cocycle_family",
         "params": {"N": 12, "tail_len": 2048}}]}
    return out


def _run(cfg: dict, seed: int, work: Path) -> dict[str, str]:
    """The digests of one ``sftlab run`` of cfg at seed, keyed by path."""
    cfg_path, out = work / "config.json", work / "out"
    cfg_path.write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "sftlab.cli", "run", str(cfg_path),
         "--out", str(out), "--seed", str(seed)],
        env=env, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"sftlab run failed at seed {seed}:\n"
                         f"{done.stdout}{done.stderr}")
    files = [out / "summary.json", *sorted(out.glob("*/*.csv"))]
    return {f.relative_to(out).as_posix():
            hashlib.sha256(f.read_bytes()).hexdigest() for f in files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 21])
    args = parser.parse_args(argv)
    digests: dict[str, str] = {}
    for seed in args.seeds:
        for name, cfg in _configs(seed).items():
            with tempfile.TemporaryDirectory() as tmp:
                for path, digest in _run(cfg, seed, Path(tmp)).items():
                    digests[f"{name}/{seed}/{path}"] = digest
    print(json.dumps(digests, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
