"""sftlab benchmark: time ``sftlab run`` on four workloads, end to end and
layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0
    python3 perfbench/run.py --check-baseline

Run it from the repository root.  Each pass runs one seed-generated
``sftlab run`` config (see ``workloads.py``) in a fresh single-threaded
interpreter, one pass after another (a closed loop with one client), with
BLAS threads capped at the CPU count.  A fresh process per pass is what a CLI
user pays for: every run starts with cold module caches.  Passes repeat while
one more fits in ``--seconds``; at least three run.

Every pass is checked: the process exits 0, ``summary.json`` reports
``all_passed`` for exactly the workload's experiments, every experiment
wrote a CSV, and the sha256 of ``summary.json`` and of every CSV equals that
of the first pass.  The last stdout line is the result,
``{"correct", "attempted", "failed", "metrics"}``, where attempted and
failed count experiment runs; the line before it is the run record (machine,
versions, seed, input sizes, digests), also written under ``.perfbench/``.
The exit code is 1 when a check fails.

``--trace 0`` reports, as medians over passes:
  wall_s       one pass, process start to verified outputs written
  setup_s      process start to sftlab imported and the config validated
               (five setup-only processes plus every pass)
  peak_rss_mb  peak resident memory of a pass's process
  pass_ratio   experiments that passed over experiments attempted

``--trace 1`` alternates untraced passes with traced ones (``tracer.py``) and
reports the per-layer metrics of ``PER_LAYER``: span counts and self times
as medians over traced passes, the work counts (which must repeat exactly
across traced passes), ``trace.overhead_s`` (median traced minus median
untraced wall_s) and ``trace.coverage`` (the share of a traced pass's wall
time that the seven library layers' self times account for).  Traced passes
must give the same digests as untraced ones.

``--check-baseline`` traces seed 7 at default params twice and checks the
work counts of the first recorded baseline: 105,864 ``_draw_block`` calls in
thm1_1_capacity; 941,339 ``connector`` calls and 470,596 leaf yields in
thm1_2_packing_tree.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS as MODULE_LAYER
from workloads import WORKLOADS, config, input_size

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
CHILD = HERE / "child.py"
PASS_TIMEOUT_S = 170
RUN_LIMIT_S = 150  # no pass starts that would likely end a run after this
BLAS_THREADS = os.cpu_count() or 1
SETUP_PROBES = 5
MIN_PASSES = 3  # the median of three drops one slow outlier

LAYERS = tuple(dict.fromkeys(MODULE_LAYER.values()))
LIBRARY_LAYERS = tuple(layer for layer in LAYERS if layer != "cli")

# per-layer metric -> (unit, how to read it from one traced pass).
# What each should move, on which workload (all move wall_s):
#   <layer>.calls/.self_s: the workload where that layer's self time is largest
#   _draw_block, sample_word, empirical, weak_star_dist, emit_separated_family,
#     family_tracking_report, dense_tour, block ratios: capacity_family
#     (also peak_rss_mb); packing_tree and oracle_solvers should not move
#   sample_words_batch, typical_separated_family, family_keep_ratio:
#     capacity_family, packing_tree
#   connector, Word.constructed, leaves.yielded, build_branch_tree,
#     mass_bound_report, prefix_distinct_report: packing_tree (also
#     peak_rss_mb); connector also capacity_family
#   ergopt functions and MarkovMeasure.init: oracle_solvers
#   chaos, emit_chaotic/dc1_family, materialize.symbols, cocycle: long_orbits
PER_LAYER: dict[str, tuple[str, tuple]] = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = ("count", ("layer", _layer, "calls"))
    PER_LAYER[f"{_layer}.self_s"] = ("s", ("layer", _layer, "self_s"))
for _span, _fields in [
        ("gluing._draw_block", ("calls", "self_s")),
        ("measures.sample_word", ("calls", "self_s")),
        ("analysis.empirical", ("calls", "self_s")),
        ("measures.weak_star_dist", ("calls", "self_s")),
        ("gluing.emit_separated_family", ("self_s",)),
        ("gluing.family_tracking_report", ("self_s",)),
        ("gluing.dense_tour", ("self_s",)),
        ("measures.sample_words_batch", ("calls", "self_s")),
        ("measures.typical_separated_family", ("self_s",)),
        ("shift.connector", ("calls", "self_s")),
        ("gluing.build_branch_tree", ("self_s",)),
        ("gluing.mass_bound_report", ("self_s",)),
        ("gluing.prefix_distinct_report", ("self_s",)),
        ("ergopt.beta", ("self_s",)),
        ("ergopt.brute_force_beta", ("self_s",)),
        ("ergopt.classify_smr", ("self_s",)),
        ("ergopt.pressure", ("self_s",)),
        ("ergopt.equilibrium_state", ("self_s",)),
        ("ergopt.level_entropy_detail", ("self_s",)),
        ("measures.MarkovMeasure.init", ("self_s",)),
        ("chaos.orbit_distances", ("calls", "self_s")),
        ("chaos.li_yorke_report", ("self_s",)),
        ("chaos.dc1_report", ("self_s",)),
        ("chaos.phi_n", ("self_s",)),
        ("gluing.emit_chaotic_family", ("self_s",)),
        ("gluing.emit_dc1_family", ("self_s",)),
        ("cocycle.emit_lyapunov_family", ("self_s",)),
        ("cocycle.exponent_along", ("self_s",))]:
    for _field in _fields:
        PER_LAYER[f"{_span}.{_field}"] = (
            "count" if _field == "calls" else "s", ("span", _span, _field))
for _name in ("shift.Word.constructed", "gluing.BranchTree.leaves.yielded",
              "shift.SymbolStream.materialize.symbols"):
    PER_LAYER[_name] = ("count", ("counter", _name))
# ratio -> (numerator counter, denominator counter or span calls)
RATIOS = {
    "gluing.block_unique_ratio": ("gluing._draw_block.distinct",
                                  "gluing._draw_block"),
    "gluing.block_accept_ratio": ("gluing._draw_block.accepted",
                                  "gluing._draw_block.sample_word_calls"),
    "measures.family_keep_ratio": ("measures.typical_separated_family.kept",
                                   "measures.sample_words_batch.rows"),
    "shift.connector.unique_ratio": ("shift.connector.distinct",
                                     "shift.connector"),
}
for _name in RATIOS:
    PER_LAYER[_name] = ("1", ("ratio", _name))
PER_LAYER["trace.overhead_s"] = ("s", ("overhead",))
PER_LAYER["trace.coverage"] = ("1", ("coverage",))

BASELINE = {
    "thm1_1_capacity": {"gluing._draw_block.calls": 105_864},
    "thm1_2_packing_tree": {"shift.connector.calls": 941_339,
                            "gluing.BranchTree.leaves.yielded": 470_596},
}


# --------------------------- one pass ---------------------------


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(cfg: Path, out: Path, flags: list[str]) -> dict:
    """Run child.py once; returns its record plus wall_s and setup_s."""
    rec_path = out.with_suffix(".record.json")
    cmd = [sys.executable, str(CHILD), str(cfg), str(out), str(rec_path), *flags]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
        returncode, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        returncode, stderr = -1, f"pass exceeded {PASS_TIMEOUT_S} s"
    wall = time.monotonic() - t0
    try:
        rec = json.loads(rec_path.read_text())
    except (OSError, json.JSONDecodeError):
        rec = {"errors": [{"experiment": None, "type": "ChildFailed",
                           "message": stderr.strip()[-2000:]}]}
    rec["returncode"] = returncode
    rec["wall_s"] = wall
    if "ready" in rec:
        rec["setup_s"] = rec["ready"] - t0
    return rec


def read_outputs(out: Path) -> tuple[dict, dict]:
    """sha256 of summary.json and of every CSV, and the CSV texts."""
    digests, tables = {}, {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and (path.suffix == ".csv" or path.name == "summary.json"):
            rel = path.relative_to(out).as_posix()
            data = path.read_bytes()
            digests[rel] = hashlib.sha256(data).hexdigest()
            if path.suffix == ".csv":
                tables[rel] = data.decode()
    return digests, tables


def check_pass(rec: dict, out: Path, names: list[str], problems: list[str],
               tag: str) -> tuple[int, dict, dict, dict]:
    """Verify one pass; returns (experiments failed, digests, tables, summary)."""
    digests, tables = read_outputs(out)
    summary = {}
    if (out / "summary.json").is_file():
        summary = json.loads((out / "summary.json").read_text())
    exps = summary.get("experiments", {})
    failed = sum(1 for n in names if not exps.get(n, {}).get("passed", False))
    for err in rec.get("errors", []):
        problems.append(f"{tag}: {err['experiment']} raised "
                        f"{err['type']}: {err['message']}")
    if rec["returncode"] != 0:
        problems.append(f"{tag}: exit code {rec['returncode']}")
    if sorted(exps) != sorted(names):
        problems.append(f"{tag}: summary lists {sorted(exps)}, expected {sorted(names)}")
    elif not summary.get("all_passed"):
        bad = [n for n in names if not exps[n].get("passed")]
        problems.append(f"{tag}: experiments failed: {bad}")
    for n in names:
        if not any(rel.startswith(n + "/") for rel in tables):
            problems.append(f"{tag}: {n} wrote no CSV")
    return failed, digests, tables, summary


# --------------------------- trace reduction ---------------------------


def layer_metrics(trace: dict, wall: float) -> dict:
    spans, counters = trace["spans"], trace["counters"]
    per_layer = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for name, row in spans.items():
        agg = per_layer[MODULE_LAYER[name.split(".")[0]]]
        agg["calls"] += row["calls"]
        agg["self_s"] += row["self_s"]
    out = {}
    for metric, (_unit, src) in PER_LAYER.items():
        kind = src[0]
        if kind == "layer":
            out[metric] = per_layer[src[1]][src[2]]
        elif kind == "span":
            out[metric] = spans.get(src[1], {}).get(src[2], 0)
        elif kind == "counter":
            out[metric] = counters.get(src[1], 0)
        elif kind == "ratio":
            num, den = RATIOS[metric]
            num_v = counters.get(num, 0)
            den_v = counters.get(den, spans.get(den, {}).get("calls", 0))
            out[metric] = num_v / den_v if den_v else 0.0
    out["trace.coverage"] = sum(
        per_layer[layer]["self_s"] for layer in LIBRARY_LAYERS) / wall
    return out


# --------------------------- one workload ---------------------------


def machine_record() -> dict:
    info = {"nproc": os.cpu_count(), "blas_threads_cap": BLAS_THREADS}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        info["cpu_model"] = None
    info["l2_cache"] = info["l3_cache"] = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            info[f"l{level}_cache"] = size
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        info["git_commit"] = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        info["git_commit"] = None
    return info


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 work: Path) -> tuple[dict, dict]:
    names = [name for name, _ in WORKLOADS[workload]]
    work.mkdir(parents=True, exist_ok=True)
    cfg = work / "config.json"
    cfg.write_text(json.dumps(config(workload, seed)))
    problems: list[str] = []

    setups = []
    if not trace:
        for i in range(SETUP_PROBES):
            rec = run_child(cfg, work / f"setup{i}", ["--setup-only"])
            if rec["returncode"] != 0 or "setup_s" not in rec:
                problems.append(f"setup probe {i}: exit code {rec['returncode']}")
            else:
                setups.append(rec["setup_s"])

    passes: list[dict] = []
    first = None
    attempted = failed = 0
    start = time.monotonic()
    while True:
        i = len(passes)
        traced = trace and i % 3 != 0
        out = work / f"pass{i}"
        rec = run_child(cfg, out, ["--trace"] if traced else [])
        tag = f"pass {i}{' (traced)' if traced else ''}"
        n_failed, digests, tables, summary = check_pass(rec, out, names,
                                                        problems, tag)
        attempted += len(names)
        failed += n_failed
        if first is None:
            first = {"digests": digests, "tables": tables, "summary": summary}
        elif digests != first["digests"]:
            changed = sorted(k for k in set(digests) | set(first["digests"])
                             if digests.get(k) != first["digests"].get(k))
            problems.append(f"{tag}: outputs differ from pass 0: {changed}")
        shutil.rmtree(out, ignore_errors=True)
        rec["traced"] = traced
        passes.append(rec)
        if problems and not passes[0].get("ready"):
            break  # the program cannot even start; more passes add nothing
        n_traced = sum(p["traced"] for p in passes)
        enough = (n_traced >= 2 and len(passes) - n_traced >= 1) if trace \
            else len(passes) >= MIN_PASSES
        # start no pass that would likely end after the measuring time
        typical = statistics.median(p["wall_s"] for p in passes)
        ends_at = time.monotonic() - start + typical
        if (enough and ends_at > seconds) or ends_at > RUN_LIMIT_S:
            break

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    setups += [p["setup_s"] for p in plain if "setup_s" in p]
    metrics: dict[str, dict] = {}
    if not trace:
        values = {
            "wall_s": (statistics.median(p["wall_s"] for p in plain), "s"),
            "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
            "peak_rss_mb": (statistics.median(
                p.get("peak_rss_kib", 0) for p in plain) / 1024.0, "MiB"),
            "pass_ratio": ((attempted - failed) / attempted, "1"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    else:
        per_pass = [layer_metrics(p["trace"], p["wall_s"])
                    for p in traced_passes if "trace" in p]
        if len(per_pass) < 2:
            problems.append("fewer than two traced passes produced a trace")
        for metric, (unit, src) in PER_LAYER.items():
            if src[0] == "overhead":
                value = (statistics.median(p["wall_s"] for p in traced_passes)
                         - statistics.median(p["wall_s"] for p in plain))
            elif not per_pass:
                value = 0.0
            elif unit == "count" or src[0] == "ratio":
                seen = {pp[metric] for pp in per_pass}
                if len(seen) != 1:
                    problems.append(f"{metric} differs between traced passes: "
                                    f"{sorted(seen)}")
                value = per_pass[0][metric]
            else:
                value = statistics.median(pp[metric] for pp in per_pass)
            metrics[metric] = {"value": value, "unit": unit}

    record = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "experiments": dict(WORKLOADS[workload]),
        "machine": machine_record(),
        "python": passes[0].get("python"), "numpy": passes[0].get("numpy"),
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"],
                    "setup_s": p.get("setup_s"),
                    "peak_rss_kib": p.get("peak_rss_kib")} for p in passes],
        "setup_s_samples": setups,
        "digests": first["digests"],
        "problems": problems,
    }
    try:
        record["input_size"] = input_size(workload, first["summary"],
                                          first["tables"])
    except (KeyError, IndexError, ValueError) as exc:
        record["input_size"] = None
        problems.append(f"input size unreadable: {type(exc).__name__}: {exc}")
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, record


# --------------------------- baseline counts ---------------------------


def check_baseline(work: Path) -> int:
    """Seed 7, default params, two traced passes per experiment: the counts
    must equal the recorded baseline and repeat exactly."""
    ok = True
    report = {}
    work.mkdir(parents=True, exist_ok=True)
    for name, expected in BASELINE.items():
        cfg = work / f"{name}.json"
        cfg.write_text(json.dumps({"seed": 7, "experiments": [name]}))
        seen = []
        for i in range(2):
            out = work / f"{name}-{i}"
            rec = run_child(cfg, out, ["--trace"])
            shutil.rmtree(out, ignore_errors=True)
            if rec["returncode"] != 0 or "trace" not in rec:
                print(f"{name}: traced pass {i} failed: {rec.get('errors')}",
                      file=sys.stderr)
                return 1
            m = layer_metrics(rec["trace"], rec["wall_s"])
            seen.append({k: m[k] for k in expected})
        same = seen[0] == seen[1]
        match = seen[0] == expected
        ok = ok and same and match
        report[name] = {"expected": expected, "counts": seen,
                        "repeat_exactly": same, "match_baseline": match}
    print(json.dumps({"baseline_ok": ok, "report": report}))
    return 0 if ok else 1


# --------------------------- entry point ---------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-baseline", action="store_true")
    args = parser.parse_args(argv)
    if not args.check_baseline and args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all" and args.trace:
        parser.error("--workload all runs untraced only")

    if not (ROOT / "src" / "sftlab" / "__init__.py").is_file():
        print(f"no sftlab sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    work = WORK / f"run-{os.getpid()}"
    try:
        if args.check_baseline:
            return check_baseline(work)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = []
        for name in names:  # a failing workload does not stop the others
            result, record = run_workload(name, args.seed, args.seconds,
                                          bool(args.trace), work / name)
            records = WORK / "records"
            records.mkdir(parents=True, exist_ok=True)
            (records / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps({"record": record, "result": result}, indent=1) + "\n")
            for problem in record["problems"]:
                print(f"{name}: {problem}", file=sys.stderr)
            print(json.dumps({"record": record}))
            results.append(result)
        if len(results) > 1:
            print(json.dumps({"workloads": dict(zip(names, results))}))
            results = [combine(results)]
        print(json.dumps(results[0]))
        return 0 if results[0]["correct"] else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def combine(results: list[dict]) -> dict:
    """All workloads as one result: summed wall_s is the end-to-end time of
    the ten experiments; setup_s is the median, peak_rss_mb the maximum."""
    def values(key):
        return [r["metrics"][key]["value"] for r in results if key in r["metrics"]]

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    if all("wall_s" in r["metrics"] for r in results):
        metrics = {
            "wall_s": {"value": sum(values("wall_s")), "unit": "s"},
            "setup_s": {"value": statistics.median(values("setup_s")), "unit": "s"},
            "peak_rss_mb": {"value": max(values("peak_rss_mb")), "unit": "MiB"},
            "pass_ratio": {"value": (attempted - failed) / attempted, "unit": "1"},
        }
    return {"correct": all(r["correct"] for r in results),
            "attempted": attempted, "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
