"""The benchmark's traced pass at small params: ``perfbench/child.py`` runs
a config with its span tracer installed, and its hooks read sftlab's return
values (lengths of materialized streams and kept families) and call
signatures (``_draw_block``'s positional arguments).  A change to those
that breaks the tracer fails here, not only in the benchmark, and so does
a return of the ``Word`` round trip per drawn block."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CONFIG = {"seed": 7, "experiments": [
    {"name": "thm1_5_chaos", "params": {"horizon": 100_000, "n_xi": 3}},
    {"name": "lemma_ds_tracking", "params": {"stages": 2}},
    {"name": "thm1_1_capacity", "params": {"family_sizes": [8, 10, 12]}},
]}


def _traced_pass(tmp_path, config) -> dict:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    record = tmp_path / "record.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(cfg),
         str(tmp_path / "out"), str(record), "--trace"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    rec = json.loads(record.read_text())
    assert rec["exit_code"] == 0 and rec["errors"] == []
    return rec["trace"]


def test_traced_pass_counts(tmp_path):
    trace = _traced_pass(tmp_path, CONFIG)
    counters, spans = trace["counters"], trace["spans"]
    assert counters["shift.SymbolStream.materialize.symbols"] > 0
    assert counters["measures.typical_separated_family.kept"] > 0
    draws = spans["gluing._draw_block"]["calls"]
    assert draws > 0
    assert counters["gluing._draw_block.accepted"] == draws
    assert 0 < counters["gluing._draw_block.distinct"] <= draws
    assert counters["gluing._draw_block.sample_word_calls"] >= draws
    # blocks stay symbol arrays: far fewer Words than drawn blocks (108
    # against 442 draws here; one Word per block made it 576)
    assert counters["shift.Word.constructed"] < draws


def test_oracle_only_pass_traces_the_solvers(tmp_path):
    # the experiments import ergopt only when they run; the tracer imports
    # every layer itself, so the solvers are wrapped before they are called
    spans = _traced_pass(tmp_path, {"seed": 7, "experiments": [
        {"name": "karp_oracle", "params": {"count": 8}},
        "pressure_identities"]})["spans"]
    assert spans["ergopt.betas"]["calls"] > 0
    assert spans["ergopt.brute_force_betas"]["calls"] > 0
    assert spans["ergopt.pressure"]["calls"] == 12
    assert spans["ergopt.betas"]["self_s"] > 0
