import concurrent.futures
import json
import subprocess
import sys
from pathlib import Path

import pytest

from sftlab import experiments
from sftlab.cli import main
from sftlab.experiments import catalog, run_experiment


class TestCatalog:
    def test_builtins_present(self):
        names = {name for name, _ in catalog()}
        assert "thm1_1_capacity" in names
        assert "thm1_2_packing_tree" in names
        assert "thm1_5_chaos" in names
        assert names == {
            "thm1_1_capacity", "thm1_2_packing_tree", "prop3_1_family",
            "lemma_ds_tracking", "thm1_3_cocycle_family",
            "thm1_4_levels_and_smr", "thm1_5_chaos", "thm1_6_equilibrium",
            "karp_oracle", "pressure_identities"}

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("nonsense", 0)


def _command_line(command, cfg, out):
    """validate cfg, or run it into out."""
    return [command, str(cfg)] + (["--out", str(out)] if command == "run"
                                  else [])


class TestCliCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "thm1_5_chaos" in out

    def test_validate_good_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 3,
            "experiments": ["pressure_identities",
                            {"name": "karp_oracle", "params": {"count": 5}}],
        }))
        assert main(["validate", str(cfg)]) == 0

    def test_validate_bad_json_reports_line(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{\n  "seed": 1,\n  "experiments": [,]\n}\n')
        with pytest.raises(SystemExit) as exc:
            main(["validate", str(cfg)])
        assert ":3:" in str(exc.value)  # the offending line number

    def test_validate_unknown_name(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"experiments": ["nope"]}))
        with pytest.raises(SystemExit) as exc:
            main(["validate", str(cfg)])
        assert "nope" in str(exc.value)

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_an_experiment_listed_twice_is_refused(self, tmp_path, command):
        # the summary keeps one result per name: the second run would
        # overwrite the first, under --jobs by completion order
        cfg = tmp_path / "twice.json"
        cfg.write_text(json.dumps({"experiments": [
            {"name": "karp_oracle", "params": {"count": 4}},
            "pressure_identities",
            {"name": "karp_oracle", "params": {"count": 5}}]}))
        with pytest.raises(SystemExit, match=r"experiments\[2\]: "
                           r"'karp_oracle' is already listed at "
                           r"experiments\[0\]"):
            main(_command_line(command, cfg, tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_a_bool_seed_is_refused(self, tmp_path, command):
        cfg = tmp_path / "bool.json"
        cfg.write_text(json.dumps({"seed": True, "experiments": []}))
        with pytest.raises(SystemExit, match="'seed' must be an integer"):
            main(_command_line(command, cfg, tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_a_name_that_is_not_a_string_is_refused(self, tmp_path, command):
        # a list name used to reach the catalog lookup: TypeError, unhashable
        cfg = tmp_path / "listname.json"
        cfg.write_text(json.dumps({"experiments": [
            {"name": ["karp_oracle"]}]}))
        with pytest.raises(SystemExit, match=r"experiments\[0\] must be a "
                           r"name or an object with a 'name'"):
            main(_command_line(command, cfg, tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_empty_run_exits_zero(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 0, "experiments": []}))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["experiments"] == {}
        assert summary["all_passed"] is True
        assert (out / "meta.json").exists()

    def test_run_writes_tables_and_summary(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 11,
            "experiments": [{"name": "karp_oracle", "params": {"count": 10}}],
        }))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["experiments"]["karp_oracle"]["passed"] is True
        table = (out / "karp_oracle" / "oracle.csv").read_text()
        assert table.splitlines()[0] == "trial,m,r,karp,oracle,equal"
        assert len(table.splitlines()) == 11

    def test_seed_override_changes_tables(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 11,
            "experiments": [{"name": "karp_oracle", "params": {"count": 10}}],
        }))
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["run", str(cfg), "--out", str(a)])
        main(["run", str(cfg), "--out", str(b)])
        main(["run", str(cfg), "--out", str(c), "--seed", "999"])
        ta = (a / "karp_oracle" / "oracle.csv").read_bytes()
        tb = (b / "karp_oracle" / "oracle.csv").read_bytes()
        tc = (c / "karp_oracle" / "oracle.csv").read_bytes()
        assert ta == tb
        assert ta != tc

    def test_parallel_jobs_match_serial(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 5,
            "experiments": [
                {"name": "karp_oracle", "params": {"count": 8}},
                "pressure_identities",
            ],
        }))
        serial, parallel = tmp_path / "s", tmp_path / "p"
        main(["run", str(cfg), "--out", str(serial)])
        main(["run", str(cfg), "--out", str(parallel), "--jobs", "2"])
        for rel in ("karp_oracle/oracle.csv", "pressure_identities/pressure.csv"):
            assert (serial / rel).read_bytes() == (parallel / rel).read_bytes()
        assert (json.loads((serial / "summary.json").read_text())
                == json.loads((parallel / "summary.json").read_text()))

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_raising_experiment_keeps_batch(self, tmp_path, monkeypatch, jobs):
        def boom(seed):
            raise RuntimeError("injected failure")

        _, target = experiments.REGISTRY["pressure_identities"]
        monkeypatch.setitem(experiments.REGISTRY, "pressure_identities",
                            (boom, target))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 5,
            "experiments": ["pressure_identities",
                            {"name": "karp_oracle", "params": {"count": 8}}],
        }))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--jobs", jobs]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["all_passed"] is False
        assert summary["experiments"]["pressure_identities"] == {
            "passed": False, "error": "RuntimeError",
            "message": "injected failure"}
        assert summary["experiments"]["karp_oracle"]["passed"] is True
        assert (out / "karp_oracle" / "oracle.csv").exists()
        assert (out / "meta.json").exists()

    @pytest.mark.parametrize("jobs, workers", [("100000", 2), ("2", 2),
                                               ("0", None), ("1", None)])
    def test_workers_capped_at_the_experiment_count(
            self, tmp_path, monkeypatch, jobs, workers):
        # a fork pool starts all its workers up front, so --jobs past the
        # experiment count would only start idle processes
        started = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        # cli imports the pool module only when it starts a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            Recording)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 5,
            "experiments": [{"name": "karp_oracle", "params": {"count": 4}},
                            "pressure_identities"],
        }))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--jobs", jobs]) == 0
        assert started == ([] if workers is None else [workers])
        meta = json.loads((out / "meta.json").read_text())
        assert meta["jobs"] == (workers or 1)


# Runs the CLI in a fresh interpreter and prints, after each command, the
# sftlab layers and the pool module that are loaded.
_LOAD_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from sftlab.cli import main

def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith("sftlab.") or m == "concurrent.futures")

points = {}
for name, argv in (("list", ["list"]), ("validate", ["validate", sys.argv[2]]),
                   ("run", ["run", sys.argv[2], "--out", sys.argv[3]])):
    assert main(argv) == 0
    points[name] = loaded()
print(json.dumps(points))
"""


def _load_points(tmp_path, experiments):
    """The loaded modules after list, validate and run of a config of the
    experiments, in one fresh interpreter."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "experiments": experiments}))
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", _LOAD_PROBE, str(src), str(cfg),
         str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_RUNNER = ["sftlab.cli", "sftlab.errors", "sftlab.experiments",
           "sftlab.measures", "sftlab.shift"]


def test_a_run_loads_only_the_layers_its_experiments_call(tmp_path):
    # start-up compiles every module a process loads, so a layer imported
    # at module level again would cost every pass that never calls it
    points = _load_points(tmp_path, [
        {"name": "karp_oracle", "params": {"count": 4}},
        "pressure_identities"])
    assert points["list"] == points["validate"] == _RUNNER
    assert points["run"] == sorted(_RUNNER + ["sftlab.ergopt"])


@pytest.mark.parametrize("experiments, layers", [
    ([{"name": "thm1_2_packing_tree", "params": {"depth": 2}}], ["gluing"]),
    ([{"name": "thm1_1_capacity", "params": {"family_sizes": [8, 10, 12]}},
      {"name": "prop3_1_family", "params": {"n": 10, "delta": 0.2}}],
     ["analysis", "gluing"]),
    ([{"name": "thm1_3_cocycle_family", "params": {"N": 4, "tail_len": 64}},
      {"name": "thm1_5_chaos", "params": {"n_xi": 3}},
      {"name": "lemma_ds_tracking", "params": {"stages": 2}}],
     ["analysis", "chaos", "cocycle", "gluing"]),
    ([{"name": "thm1_3_cocycle_family", "params": {"N": 4, "tail_len": 64}}],
     ["analysis", "cocycle"]),
], ids=["packing_tree", "capacity_family", "long_orbits", "cocycle_family"])
def test_the_constructions_never_load_the_solvers(tmp_path, experiments,
                                                  layers):
    # words, measures and gluing build the saturated-set, cocycle and chaos
    # constructions; only the optimal-orbit and equilibrium experiments
    # need ergopt
    points = _load_points(tmp_path, experiments)
    assert points["list"] == points["validate"] == _RUNNER
    assert points["run"] == sorted(_RUNNER + [f"sftlab.{m}" for m in layers])
