"""Experiment params are the experiments' keyword arguments: one check,
``experiments.resolve_params``, refuses an unknown key or a mistyped value in
``run_experiment``, ``sftlab validate`` and ``sftlab run`` alike, before
anything runs, and ``meta.json`` records the params each experiment ran
with."""
import functools
import json
import math
import sys
from pathlib import Path

import pytest

from sftlab import experiments, measures
from sftlab.cli import _normalize, main
from sftlab.errors import BadParams, InfeasibleParams
from sftlab.experiments import catalog, resolve_params, run_experiment

ROOT = Path(__file__).resolve().parent.parent

# the params every run of an experiment listed by name has used, pinned so
# that a config without params keeps its outputs
INLINE_DEFAULTS = {
    "thm1_1_capacity": {"eta": 0.12, "family_sizes": (12, 16, 20),
                        "anchor": "0"},
    "thm1_2_packing_tree": {"depth": 3, "stage_len": 12},
    "prop3_1_family": {"n": 18, "eta": 0.3, "delta": 0.05},
    "lemma_ds_tracking": {"stages": 3},
    "thm1_3_cocycle_family": {"N": 8, "tail_len": 512},
    "thm1_4_levels_and_smr": {},
    "thm1_5_chaos": {"horizon": 100_000, "n_xi": 8},
    "thm1_6_equilibrium": {"count": 50},
    "karp_oracle": {"count": 100},
    "pressure_identities": {},
}

# a misspelled key, which a run would drop, and four mistyped values, which
# a run would carry to a raw TypeError or into summary.json
PROBED = [
    ("thm1_2_packing_tree", {"dpeth": 9},
     "thm1_2_packing_tree: no param 'dpeth'; the closest is 'depth'"),
    ("karp_oracle", {"count": True},
     "karp_oracle: param 'count' must be an int like its default 100, got"
     " True"),
    ("thm1_5_chaos", {"horizon": "big"},
     "thm1_5_chaos: param 'horizon' must be an int like its default 100000,"
     " got 'big'"),
    ("prop3_1_family", {"n": 12.5},
     "prop3_1_family: param 'n' must be an int like its default 18, got"
     " 12.5"),
    ("prop3_1_family", {"eta": math.nan},
     "prop3_1_family: param 'eta' must be a finite number like its default"
     " 0.3, got nan"),
]
PROBE_IDS = ["misspelled", "bool_count", "str_horizon", "float_n", "nan_eta"]


def test_signature_defaults_are_the_inline_ones():
    assert {name: resolve_params(name) for name, _ in catalog()} == \
        INLINE_DEFAULTS


def _workload_configs():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return [workloads.config(w, 7) for w in workloads.WORKLOADS]


def test_the_built_in_configs_validate():
    path = ROOT / "configs" / "all.json"
    seed, listed = _normalize(json.loads(path.read_text()), str(path))
    assert seed == 7 and dict(listed) == INLINE_DEFAULTS
    for cfg in _workload_configs():
        _, listed = _normalize(cfg, "workload")
        for (name, params), item in zip(listed, cfg["experiments"]):
            assert params == {**INLINE_DEFAULTS[name], **item["params"]}


@pytest.mark.parametrize("name, params, message", PROBED, ids=PROBE_IDS)
def test_probed_configs_raise_bad_params(name, params, message, monkeypatch):
    fn, target = experiments.REGISTRY[name]

    @functools.wraps(fn)  # the signature the check reads stays fn's
    def ran(*_, **__):
        raise AssertionError("the experiment ran")

    monkeypatch.setitem(experiments.REGISTRY, name, (ran, target))
    with pytest.raises(BadParams) as exc:
        run_experiment(name, 7, params)
    assert str(exc.value) == message


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("name, params, message", PROBED, ids=PROBE_IDS)
def test_probed_configs_exit_before_any_output(tmp_path, command, name,
                                               params, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": [
        "pressure_identities", {"name": name, "params": params}]}))
    argv = [command, str(cfg)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == f"{cfg}: experiments[1]: {message}"
    assert not (tmp_path / "out").exists()


def test_bad_params_is_an_infeasible_params_and_a_value_error():
    assert issubclass(BadParams, InfeasibleParams)
    assert issubclass(BadParams, ValueError)


def test_declared_types_take_their_kin():
    # a float param takes an int; a tuple param takes a list or a tuple
    got = resolve_params("thm1_1_capacity", {"eta": 1, "family_sizes": [8]})
    assert got == {"eta": 1, "family_sizes": [8], "anchor": "0"}
    assert resolve_params("thm1_1_capacity", {"family_sizes": (8, 9)})[
        "family_sizes"] == (8, 9)
    assert resolve_params("thm1_1_capacity", {"family_sizes": []})[
        "family_sizes"] == []


@pytest.mark.parametrize("name, params, message", [
    ("thm1_1_capacity", {"family_sizes": [12, 16.0, 20]},
     "'family_sizes' must be a list like its default (12, 16, 20), got"
     " [12, 16.0, 20]"),
    ("thm1_1_capacity", {"family_sizes": 12},
     "'family_sizes' must be a list like its default (12, 16, 20), got 12"),
    ("thm1_1_capacity", {"anchor": 0},
     "'anchor' must be a string like its default '0', got 0"),
    ("thm1_1_capacity", {"eta": math.inf},
     "'eta' must be a finite number like its default 0.12, got inf"),
    ("prop3_1_family", {"delta": False},
     "'delta' must be a finite number like its default 0.05, got False"),
    ("thm1_5_chaos", {"n_xi": None},
     "'n_xi' must be an int like its default 8, got None"),
    ("pressure_identities", {"count": 3},
     "pressure_identities: no param 'count'; it takes none"),
    ("thm1_3_cocycle_family", {"N": 4, "tail": 64},
     "no param 'tail'; the closest is 'tail_len'"),
    # the hint compares lower-cased keys: 'n' is closest to 'N', not to
    # 'tail_len'
    ("thm1_3_cocycle_family", {"n": 4},
     "thm1_3_cocycle_family: no param 'n'; the closest is 'N'"),
])
def test_mistyped_and_unknown_params_are_named(name, params, message):
    with pytest.raises(BadParams) as exc:
        resolve_params(name, params)
    assert message in str(exc.value)


def test_range_checks_stay_with_the_experiments():
    # in type, out of range: the experiment's own check still names it
    with pytest.raises(InfeasibleParams, match=r"n_xi must lie in \[2, 1024\]"
                       r", got 1$") as exc:
        run_experiment("thm1_5_chaos", 7, {"n_xi": 1})
    assert not isinstance(exc.value, BadParams)


def test_meta_records_the_effective_params(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "experiments": [
        {"name": "karp_oracle", "params": {"count": 4}},
        "pressure_identities",
        {"name": "thm1_2_packing_tree", "params": {"depth": 1}}]}))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["params"] == {
        "karp_oracle": {"count": 4},
        "pressure_identities": {},
        "thm1_2_packing_tree": {"depth": 1, "stage_len": 12}}


def test_family_target_is_the_one_the_family_aims_for():
    # at eta = 2 the entropy bound e^{n (h - eta)} rounds to 0, and the
    # family still aims for (and keeps) one row
    result = run_experiment("prop3_1_family", 7, {"eta": 2.0})
    assert result.details["size"] == result.details["target"] == 1
    assert run_experiment("prop3_1_family", 7, {"n": 10}).details[
        "target"] == measures.family_target(10, math.log(2), 0.3)
    assert result.passed
    assert result.tables["family_sizes.csv"][1].endswith(",1,1")
