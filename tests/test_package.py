"""The package surface: every name ``sftlab`` re-exports, and each layer
module, resolves from the package to the object its module holds, although
the layers load only on first use."""
import importlib

import pytest

import sftlab

LAYERS = ["analysis", "chaos", "cocycle", "ergopt", "gluing", "measures",
          "shift"]

# name -> the module that defines it, for every re-exported name
REEXPORTS = {
    "errors": [
        "BadCheckpoints", "Degenerate", "FamilyNotSeparated", "GapTooSmall",
        "InfeasibleParams", "LeafOutOfRange", "MalformedSchedule",
        "MalformedTree", "NonFinitePotential", "NotPrimitive", "NotRecurrent",
        "OrbitsNotDisjoint", "OutsideLf", "PerronNotPositive", "SftLabError",
        "ShortFamily", "SingularProduct", "SpaceMismatch", "WordsTooShort",
        "ZeroCylinder"],
    "shift": ["SftSpace", "SymbolStream", "Word", "bridge", "connector",
              "delta_separated", "dist", "glue", "separated_count",
              "topological_entropy"],
    "measures": ["MarkovMeasure", "MeasurePath",
                 "ks_entropies", "ks_entropy", "markov_measures",
                 "refine_path", "sample_word", "typical_separated_family",
                 "weak_star_dist"],
    "analysis": ["birkhoff_avg", "brin_katok_estimate", "growth_rate",
                 "recurrence_ratios"],
    "ergopt": ["Potential", "beta", "betas", "brute_force_beta",
               "brute_force_betas", "classify_smr", "equilibrium_state",
               "level_entropy", "mean_potential", "pressure"],
    "cocycle": ["MatrixCocycle", "emit_lyapunov_family", "exponent_along",
                "exponent_bracket", "periodic_exponent"],
    "chaos": ["dc1_report", "li_yorke_report", "phi_n"],
    "gluing": ["BranchTree", "GluingSchedule", "build_branch_tree",
               "build_gk_schedule", "dense_tour", "emit_chaotic_family",
               "emit_dc1_family", "emit_point", "emit_separated_family",
               "tracking_bound", "tracking_report", "validate_schedule"],
}
NAMES = [(module, name) for module, names in REEXPORTS.items()
         for name in names]


@pytest.mark.parametrize("layer", LAYERS + ["errors"])
def test_each_layer_resolves_to_its_module(layer):
    assert getattr(sftlab, layer) is importlib.import_module(f"sftlab.{layer}")


@pytest.mark.parametrize("module, name", NAMES)
def test_each_name_resolves_to_its_module_object(module, name):
    home = importlib.import_module(f"sftlab.{module}")
    assert getattr(sftlab, name) is getattr(home, name)


def test_star_import_and_dir_list_the_whole_surface():
    everything = {name for _, name in NAMES} | set(LAYERS) | {"errors"}
    namespace = {}
    exec("from sftlab import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == everything
    for name in everything:
        assert namespace[name] is getattr(sftlab, name)
    assert everything <= set(dir(sftlab))
    assert len(sftlab.__all__) == len(everything)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        sftlab.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from sftlab import no_such_name  # noqa: F401
