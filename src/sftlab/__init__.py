"""sftlab: a finite-horizon laboratory for symbolic dynamics on subshifts of
finite type: saturated sets, separated families, optimal orbits,
equilibrium states, matrix cocycles and distributional chaos."""

from .errors import (BadCheckpoints, Degenerate, DepthExceedsEmpirical,
                     FamilyNotSeparated, GapTooSmall, InfeasibleParams,
                     LeafOutOfRange, MalformedSchedule, MalformedTree,
                     NotPrimitive, NotRecurrent, OrbitsNotDisjoint, OutsideLf,
                     PerronNotPositive, SftLabError, ShortFamily,
                     SingularProduct, SpaceMismatch, WordsTooShort,
                     ZeroCylinder)

_HOME = {name: layer for layer, names in (  # name -> its layer; layer -> self
    ("shift", "SftSpace SymbolStream Word bridge connector delta_separated "
              "dist glue separated_count topological_entropy"),
    ("measures", "EmpiricalMeasure MarkovMeasure MeasurePath ks_entropies "
                 "ks_entropy markov_measures refine_path sample_word "
                 "typical_separated_family weak_star_dist"),
    ("analysis", "birkhoff_avg brin_katok_estimate empirical growth_rate "
                 "recurrence_ratios"),
    ("ergopt", "Potential beta betas brute_force_beta brute_force_betas "
               "classify_smr equilibrium_state level_entropy mean_potential "
               "pressure"),
    ("cocycle", "MatrixCocycle emit_lyapunov_family exponent_along "
                "exponent_bracket periodic_exponent"),
    ("chaos", "dc1_report li_yorke_report phi_n"),
    ("gluing", "BranchTree GluingSchedule build_branch_tree build_gk_schedule "
               "dense_tour emit_chaotic_family emit_dc1_family emit_point "
               "emit_separated_family tracking_bound tracking_report "
               "validate_schedule"),
) for name in [layer, *names.split()]}
__all__ = [name for name in globals() if name[0] != "_"] + list(_HOME)


def __getattr__(name):
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # first use loads the layer (PEP 562); __import__ shows in -X importtime
    module = getattr(__import__(f"{__name__}.{layer}"), layer)
    return module if layer == name else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
