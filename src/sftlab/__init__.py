"""sftlab: a finite-horizon laboratory for symbolic dynamics on subshifts of
finite type: saturated sets, separated families, optimal orbits,
equilibrium states, matrix cocycles and distributional chaos."""

from . import analysis, chaos, cocycle, ergopt, gluing, measures, shift
from .errors import (BadCheckpoints, Degenerate, DepthExceedsEmpirical,
                     FamilyNotSeparated, GapTooSmall, InfeasibleParams,
                     LeafOutOfRange, MalformedSchedule, MalformedTree,
                     NotPrimitive, NotRecurrent, OrbitsNotDisjoint, OutsideLf,
                     PerronNotPositive, SftLabError, ShortFamily,
                     SingularProduct, SpaceMismatch, WordsTooShort,
                     ZeroCylinder)
from .shift import SftSpace, SymbolStream, Word, bridge, connector, \
    delta_separated, dist, glue, iglue, separated_count
from .measures import (EmpiricalMeasure, MarkovMeasure, MeasurePath,
                       ks_entropies, ks_entropy, markov_measures,
                       refine_path, sample_word,
                       typical_separated_family, weak_star_dist)
from .analysis import (birkhoff_avg, brin_katok_estimate, empirical,
                       growth_rate, recurrence_ratios)
from .ergopt import (Potential, beta, betas, brute_force_beta,
                     brute_force_betas, classify_smr, equilibrium_state,
                     level_entropy, mean_potential, pressure,
                     topological_entropy)
from .cocycle import (MatrixCocycle, emit_lyapunov_family, exponent_along,
                      exponent_bracket, periodic_exponent)
from .chaos import dc1_report, li_yorke_report, phi_n
from .gluing import (BranchTree, GluingSchedule, build_branch_tree,
                     build_gk_schedule, dense_tour, emit_chaotic_family,
                     emit_dc1_family, emit_point, emit_separated_family,
                     tracking_bound, tracking_report, validate_schedule)

__version__ = "0.1.0"
