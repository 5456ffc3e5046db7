"""The benchmark's workloads: each is a list of built-in experiments with the
params that scale it, turned into an ``sftlab run`` config by ``config``.

Together the four cover the ten experiments of ``configs/all.json``.  The
seed is the config seed, so the experiments draw every random input from it.
"""
from __future__ import annotations

WORKLOADS: dict[str, list[tuple[str, dict]]] = {
    # Many short family members sharing one emitted tail: gluing emission,
    # tracking and weak* sampling do the work, ergopt none.
    "capacity_family": [
        ("thm1_1_capacity", {"family_sizes": [12, 14, 16]}),
        ("prop3_1_family", {}),
    ],
    # Leaf enumeration of the default depth-3 tree: shift and the branching
    # tree code, almost no sampling, no shared tail.
    "packing_tree": [
        ("thm1_2_packing_tree", {}),
    ],
    # Exact Karp, the max-plus oracle, Perron and stationary solves: only
    # ergopt works, gluing does nothing.
    "oracle_solvers": [
        ("karp_oracle", {"count": 800}),
        ("thm1_6_equilibrium", {"count": 2000}),
        ("pressure_identities", {}),
        ("thm1_4_levels_and_smr", {}),
    ],
    # A few long streams instead of many short members; the only workload
    # for chaos and cocycle.
    "long_orbits": [
        ("thm1_5_chaos", {"horizon": 200_000}),
        ("thm1_3_cocycle_family", {"tail_len": 2048}),
        ("lemma_ds_tracking", {"stages": 4}),
    ],
}


def config(workload: str, seed: int) -> dict:
    return {"seed": seed,
            "experiments": [{"name": name, "params": params}
                            for name, params in WORKLOADS[workload]]}


def input_size(workload: str, summary: dict, tables: dict) -> dict:
    """The workload's input size, read from a pass's outputs: family members,
    leaves, oracle instances and horizons."""
    details = summary["experiments"]
    params = dict(WORKLOADS[workload])
    if workload == "capacity_family":
        rows = tables["thm1_1_capacity/counts.csv"].splitlines()[1:]
        return {"capacity_family_members": [int(r.split(",")[1]) for r in rows],
                "prop3_1_family_size": details["prop3_1_family"]["size"]}
    if workload == "packing_tree":
        return {"leaves": details["thm1_2_packing_tree"]["leaves"]}
    if workload == "oracle_solvers":
        return {"karp_instances": details["karp_oracle"]["instances"],
                "equilibrium_instances": details["thm1_6_equilibrium"]["count"],
                "pressure_checks": details["pressure_identities"]["checks"],
                "level_grid_points":
                    len(tables["thm1_4_levels_and_smr/levels.csv"].splitlines()) - 1}
    if workload == "long_orbits":
        return {"chaos_horizon": params["thm1_5_chaos"]["horizon"],
                "chaos_pairs": details["thm1_5_chaos"]["pairs"],
                "cocycle_members": details["thm1_3_cocycle_family"]["family_size"],
                "cocycle_tail_len": params["thm1_3_cocycle_family"]["tail_len"],
                "tracking_checkpoints":
                    details["lemma_ds_tracking"]["checkpoints"]}
    raise KeyError(workload)
