"""Pinned outputs: the sha256 of ``summary.json`` and of every CSV of one
seed-7 batch of five experiments that make no LAPACK call, so the digests
hold on any BLAS.  A refactor that keeps behaviour keeps every digest; a
change that moves an output must say so and re-pin them."""
import hashlib
import json

from sftlab.cli import main

CONFIG = {"seed": 7, "experiments": [
    {"name": "karp_oracle", "params": {"count": 100}},
    {"name": "thm1_1_capacity", "params": {"family_sizes": [12, 14, 16]}},
    "prop3_1_family",
    {"name": "thm1_2_packing_tree", "params": {"depth": 2}},
    "thm1_5_chaos",
]}

DIGESTS = {
    "summary.json":
        "092fe6f546a1fd03be3bc6cd3fd3b67dbb8c55aa94838f3e28cc778b83f5ed13",
    "karp_oracle/oracle.csv":
        "3d91f13d2373e8b270fd3f618ac9424e4e7a852b201166d123459aeaa54aa322",
    "thm1_1_capacity/counts.csv":
        "b62393438f9c8f98c11eca3cffc2f51e25f90554406ba50208f3c2070744b627",
    "prop3_1_family/family_sizes.csv":
        "bc25e2f4f6649cc6a87187885aebc94761b70d9885e9f7ee57701e2fa00d2395",
    "thm1_2_packing_tree/mass_bounds.csv":
        "fad1684ab7a027fd3a6ca4f97e6661eb50971144a90f6a359e0d8f8775c7b83b",
    "thm1_5_chaos/pairs.csv":
        "12d5afe8fbe307f461fdd99fbdd0c32cf4a334ae3c18dabbb1bae8e2f4a1af05",
    "thm1_5_chaos/dc1_trajectories.csv":
        "0ee76a18647ab2f078028363c038b4e11e7fa17a77f9b316eca7e7464ca69f35",
}


def test_seed_7_outputs_match_pinned_digests(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    written = {p.relative_to(out).as_posix()
               for p in out.rglob("*") if p.suffix in (".csv", ".json")}
    assert written - {"meta.json"} == set(DIGESTS)
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in DIGESTS}
    assert got == DIGESTS
