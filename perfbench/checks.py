"""Output checks. Each returns a list of failure messages; an empty list
means the output passed.

They read the serialized documents (path.json, compare.csv, oracle.json,
model.json, or `path_to_dict` for API calls), not the package's objects,
so they keep working when the in-memory representation changes.
"""

from __future__ import annotations

import math

import numpy as np


def check_exit(step: str, code) -> list[str]:
    return [] if code == 0 else [f"{step} exited with code {code}"]


def bucket_bits(doc: dict) -> dict[int, str]:
    return {int(b["k"]): b["bits"] for b in doc.get("buckets", [])}


def check_path_doc(doc: dict, K: int, p: int) -> list[str]:
    """Bucket k holds exactly k bits of p for k = 1..K, every bucket
    objective is finite, and the top penalty's terminal size is 0."""
    out = []
    buckets = doc.get("buckets", [])
    ks = [b.get("k") for b in buckets]
    if sorted(ks) != list(range(1, K + 1)):
        out.append(f"bucket sizes {ks} are not 1..{K}")
    for b in buckets:
        bits, k = b.get("bits", ""), b.get("k")
        if len(bits) != p or set(bits) - {"0", "1"}:
            out.append(f"bucket {k}: bits are not a {p}-long 0/1 string")
        elif bits.count("1") != k:
            out.append(f"bucket {k}: holds {bits.count('1')} bits")
        obj = b.get("objective")
        if not isinstance(obj, (int, float)) or not math.isfinite(obj):
            out.append(f"bucket {k}: objective {obj!r} is not finite")
    grid = doc.get("lambda_grid", [])
    if not grid:
        out.append("lambda grid is empty")
    else:
        top = max(grid, key=lambda e: e["lambda"])
        if top["terminal_size"] != 0:
            out.append(f"top penalty has terminal size {top['terminal_size']}, not 0")
    return out


def check_compare(rows: list[dict], path_doc: dict, oracle_doc: dict, K: int,
                  p: int) -> list[str]:
    """compare.csv agrees with path.json and oracle.json row by row, its
    match column is right, and no heuristic bucket beats the exact optimum."""
    out = []
    heur = bucket_bits(path_doc)
    orc = bucket_bits(oracle_doc)
    heur_obj = {int(b["k"]): b["objective"] for b in path_doc.get("buckets", [])}
    orc_obj = {int(b["k"]): b["objective"] for b in oracle_doc.get("buckets", [])}
    if sorted(int(r["k"]) for r in rows) != list(range(1, K + 1)):
        out.append(f"compare.csv does not list sizes 1..{K}")
    for r in rows:
        k = int(r["k"])
        hb, ob = r["heuristic_bits"], r["oracle_bits"]
        if hb != heur.get(k):
            out.append(f"compare k={k}: heuristic bits differ from path.json")
        if ob != orc.get(k):
            out.append(f"compare k={k}: oracle bits differ from oracle.json")
        if len(ob) != p or ob.count("1") != k:
            out.append(f"compare k={k}: oracle bits are not a size-{k} subset of {p}")
        if int(r["match"]) != int(hb == ob):
            out.append(f"compare k={k}: match column is {r['match']}")
        if k in heur_obj and k in orc_obj:
            tol = 1e-9 * max(1.0, abs(orc_obj[k]))
            if heur_obj[k] < orc_obj[k] - tol:
                out.append(f"compare k={k}: heuristic objective {heur_obj[k]!r} "
                           f"beats the exhaustive optimum {orc_obj[k]!r}")
    return out


def check_model_doc(doc: dict, H: int, p: int, q: int) -> list[str]:
    out = []
    comps = doc.get("components", [])
    if len(comps) != H:
        out.append(f"model has {len(comps)} components, expected {H}")
    for c in comps:
        sup = c.get("support", [])
        if sup != sorted(set(sup)) or not sup or sup[0] < 0 or sup[-1] >= p:
            out.append(f"component {c.get('h')}: bad support {sup}")
        if c.get("k") != len(sup):
            out.append(f"component {c.get('h')}: k={c.get('k')} but support has {len(sup)}")
        if len(c.get("u", [])) != p or len(c.get("w", [])) != p:
            out.append(f"component {c.get('h')}: loading length is not {p}")
    beta = np.asarray(doc.get("beta") or [], dtype=float)
    if beta.shape != (p, q) or not np.all(np.isfinite(beta)):
        out.append(f"beta has shape {beta.shape}, expected ({p}, {q}), or is not finite")
    cpev = np.asarray(doc.get("cpev", []), dtype=float)
    if cpev.shape != (H,) or np.any(np.diff(cpev) < -1e-12) or np.any(cpev < 0) \
            or np.any(cpev > 1 + 1e-9):
        out.append(f"cpev {cpev.tolist()} is not a nondecreasing share")
    return out


def check_corner_values(doc: dict, corner) -> list[str]:
    """Each bucket objective equals `corner(indices)`, an independent
    evaluation of the unpenalized objective at that subset."""
    out = []
    for b in doc.get("buckets", []):
        idx = [j for j, c in enumerate(b["bits"]) if c == "1"]
        ref = corner(idx)
        if not math.isclose(b["objective"], ref, rel_tol=1e-6, abs_tol=1e-12):
            out.append(f"bucket {b['k']}: objective {b['objective']!r} but the "
                       f"subset's value is {ref!r}")
    return out


def match_cells(doc: dict, reference: dict[int, set[int]]) -> tuple[int, int]:
    """(cells compared, cells whose best subset is the reference subset)."""
    bits = bucket_bits(doc)
    hits = sum(
        1 for k, ref in reference.items()
        if k in bits and {j for j, c in enumerate(bits[k]) if c == "1"} == ref
    )
    return len(reference), hits


def support_f1(bits: str, support) -> float:
    """F1 of a selected subset against the true support (the same formula
    as `subsetpath.simulate.metrics`)."""
    chosen = {j for j, c in enumerate(bits) if c == "1"}
    truth = set(support)
    tp = len(chosen & truth)
    denom = len(chosen) + len(truth)
    return 2 * tp / denom if denom else 0.0
