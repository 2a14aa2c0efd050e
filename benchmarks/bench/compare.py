"""Two-sided comparisons: ``compare`` for two saved outputs, ``ab`` for
interleaved pairs of this tree against a git ref."""

from __future__ import annotations

import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Tuple

from .measure import REPO_ROOT, contract, measure, summary


def _worsening(base: float, new: float, better: str) -> float:
    """By what share of ``base`` the metric got worse (negative: better)."""
    if not base:
        return 0.0
    return (new - base) / base if better == "lower" else (base - new) / base


def _spread(metric: Dict[str, Any]) -> float:
    if "q1" not in metric or not metric["value"]:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[str], int]:
    """Report lines and exit code for output ``b`` against base ``a``.

    End-to-end metrics get a verdict from the bounds in ``BENCHMARK.json``:
    ``regressed`` (worse than the base by more than the bound), ``unresolved``
    (not regressed, but either side's quartile spread is wider than the
    bound, so "unchanged" cannot be claimed) or ``ok``. Per-layer metrics have
    no bound: exact counts are ``equal`` or ``changed``, the rest get a ratio.
    """
    modes = {w["mode"] for out in (a, b) for w in out["workloads"].values()}
    if a["kind"] != b["kind"] or a["scale"] != b["scale"] or len(modes) != 1:
        return [
            f"refusing to compare: kind {a['kind']}/{b['kind']}, scale {a['scale']}/{b['scale']}, "
            f"build modes {sorted(modes)}"
        ], 2
    end_to_end = {m["name"]: m for m in contract()["end_to_end"]}
    per_layer = {m["name"]: m for m in contract()["per_layer"]}
    lines = [f"base A: seed {a['seed']}, B: seed {b['seed']}; ratio = B / A"]
    bad = 0
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None:
            continue
        digest = "equal" if wa["sim_digest"] == wb["sim_digest"] else "changed"
        lines.append(
            f"{name}: sim_digest {digest}; failed_share {wa['failed_share']:.4f} -> "
            f"{wb['failed_share']:.4f}"
        )
        if wb["failed_share"] > wa["failed_share"]:
            bad += 1
            lines.append("  failed_share              HIGHER")
        for metric, ma in wa["metrics"].items():
            mb = wb["metrics"].get(metric)
            if mb is None:
                continue
            va, vb = ma["value"], mb["value"]
            ratio = f"{vb / va:.3f}x of {va:.6g}" if va else f"{vb:.6g} (base 0)"
            if metric in end_to_end:
                spec = end_to_end[metric]
                worse = _worsening(va, vb, spec["better"])
                spread = max(_spread(ma), _spread(mb))
                if worse > spec["bound"]:
                    verdict = "regressed"
                    bad += 1
                elif spread > spec["bound"]:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
                lines.append(
                    f"  {metric:<26}{verdict:<11}{ratio} {ma['unit']}, worse by {worse:+.1%} "
                    f"(bound {spec['bound']:.0%}, spread {spread:.1%})"
                )
            elif ma.get("exact"):
                lines.append(f"  {metric:<26}{'equal' if va == vb else 'changed':<11}{va:.6g} -> {vb:.6g}")
            else:
                better = per_layer.get(metric, {}).get("better", "lower")
                lines.append(f"  {metric:<26}{'':<11}{ratio} {ma['unit']} ({better} is better)")
    lines.append("REGRESSED" if bad else "no regression beyond the bounds")
    return lines, 1 if bad else 0


def ab(ref: str, workload: str, pairs: int, seconds: float, seed: int, scale: float) -> Tuple[List[str], int]:
    """Interleaved A/B of ``workload``: A is ``ref``'s ``src``, B is this
    tree's, both measured by this tree's benchmark code, one fresh process
    per side per pair, order flipped every pair."""
    holder = Path(tempfile.mkdtemp(prefix="bench-ab-"))
    tree = holder / "ref"
    sides = {"A": tree / "src", "B": REPO_ROOT / "src"}
    walls: Dict[str, List[float]] = {"A": [], "B": []}
    digests: Dict[str, set] = {"A": set(), "B": set()}
    failed = 0
    try:
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(tree), ref],
            cwd=REPO_ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        for pair in range(pairs):
            for side in ("AB", "BA")[pair % 2]:
                report = measure(workload, seed, seconds, False, scale, src=sides[side], processes=1)
                walls[side].append(report["metrics"]["wall_s"]["value"])
                digests[side].add(report["sim_digest"])
                failed += report["failed"]
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(tree)],
            cwd=REPO_ROOT, check=False, stderr=subprocess.DEVNULL,
        )
        shutil.rmtree(holder, ignore_errors=True)
    sa, sb = summary(walls["A"], "s"), summary(walls["B"], "s")
    won = sum(b < a for a, b in zip(walls["A"], walls["B"]))
    lost = sum(b > a for a, b in zip(walls["A"], walls["B"]))
    base_spread = sa["q3"] - sa["q1"]
    # The rule of the choosing-metrics guide: nine tenths of the pairs and a
    # median difference larger than the base's own quartile spread.
    gain = won >= 0.9 * pairs and sa["value"] - sb["value"] > base_spread
    loss = lost >= 0.9 * pairs and sb["value"] - sa["value"] > base_spread
    lines = [
        f"{workload} wall_s over {pairs} interleaved pairs, A = {ref}, B = working tree",
        *(
            f"  {side}: median {s['value']:.4f} s, quartiles {s['q1']:.4f}-{s['q3']:.4f}, min {s['min']:.4f}"
            for side, s in (("A", sa), ("B", sb))
        ),
        f"  B/A = {sb['value'] / sa['value']:.3f}x of {sa['value']:.4f} s; B won {won}, lost {lost} of {pairs}",
        f"  sim_digest {'equal' if digests['A'] == digests['B'] else 'changed'}; failed results {failed}",
        "  verdict: " + ("B is faster" if gain else "B is slower" if loss else "no resolvable difference"),
    ]
    return lines, 1 if loss or failed else 0
