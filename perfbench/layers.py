"""Per-layer metrics of a traced run, and their names and units.

Span totals come from the traced children (``tracer.Tracer.totals``).
Times and counts are means over the traced repetitions. The module self
times, the wrapper cost taken out of them (``trace.wrapper_s``) and the time
outside every traced span (``trace.unattributed_s``) add up to
``trace.wall_s``.
"""
from __future__ import annotations

import statistics

MODULES = ("cli", "checks", "rmatrix", "monodromy", "tensor_core",
           "sov_basis", "spectrum", "eigenstate")

CHECK_LABELS = ("QYBE", "unitarity", "crossing", "fusion-rank",
                "twist-invariance", "commuting-transfer", "exchange-relations",
                "vacuum-actions", "orthogonality", "identity-resolution",
                "decompositions", "product-identity")

# metric name -> (span name, "calls" or "s")
SPAN_METRICS = {
    "spectrum.solve_bae_s": ("spectrum.solve_bae", "s"),
    "spectrum.bae_residuals_calls": ("spectrum.bae_residuals", "calls"),
    "spectrum.brute_force_spectrum_s": ("spectrum.brute_force_spectrum", "s"),
    "eigenstate.reconstruct_s": ("eigenstate.reconstruct", "s"),
    "eigenstate.scalar_F_calls": ("eigenstate.scalar_F", "calls"),
    "eigenstate.g_m_function_calls": ("eigenstate.g_m_function", "calls"),
    "sov_basis.right_state_calls": ("sov_basis.right_state", "calls"),
    "sov_basis.left_state_calls": ("sov_basis.left_state", "calls"),
    "sov_basis.g_factor_calls": ("sov_basis.g_factor", "calls"),
    "sov_basis.gram_matrix_s": ("sov_basis.gram_matrix", "s"),
    "tensor_core.simultaneous_eigen_calls": ("tensor_core.simultaneous_eigen", "calls"),
    "tensor_core.simultaneous_eigen_s": ("tensor_core.simultaneous_eigen", "s"),
    "monodromy.monodromy_blocks_calls": ("monodromy.monodromy_blocks", "calls"),
    "monodromy.monodromy_blocks_s": ("monodromy.monodromy_blocks", "s"),
    "monodromy.transfer_calls": ("monodromy.transfer", "calls"),
    "monodromy.transfer_s": ("monodromy.transfer", "s"),
    "rmatrix.r_matrix_calls": ("rmatrix.r_matrix", "calls"),
    "rmatrix.r_element_calls": ("rmatrix.r_element", "calls"),
    **{f"cli.{cmd}_s": (f"cli.cmd_{cmd}", "s")
       for cmd in ("verify", "spectrum", "reconstruct", "homog", "bae")},
    **{f"checks.{label}_s": (f"checks.{label}", "s") for label in CHECK_LABELS},
}

RATIO_METRICS = ("spectrum.newton_converged_ratio", "spectrum.newton_collided_ratio",
                 "spectrum.newton_useful_ratio", "bae_coverage",
                 "homog_monotone_ratio")


def per_layer_spec() -> list:
    """Every per-layer metric as (name, unit, better)."""
    out = [(f"{m}.self_s", "s", "lower") for m in MODULES]
    out += [(name, "count" if kind == "calls" else "s", "lower")
            for name, (_, kind) in SPAN_METRICS.items()]
    out += [("spectrum.s_per_start", "s", "lower"),
            ("monodromy.monodromy_blocks_distinct_points", "count", "lower"),
            ("monodromy.block_set_mb", "MB", "lower")]
    out += [(name, "ratio", "higher") for name in RATIO_METRICS]
    out += [("trace.wall_s", "s", "lower"), ("trace.unattributed_s", "s", "lower"),
            ("trace.wrapper_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: list, untraced0: dict, size: dict) -> dict:
    """Per-layer metrics of the traced repetitions; ``untraced0`` is an
    untraced repetition, which runs the same inputs."""
    mean = statistics.fmean
    spans = [r["spans"] for r in traced]

    def span(name, key):
        return mean(s.get(name, {}).get(key, 0) for s in spans)

    values = {f"{m}.self_s": mean(sum(v["self_s"] for k, v in s.items()
                                      if k.split(".")[0] == m) for s in spans)
              for m in MODULES}
    for metric, (name, kind) in SPAN_METRICS.items():
        values[metric] = span(name, kind)
    # Every repetition runs the same inputs, so the findings are the same.
    found = traced[0]["findings"]
    starts = found.get("starts", 0)
    converged = found.get("converged", 0)
    matched = len(found.get("matched_records", []))
    values["spectrum.s_per_start"] = _ratio(values["spectrum.solve_bae_s"], starts)
    values["monodromy.monodromy_blocks_distinct_points"] = mean(
        r["block_points"] for r in traced)
    dim = 3 ** size["N"]
    values["monodromy.block_set_mb"] = 9 * dim * dim * 16 / 1e6
    values["spectrum.newton_converged_ratio"] = _ratio(converged, starts)
    values["spectrum.newton_collided_ratio"] = _ratio(found.get("collided", 0), converged)
    values["spectrum.newton_useful_ratio"] = _ratio(matched, starts)
    values["bae_coverage"] = _ratio(matched, found.get("records", 0)) if starts else 0.0
    values["homog_monotone_ratio"] = _ratio(found.get("homog_monotone", 0),
                                            found.get("homog_families", 0))
    values["trace.wall_s"] = mean(r["wall_s"] for r in traced)
    values["trace.unattributed_s"] = mean(r["wall_s"] - r["span_s"] for r in traced)
    values["trace.wrapper_s"] = mean(r["wrapper_s"] for r in traced)
    values["trace.overhead_s"] = traced[0]["wall_s"] - untraced0["wall_s"]
    units = {name: unit for name, unit, _ in per_layer_spec()}
    return {name: {"value": values[name], "unit": units[name]} for name in units}
