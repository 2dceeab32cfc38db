"""What the benchmark promises beyond BENCHMARK.json: the default seed and which layer moves which metric.

BENCHMARK.json holds the workload names and reasons and the metric
definitions; its schema has no room for these, so every result file carries
them instead.  This module imports nothing, so the worker can read it before
the program is imported.
"""

DEFAULT_SEED = 1

CLI_WORKLOADS = ("report-batch", "dag-layered")
LIBRARY_WORKLOADS = ("wide-monomial", "small-calls")
ALL_WORKLOADS = CLI_WORKLOADS + LIBRARY_WORKLOADS


def entry_module(workload: str) -> str:
    """The module a user of the workload imports first: the CLI's, or the library package."""
    return "attrib.cli" if workload in CLI_WORKLOADS else "attrib"


SETUP_SAMPLES = 5  # fresh interpreters timed per run; setup_s is their median

# Per-layer metric -> the end-to-end metrics (on named workloads) it should move.
LAYER_MAP = {
    "startup.import_s": ["setup_s on every workload", "wall_s on report-batch and dag-layered"],
    "startup.scipy_import_s": ["setup_s on every workload", "wall_s on report-batch and dag-layered"],
    "cli.main_s": ["wall_s on report-batch and dag-layered"],
    "cli.self_s": ["wall_s on report-batch and dag-layered"],
    "models.parse_s": ["entities_per_s on report-batch"],
    "models.compile_s": ["entities_per_s on dag-layered and report-batch"],
    "models.compile_calls": ["entities_per_s on dag-layered and report-batch"],
    "models.monomials": ["entities_per_s on dag-layered and report-batch"],
    "reports.run_report_s": ["wall_s on report-batch"],
    "reports.run_report_self_s": ["wall_s on report-batch"],
    "reports.render_s": ["wall_s on report-batch"],
    "reports.render_bytes": ["wall_s on report-batch"],
    "exact.attribute_s": ["wall_s on wide-monomial", "call_p50_us and call_p99_us on small-calls", "entities_per_s on dag-layered"],
    "exact.calls": ["wall_s on wide-monomial", "call_p50_us and call_p99_us on small-calls", "entities_per_s on dag-layered"],
    "exact.monomial_s": ["wall_s on wide-monomial", "entities_per_s on dag-layered"],
    "exact.monomial_calls": ["wall_s on wide-monomial", "entities_per_s on dag-layered"],
    "exact.max_rel_residual": ["none: accuracy reported beside every timing"],
    "exact.max_oracle_gap": ["none: accuracy reported beside every timing"],
    "paths.attribute_s": ["wall_s on small-calls"],
    "paths.calls": ["wall_s on small-calls"],
    "paths.unconverged": ["wall_s on small-calls"],
    "oracles.attribute_s": ["wall_s on small-calls"],
    "oracles.calls": ["wall_s on small-calls"],
    "trace.overhead_s": ["none: traced run minus untraced run of the same calls"],
}
