"""Workloads, metrics, units and bounds of the benchmark.

``record.py`` writes ``BENCHMARK.json`` from these tables, so they are
the one place where a metric is named.
"""

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 5  # below every round's timed phase, so each run is one round

WORKLOADS = [
    {"name": "classify_sweep",
     "why": "set-up builds every interval of rank <= 6 from empty caches, then every "
            "(type, r, t) cell is classified on them: classifier and engine filters"},
    {"name": "partitions_render",
     "why": "partition models, bijection round trips and SVG rendering, with very "
            "little root_coxeter; enumerate_nc_b(6) sets the memory peak"},
]

# The time bounds are wide because the machine the baseline was recorded
# on (a shared 2-core VM) ran the same code up to 1.7x slower or faster
# from one minute to the next; see README.md.
END_TO_END = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "op_tail_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]

LAYERS = ("root_coxeter", "classifier", "derived_engine", "ncp_models", "render", "harness")

# (metric, unit, source).  Sources: "layer:<layer>" sums the self time
# of that layer's spans, "span:<name>" that of the spans with that name,
# "count:<name>" reads a round counter, "ratio:<a>/<b>" divides two
# counters, "trace:<key>" is a figure of the trace itself
PER_LAYER = (
    [(f"{layer}.self_s", "s", f"layer:{layer}") for layer in LAYERS]
    + [
        ("root_coxeter.build_s", "s", "span:root_coxeter.build"),
        ("root_coxeter.enumerate_nc_s", "s", "span:root_coxeter.enumerate_nc"),
        ("root_coxeter.elements", "count", "count:root_coxeter.elements"),
        ("root_coxeter.roots_below_s", "s", "span:root_coxeter.roots_below"),
        ("root_coxeter.roots_below_calls", "count", "count:root_coxeter.roots_below_calls"),
        ("root_coxeter.roots_below_warm_s", "s", "span:root_coxeter.roots_below_warm"),
        ("classifier.enumerate_thick_s.cox_conjugation", "s",
         "span:classifier.enumerate_thick/cox_conjugation"),
        ("classifier.enumerate_thick_s.sigma_rho_power", "s",
         "span:classifier.enumerate_thick/sigma_rho_power"),
        ("classifier.enumerate_thick_s.d4_triality", "s",
         "span:classifier.enumerate_thick/d4_triality"),
        ("classifier.enumerate_thick_calls", "count", "count:classifier.enumerate_thick_calls"),
        ("classifier.formula_s", "s", "span:classifier.formula"),
        ("classifier.kept_ratio", "ratio", "ratio:classifier.kept/classifier.scanned"),
        ("derived_engine.label_walk_s", "s", "span:derived_engine.label_walk"),
        ("derived_engine.brute_force_s", "s", "span:derived_engine.brute_force"),
        ("derived_engine.brute_force_calls", "count", "count:derived_engine.brute_force_calls"),
        ("derived_engine.invariant_found", "count", "count:derived_engine.invariant_found"),
        ("derived_engine.cluster_check_s", "s", "span:derived_engine.cluster_check"),
        ("ncp_models.enumerate_nc_a_s", "s", "span:ncp_models.enumerate_nc_a"),
        ("ncp_models.partitions", "count", "count:ncp_models.partitions"),
        ("ncp_models.rotation_period_s", "s", "span:ncp_models.rotation_period"),
        ("ncp_models.enumerate_nc_b_s", "s", "span:ncp_models.enumerate_nc_b"),
        ("ncp_models.kreweras_s", "s", "span:ncp_models.kreweras"),
        ("ncp_models.fiber_s", "s", "span:ncp_models.fiber"),
        ("ncp_models.brady_roundtrip_s", "s", "span:ncp_models.brady_roundtrip"),
        ("ncp_models.ar_roundtrip_s", "s", "span:ncp_models.ar_roundtrip"),
        ("render.circle_s", "s", "span:render.circle"),
        ("render.strip_s", "s", "span:render.strip"),
        ("render.svg_bytes", "count", "count:render.svg_bytes"),
        ("trace.spans", "count", "trace:spans"),
        ("trace.span_cost_s", "s", "trace:span_cost_s"),
    ]
)


def benchmark_json():
    """The contents of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": [
            # kept_ratio is useful outcomes per attempt; every other
            # per-layer figure is time spent or work done
            {"name": name, "unit": unit,
             "better": "higher" if name == "classifier.kept_ratio" else "lower"}
            for name, unit, _ in PER_LAYER
        ],
    }
