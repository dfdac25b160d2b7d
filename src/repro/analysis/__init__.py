"""Analytic models: Eqs. 4-24, Tables I-III, Fig. 11."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "bandwidth": (
        "FeasibleOperatingPoint", "achievable_efficiency", "feasible_k", "max_k_on_spectral_plan",
    ),
    "crossover": ("ProblemSizePoint", "crossover_cores", "sweep_problem_size"),
    "fft_efficiency": (
        "DEFAULT_K_VALUES", "Figure11Curves", "Table1Row", "Table2Row", "delivery_efficiency",
        "figure11_curves", "paper_lambda_ns", "table1", "table2",
    ),
    "mesh_model": (
        "FittedLambda", "MeasuredScatter", "fit_lambda", "measure_scatter",
        "mesh_delivery_efficiency", "scatter_cycles_eq21", "scatter_cycles_ideal",
    ),
    "perf_model": (
        "DeliveryModel", "balanced_block_delivery_time", "delivery_time", "efficiency_model1",
        "efficiency_model2", "is_compute_bound", "total_time_model2",
    ),
    "queueing": ("SinkQueueModel", "implied_utilization", "md1_mean_wait"),
    "sensitivity": ("SensitivityPoint", "SensitivityReport", "sweep_sensitivity"),
    "skew": ("SkewBudget", "find_failure_threshold"),
    "transpose_model": (
        "MeasuredTranspose", "Table3Row", "measure_mesh_transpose", "mesh_transpose_cycles_model",
        "pscan_transactions", "pscan_transpose_cycles", "table3", "transaction_cycles",
    ),
    "validation": ("CongestionPoint", "CongestionValidation", "validate_congestion_model"),
})
