"""Shared utilities: units, constants, validation, and the error hierarchy."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "constants": ("constants",),
    "errors": (
        "CollisionError", "ConfigError", "FaultError", "LinkBudgetError", "MemoryModelError",
        "NetworkError", "PermanentFaultError", "PhotonicsError", "ProcessError", "ReproError",
        "RetryExhaustedError", "RoutingError", "ScheduleError", "ServeAttemptTimeout",
        "ServeCircuitOpenError", "ServeDeadlineError", "ServeDrainingError", "ServeError",
        "ServeQuotaError", "ServeRetryExhaustedError", "ServeWorkerError", "SimulationError",
        "SweepError", "SweepInterrupted", "SweepPointError", "SweepPoolError",
        "TransientFaultError", "is_retryable",
    ),
    "units": ("units",),
    "validation": ("validation",),
})
