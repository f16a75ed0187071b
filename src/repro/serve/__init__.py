"""Advisor-as-a-service: the async multi-tenant serving layer.

The paper frames the advisor as a standalone tool an administrator runs
per system; this package runs it as a *service* — one long-lived
process hosting many tenant problems at once, the
storage-provisioning-as-a-service setting the paper's §8 gestures at.
A shared, crash-tolerant solver pool (:mod:`repro.serve.pool`) does the
CPU work; a weighted-fair scheduler (:mod:`repro.serve.scheduler`)
keeps tenants from starving each other and sheds overload at a bounded
admission queue; each tenant (:mod:`repro.serve.tenant`) runs the full
online control loop server-side against its streamed trace; and a
hand-rolled JSON/HTTP front end (:mod:`repro.serve.http`) exposes the
lot, with Prometheus metrics per tenant and a graceful drain that
journals in-flight migrations for the next incarnation to finish.
"""

from repro.serve.pool import PoolCrashError, SolverPool
from repro.serve.scheduler import AdmissionError, FairScheduler, \
    TenantGoneError
from repro.serve.service import (
    AdvisorService,
    ServeConfig,
    ServiceDrainingError,
    UnknownTenantError,
)
from repro.serve.tenant import Tenant, records_from_payload

__all__ = [
    "AdmissionError",
    "AdvisorService",
    "FairScheduler",
    "PoolCrashError",
    "ServeConfig",
    "ServiceDrainingError",
    "SolverPool",
    "Tenant",
    "TenantGoneError",
    "UnknownTenantError",
    "records_from_payload",
]
