"""repro.check — deterministic simulation testing for the whole router.

FoundationDB-style scenario fuzzing on top of :mod:`repro.sim`: a seeded
generator composes random households (devices joining and leaving, DHCP
churn, DNS lookups, TCP/UDP flows, policies installed and revoked
mid-run, USB-key events) and a fault layer perturbs the world (frames
dropped/duplicated/reordered on links, the OpenFlow channel flapping,
time warps, hwdb ring pressure).  After every scenario operation a
catalogue of router-wide invariants is evaluated; the first violation
stops the run, the failing scenario is greedily shrunk to a minimal
reproduction, and the result is written as a replayable JSON file.

Everything runs in simulated time from one seed: the same seed always
produces the byte-identical event trace, so every failure is a
one-command reproduction (``python -m repro fuzz --replay FILE``).

The package also holds the reference CQL executor (:mod:`.oracle`) that
the differential query fuzzer (:mod:`.cql_fuzz`) checks the query
engine against.
"""

from .faults import LinkFault
from .invariants import INVARIANTS, InvariantViolation
from .runner import RunResult, ScenarioRunner
from .scenario import Op, Scenario, generate_scenario
from .shrink import shrink_scenario

__all__ = [
    "INVARIANTS",
    "InvariantViolation",
    "LinkFault",
    "Op",
    "RunResult",
    "Scenario",
    "ScenarioRunner",
    "generate_scenario",
    "shrink_scenario",
]
