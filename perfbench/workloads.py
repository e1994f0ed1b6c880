"""The benchmark's three workloads.

Each workload builds a router on a fresh :class:`Simulator` (``setup``),
then advances in fixed units (``step``) while the runner watches the wall
clock.  Everything a workload does is decided by its seed: the devices,
the arrival schedule and the query mix.  The first ``horizon`` steps after
set-up form the *checked prefix*: the output digest and the simulated
session latencies are taken over that prefix only, so they are identical
on every run of a seed however fast the machine is.

Every workload carries the same two observers, at workload-specific
rates, so that every end-to-end metric exists on every workload:

* :class:`Sessions` — short TCP (and UDP) exchanges arriving open loop at
  a seeded Poisson rate; their simulated completion times give
  ``session_sim_ms_*``.  On ``flow-churn`` they are the load itself.
* :class:`UiClient` — one hwdb RPC client and the control API, as the
  paper's management UIs use them; time per call gives
  ``query_ms_*`` and ``write_ms_p50``.  On ``ui-queries`` it is the load.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.config import RouterConfig
from repro.core.errors import RpcError
from repro.core.router import HomeworkRouter
from repro.household import build_household
from repro.net.addresses import IPv4Address
from repro.sim.simulator import Simulator
from repro.sim.topology import STANDARD_HOUSEHOLD
from repro.sim.traffic import IoTTelemetry, SSHSession
from repro.sim.upstream import DEFAULT_ZONE

from .speed import CLOCK


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank ``p``-quantile (0 < p <= 1); NaN for no values."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values: List[float], p: float, beyond: int = 10) -> Tuple[float, float]:
    """The ``p``-quantile, or the highest one with ``beyond`` samples
    above it.

    Returns ``(value, quantile_used)``; never below the median.
    """
    n = len(values)
    used = min(p, max(0.5, 1.0 - beyond / n)) if n else 0.5
    return percentile(values, used), used


#: Samples a timed tail quantile needs above it.  Simulated latencies are
#: exact, so ten suffice; a tail of ten timed samples moved by a quarter
#: between runs on a shared machine, one of twenty by half as much.
TIMED_BEYOND = 20


def digest_of(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# observers shared by the workloads
# ---------------------------------------------------------------------------

#: RFC 2544 benchmarking range: upstream addresses nobody else uses.
_BENCH_NET = int(IPv4Address("198.18.0.0"))
_TCP_PORTS = (80, 443, 22, 993)
_ZONE_NAMES = sorted(DEFAULT_ZONE)


def _around_ap(rng: random.Random) -> Tuple[float, float]:
    """A seeded spot 6 m from the access point: every Wi-Fi device gets
    the same signal, so link quality does not vary from seed to seed."""
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return (6.0 * math.cos(angle), 6.0 * math.sin(angle))


class _Session:
    __slots__ = ("start", "done", "expected", "received")

    def __init__(self, start: float, expected: int):
        self.start = start
        self.done: Optional[float] = None
        self.expected = expected
        self.received = 0


class Sessions:
    """Short sessions arriving open loop at a seeded Poisson rate.

    A TCP session connects to a random upstream address (or first
    resolves a zone name, without a stub cache), sends a small request
    and reads a small response.  A UDP session is one datagram to a
    fresh port on another device.  A session fails when its last byte
    has not arrived ``deadline`` simulated seconds after its scheduled
    start.
    """

    deadline = 2.0

    def __init__(self, sim: Simulator, rng: random.Random, hosts, rate: float,
                 tcp_share: float = 1.0, resolve_share: float = 0.0, poisson: bool = True):
        self.sim = sim
        self.rng = rng
        self.hosts = hosts
        self.rate = rate
        self.poisson = poisson
        self.tcp_share = tcp_share
        self.resolve_share = resolve_share
        self.started: List[_Session] = []
        self._udp_port = 20000

    def start(self) -> None:
        self.sim.schedule(self._gap(), self.arrive)

    def _gap(self) -> float:
        """Time to the next arrival: exponential, or fixed for observers
        whose count should not vary from seed to seed."""
        return self.rng.expovariate(self.rate) if self.poisson else 1.0 / self.rate

    def arrive(self) -> None:
        rng = self.rng
        index = rng.randrange(len(self.hosts))
        host = self.hosts[index]
        if rng.random() < self.tcp_share:
            port = _TCP_PORTS[rng.randrange(len(_TCP_PORTS))]
            session = _Session(self.sim.now, rng.randrange(200, 3000))
            request = rng.randrange(40, 400)
            name = None
            if rng.random() < self.resolve_share:
                name = _ZONE_NAMES[rng.randrange(len(_ZONE_NAMES))]
            dst = IPv4Address(_BENCH_NET + rng.randrange(1 << 17))
            self.started.append(session)
            if name is None:
                self._tcp(session, host, dst, port, request)
            else:
                self._resolve_then_tcp(session, host, name, port, request)
        else:
            peer = self.hosts[(index + 1 + rng.randrange(len(self.hosts) - 1)) % len(self.hosts)]
            session = _Session(self.sim.now, rng.randrange(16, 200))
            self.started.append(session)
            self._udp(session, host, peer)
        self.sim.schedule(self._gap(), self.arrive)

    def _tcp(self, session: _Session, host, dst, port: int, request_size: int) -> None:
        request = f"GET {session.expected} /bench".encode()
        request += b" " * max(0, request_size - len(request))
        try:
            conn = host.tcp_connect(dst, port)
        except ConnectionError:
            return

        def connected() -> None:
            conn.send(request)

        def on_data(data: bytes) -> None:
            session.received += len(data)
            if session.received >= session.expected and session.done is None:
                session.done = self.sim.now
                conn.close()

        conn.on_connect = connected
        conn.on_data = on_data

    def _resolve_then_tcp(self, session: _Session, host, name: str, port: int, request_size: int) -> None:
        host.dns_cache.pop(name, None)

        def resolved(address, _rcode) -> None:
            if address is not None:
                self._tcp(session, host, address, port, request_size)

        try:
            host.resolve(name, resolved)
        except ConnectionError:
            return

    def _udp(self, session: _Session, host, peer) -> None:
        port = self._udp_port
        self._udp_port = 20000 + (port - 19999) % 20000

        def delivered(data: bytes, _src, _sport) -> None:
            session.received = len(data)
            session.done = self.sim.now
            peer.udp_unbind(port)

        peer.udp_bind(port, delivered)
        try:
            host.udp_send(peer.ip, port, b"u" * session.expected)
        except ConnectionError:
            peer.udp_unbind(port)

    def late(self, session: _Session) -> bool:
        return (
            session.done is None
            or session.done - session.start > self.deadline
            or session.received != session.expected
        )

    def judged(self, first: int, until: float) -> List[_Session]:
        """Sessions from index ``first`` that started by ``until``."""
        return [s for s in self.started[first:] if s.start <= until]


#: The UI probe on household and flow-churn runs at the rates of the
#: repository's own UIs (``repro.ui``): the ambient artifact in signal mode
#: reads its station's last RSSI from Links on every tick
#: (``Artifact.tick_interval``, 0.1 s), and the bandwidth display refreshes
#: the Figure-1 per-device view every ``BandwidthView.refresh_interval``
#: (2 s).  Both are sent as RPC queries.
ARTIFACT_TICK = 0.1
DISPLAY_REFRESH = 2.0
_ARTIFACT_QUERY = "SELECT last(rssi) AS rssi FROM links WHERE mac = '{}' AND wired = false"
_DISPLAY_QUERY = (
    "SELECT src_mac, sum(bytes) AS bytes FROM flows [RANGE 10 SECONDS] GROUP BY src_mac"
)

#: Target of the probe's policy writes: a device that never joins, so
#: enforcing the policy evicts no flow of the workload under test.
UNATTACHED_MAC = "02:ee:00:00:00:01"


#: What the UI does with an installed policy, one write at a time.
_POLICY_LIFE = (
    ("POST", "/policies/{}/disable"),
    ("POST", "/policies/{}/enable"),
    ("POST", "/policies/{}/disable"),
    ("POST", "/policies/{}/enable"),
    ("DELETE", "/policies/{}"),
)


class UiClient:
    """A management UI: timed hwdb RPC queries and control-API writes."""

    def __init__(self, router: HomeworkRouter, rng: random.Random, hosts):
        self.router = router
        self.rng = rng
        self.hosts = hosts
        #: Fixed target of policy writes; ``None`` picks a seeded device.
        self.policy_target: Optional[str] = None
        self.client = router.hwdb_client()
        self.query_ms: List[float] = []
        self.write_ms: List[float] = []
        self.queries_failed = 0
        self.writes_failed = 0
        self.rows_hash = hashlib.sha256()
        self.problems: List[str] = []
        self._policy_id: Optional[int] = None
        self._policy_steps = 0
        self._denied: Dict[int, bool] = {}

    def query(self, text: str):
        started = CLOCK()
        try:
            result = self.client.query(text)
        except RpcError as exc:
            result = None
            self.problems.append(f"query failed: {exc}")
        self.query_ms.append((CLOCK() - started) * 1000.0)
        if result is None:
            self.queries_failed += 1
            self.rows_hash.update(b"ERROR")
        else:
            self.rows_hash.update(repr((text, result.columns, result.rows)).encode())
        return result

    def write(self, device_toggles: bool) -> None:
        """One control-API write: a deny/permit toggle (when allowed) or
        the next step in the life of a DNS-block policy for one device."""
        rng = self.rng
        if device_toggles and rng.random() < 0.5:
            index = rng.randrange(len(self.hosts))
            action = "permit" if self._denied.get(index) else "deny"
            self._denied[index] = action == "deny"
            call = ("POST", f"/devices/{self.hosts[index].mac}/{action}", None)
        elif self._policy_id is None:
            mac = self.policy_target or self.hosts[rng.randrange(len(self.hosts))].mac
            document = {
                "name": "homework-time",
                "targets": [str(mac)],
                "dns_mode": "block",
                "sites": ["ads.tracker.example"],  # no session resolves it
            }
            call = ("POST", "/policies", document)
        else:
            # A policy's life: installed, switched off and on twice, then
            # removed.  Most writes are toggles, so the median write is one.
            step = self._policy_steps % len(_POLICY_LIFE)
            self._policy_steps += 1
            call = (_POLICY_LIFE[step][0], _POLICY_LIFE[step][1].format(self._policy_id), None)
        started = CLOCK()
        response = self.router.control_api.request(*call)
        self.write_ms.append((CLOCK() - started) * 1000.0)
        if not 200 <= response.status < 300:
            self.writes_failed += 1
            self.problems.append(f"write failed: {call[0]} {call[1]} -> {response.status}")
        elif call[1] == "/policies":
            self._policy_id = int(response.json()["id"])
        elif call[0] == "DELETE":
            self._policy_id = None

    def start_probe(self, sim: Simulator, station, write_interval: float) -> None:
        """Run the UI probe: the artifact's and the display's queries at
        their own periods, and a policy write every ``write_interval``
        simulated seconds, aimed at :data:`UNATTACHED_MAC`."""
        artifact_query = _ARTIFACT_QUERY.format(station.mac)
        self.policy_target = UNATTACHED_MAC
        sim.schedule_periodic(ARTIFACT_TICK, lambda: self.query(artifact_query))
        sim.schedule_periodic(DISPLAY_REFRESH, lambda: self.query(_DISPLAY_QUERY))
        sim.schedule_periodic(write_interval, lambda: self.write(device_toggles=False))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Common shape: set up, step, digest the checked prefix, report."""

    name = ""
    #: Simulated seconds one ``step`` advances (ui-queries: per query).
    step_seconds = 1.0
    #: Steps in the checked prefix (full size / small size).
    horizon_steps = (20, 3)
    #: The workload's own methods the traced run times as ``bench``.
    traced_callbacks: Tuple[str, ...] = ()

    def __init__(self, seed: int, small: bool = False, scratch: Optional[Path] = None):
        self.seed = seed
        self.small = small
        self.scratch = scratch
        self.rng = random.Random(f"{self.name}:{seed}")
        self.sim: Simulator
        self.router: HomeworkRouter
        self.sessions: Sessions
        self.ui: UiClient
        self.steps = 0
        self.digest: Optional[str] = None
        self.problems: List[str] = []
        self.quantiles_used: Dict[str, object] = {}
        #: Seconds (on :data:`CLOCK`) spent in benchmark-only checks while
        #: stepping; the runner takes them off the measured time.
        self.excluded_s = 0.0

    @property
    def horizon(self) -> int:
        return self.horizon_steps[1] if self.small else self.horizon_steps[0]

    # -- lifecycle ------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def _run_for(self, seconds: float) -> None:
        """``sim.run_for`` in one-second slices, calling ``progress``
        between them (the runner samples machine speed there); the
        simulation is the same as one ``run_for``."""
        end = self.sim.now + seconds
        now = self.sim.now
        while now < end:
            now = min(now + 1.0, end)
            self.sim.run_until(now)
            self.progress()

    def progress(self) -> None:
        """Called between slices of set-up simulation."""

    def _observe(self, hosts, session_rate: float, ui_hosts=None, **session_mix) -> None:
        """Attach the observers: sessions from ``hosts``, a UI managing
        ``ui_hosts`` (default: the same devices)."""
        self.sessions = Sessions(self.sim, self.rng, hosts, session_rate, **session_mix)
        self.ui = UiClient(self.router, self.rng, ui_hosts or hosts)

    def _measure_from_here(self) -> None:
        """Mark the end of set-up: the checked prefix starts now."""
        self._first_session = len(self.sessions.started)
        self._window_end: Optional[float] = None
        self._outcome0 = (len(self.ui.query_ms), len(self.ui.write_ms),
                          self.ui.queries_failed, self.ui.writes_failed)

    def step(self) -> None:
        self._advance()
        self.steps += 1
        if self.steps == self.horizon:
            self._window_end = self.sim.now - self.sessions.deadline
            self.digest = digest_of(self.digest_fields())

    def _advance(self) -> None:
        self.sim.run_for(self.step_seconds)

    def teardown(self) -> None:
        """Release what the build holds outside the Python heap."""

    # -- outputs --------------------------------------------------------

    def prefix_sessions(self) -> List[_Session]:
        assert self._window_end is not None
        return self.sessions.judged(self._first_session, self._window_end)

    def session_latencies_ms(self) -> List[float]:
        late = self.sessions.late
        return [(s.done - s.start) * 1000.0 for s in self.prefix_sessions() if not late(s)]

    def digest_fields(self) -> Dict[str, object]:
        router = self.router
        prefix = self.prefix_sessions()
        return {
            "events": self.sim.events_executed,
            "frames": router.datapath.packets_processed,
            "flows_installed": router.router_core.flows_installed,
            "hwdb_inserts": router.db.inserts,
            "sessions": [len(prefix), sum(1 for s in prefix if self.sessions.late(s))],
            "session_ms": self.session_latencies_ms(),
            "query_rows": self.ui.rows_hash.hexdigest(),
            "writes": [len(self.ui.write_ms), self.ui.writes_failed],
        }

    def counters(self) -> Dict[str, float]:
        """Monotone counters the runner differences over the measured phase."""
        return {
            "sim_time": self.sim.now,
            "frames": self.router.datapath.packets_processed,
            "flows_installed": self.router.router_core.flows_installed,
            "queries": len(self.ui.query_ms),
            "writes": len(self.ui.write_ms),
        }

    def metrics(
        self, seconds: float, before: Dict[str, float], after: Dict[str, float], scale: float = 1.0
    ) -> Dict[str, float]:
        """End-to-end metrics of a measured phase of ``seconds`` (besides
        set-up and RSS); times are multiplied by the machine-speed
        ``scale``."""
        seconds *= scale
        out = {
            "realtime_factor": (after["sim_time"] - before["sim_time"]) / seconds,
            "pkts_per_s": (after["frames"] - before["frames"]) / seconds,
            "flow_setups_per_s": (after["flows_installed"] - before["flows_installed"]) / seconds,
        }
        latencies = self.session_latencies_ms()
        out["session_sim_ms_p50"] = percentile(latencies, 0.5)
        out["session_sim_ms_p99"], self.quantiles_used["session_sim_ms_p99"] = (
            tail_percentile(latencies, 0.99)
        )
        queries = [ms * scale for ms in self.ui.query_ms[int(before["queries"]):]]
        writes = [ms * scale for ms in self.ui.write_ms[int(before["writes"]):]]
        out["query_ms_p50"] = percentile(queries, 0.5)
        out["query_ms_p99"], self.quantiles_used["query_ms_p99"] = tail_percentile(
            queries, 0.99, TIMED_BEYOND
        )
        out["write_ms_p50"] = percentile(writes, 0.5)
        self.quantiles_used["samples"] = [len(latencies), len(queries), len(writes)]
        return out

    def outcome(self) -> Tuple[int, int]:
        """``(attempted, failed)`` operations of the measured phase:
        sessions old enough to be judged, queries and writes."""
        sessions = self.sessions.judged(self._first_session, self.sim.now - self.sessions.deadline)
        queries0, writes0, qfail0, wfail0 = self._outcome0
        ui = self.ui
        self.problems.extend(ui.problems[:5])
        if self.router.router_core.flows_blocked and self.name != "ui-queries":
            self.problems.append(f"{self.router.router_core.flows_blocked} flows blocked")
        attempted = len(sessions) + len(ui.query_ms) - queries0 + len(ui.write_ms) - writes0
        failed = (
            sum(1 for s in sessions if self.sessions.late(s))
            + ui.queries_failed - qfail0
            + ui.writes_failed - wfail0
        )
        return attempted, failed


class Household(Workload):
    """``STANDARD_HOUSEHOLD`` with its default traffic mix, open loop."""

    name = "household"
    step_seconds = 1.0
    horizon_steps = (40, 4)
    warmup_seconds = 10.0
    probe_sessions = 2.0     # observer sessions per simulated second
    write_interval = 0.5     # simulated seconds between UI probe writes

    def setup(self) -> None:
        household = build_household(STANDARD_HOUSEHOLD, seed=self.seed)
        self.household = household
        self.sim = household.sim
        self.router = household.router
        # Observer sessions come twice as often from wired devices: the
        # wireless ones answer ~7 ms slower, so with an even split the
        # median would flip between the two modes from seed to seed.
        hosts = list(household.hosts.values())
        wired = [spec.name for spec in STANDARD_HOUSEHOLD if not spec.wireless]
        weighted = hosts + [household.hosts[name] for name in wired]
        self._observe(weighted, self.probe_sessions, poisson=False)
        self.sessions.start()
        wireless = [spec.name for spec in STANDARD_HOUSEHOLD if spec.wireless]
        station = household.hosts[wireless[self.rng.randrange(len(wireless))]]
        self.ui.start_probe(self.sim, station, self.write_interval)
        self._run_for(2.0 if self.small else self.warmup_seconds)
        self._measure_from_here()
        self._generators0 = self._generator_sessions()

    def _generator_sessions(self) -> Tuple[int, int]:
        # TrafficGenerator.sessions_completed over-counts (NOTES.md), so
        # the default mix is judged on started and failed sessions only.
        generators = self.household.generators
        return (
            sum(g.sessions_started for g in generators),
            sum(g.sessions_failed for g in generators),
        )

    def digest_fields(self) -> Dict[str, object]:
        fields = super().digest_fields()
        fields["generators"] = [
            [type(g).__name__, g.sessions_started, g.sessions_completed, g.sessions_failed]
            for g in self.household.generators
        ]
        return fields

    def outcome(self) -> Tuple[int, int]:
        attempted, failed = super().outcome()
        started, failed_sessions = self._generator_sessions()
        return (
            attempted + started - self._generators0[0],
            failed + failed_sessions - self._generators0[1],
        )


class FlowChurn(Workload):
    """Short sessions at a seeded Poisson rate: every one is a flow setup."""

    name = "flow-churn"
    devices = 16
    wireless_devices = 6
    rate = 32.0              # sessions per simulated second
    idle_timeout = 18.0      # RouterConfig.flow_idle_timeout
    write_interval = 0.25    # simulated seconds between UI probe writes
    step_seconds = 0.25
    horizon_steps = (60, 16)
    traced_callbacks = ("_arrive",)

    def setup(self) -> None:
        self.sim = Simulator(seed=self.seed)
        config = RouterConfig(
            default_permit=True,
            nat_enabled=True,
            flow_idle_timeout=4.0 if self.small else self.idle_timeout,
        )
        self.router = HomeworkRouter(self.sim, config=config)
        self.router.start()
        rng = self.rng
        hosts = []
        # A fixed share of wireless devices (their sessions are slower),
        # so the session-latency median sits in the same mode on every seed.
        wireless_set = set(rng.sample(range(self.devices), self.wireless_devices))
        for index in range(self.devices):
            wireless = index in wireless_set
            position = _around_ap(rng)
            host = self.router.add_device(
                f"dev{index:02d}",
                f"02:bb:00:00:00:{index + 1:02x}",
                wireless=wireless,
                position=position if wireless else None,
            )
            hosts.append(host)
            host.start_dhcp()
        self.sim.run_for(5.0)
        self._observe(hosts, self.rate, tcp_share=0.85, resolve_share=0.15)
        self.sessions.arrive = self._arrive  # traced as the benchmark's own code
        self.sessions.start()
        station = hosts[min(wireless_set)]
        self.ui.start_probe(self.sim, station, self.write_interval)
        # Warm up until the flow table holds ~ rate x idle timeout flows.
        self._run_for(config.flow_idle_timeout + 4.0)
        self._measure_from_here()

    def _arrive(self) -> None:
        Sessions.arrive(self.sessions)


class UiQueries(Workload):
    """One hwdb RPC client in a closed loop beside standing subscriptions."""

    name = "ui-queries"
    devices = 16
    ring_rows = 512          # hwdb ring size: Flows spills to segments
    idle_timeout = 10.0      # RouterConfig.flow_idle_timeout
    fill_seconds = 60.0
    probe_sessions = 5.0     # observer sessions per simulated second
    step_seconds = 0.02      # simulated seconds advanced before each query
    write_every = 10         # one control-API write per this many queries
    check_every = 7          # cross-check one RPC answer in this many
    horizon_steps = (1000, 200)
    traced_callbacks = ("_next_query", "_check", "_on_push")

    def setup(self) -> None:
        self.sim = Simulator(seed=self.seed)
        assert self.scratch is not None
        config = RouterConfig(
            default_permit=True,
            durable_store=True,
            store_dir=str(self.scratch),
            hwdb_buffer_rows=self.ring_rows,
            flow_idle_timeout=self.idle_timeout,
        )
        self.router = HomeworkRouter(self.sim, config=config)
        self.router.start()
        rng = self.rng
        hosts = []
        for index in range(self.devices):
            wireless = bool(index % 2)  # IoT gadgets on Wi-Fi, workstations wired
            position = _around_ap(rng)
            host = self.router.add_device(
                f"ui{index:02d}",
                f"02:cc:00:00:00:{index + 1:02x}",
                wireless=wireless,
                position=position if wireless else None,
                device_class="iot" if index % 2 else "workstation",
            )
            hosts.append(host)
            host.start_dhcp()
        self.sim.run_for(5.0)
        self.generators = []
        for index, host in enumerate(hosts):
            generator = (IoTTelemetry if index % 2 else SSHSession)(host)
            generator.start(0.1 * index)
            self.generators.append(generator)
        # The UI denies and permits only the IoT devices, so sessions
        # from the workstations never meet a deliberate denial.
        self._observe(hosts[0::2], self.probe_sessions, ui_hosts=hosts[1::2])
        self.sessions.start()
        # Fill the rings and spill Flows and Links into archive segments.
        self._run_for(30.0 if self.small else self.fill_seconds)
        self.pushes = 0
        for text in (
            "SELECT src_mac, sum(bytes) AS bytes FROM flows [RANGE 10 SECONDS] GROUP BY src_mac",
            "SELECT mac, avg(rssi) AS rssi FROM links [RANGE 5 SECONDS] GROUP BY mac",
            "SELECT count(*) AS n, sum(bytes) AS bytes FROM flows [RANGE 5 SECONDS]",
            "SELECT name, count(*) AS n FROM dns [RANGE 60 SECONDS] GROUP BY name",
        ):
            self.ui.client.subscribe(text, 1.0, self._on_push)
        self._measure_from_here()

    def teardown(self) -> None:
        if self.router.store is not None:
            self.router.store.close()

    def _on_push(self, result) -> None:
        self.pushes += 1

    def _next_query(self) -> str:
        # The kinds take turns, so every seed runs the same mix; the seed
        # picks each query's parameters.
        rng = self.rng
        kind = len(self.ui.query_ms) % 5
        if kind == 0:  # Figure 1: per-device bandwidth
            return (
                "SELECT src_mac, sum(bytes) AS bytes, sum(packets) AS packets "
                "FROM flows [RANGE 10 SECONDS] GROUP BY src_mac ORDER BY src_mac"
            )
        if kind == 1:  # top talkers
            return (
                "SELECT src_ip, dst_ip, dst_port, bytes FROM flows [RANGE 30 SECONDS] "
                f"ORDER BY bytes DESC, src_ip, dst_ip, dst_port LIMIT {rng.randrange(3, 10)}"
            )
        if kind == 2:  # flows x leases join
            return (
                "SELECT l.hostname, sum(f.bytes) AS bytes FROM flows [RANGE 5 SECONDS] f, "
                "leases l WHERE f.src_ip = l.ip GROUP BY l.hostname ORDER BY 1"
            )
        if kind == 3:  # one device's signal strength
            mac = self.router.devices()[rng.randrange(self.devices)].mac
            return f"SELECT last(rssi) AS rssi FROM links WHERE mac = '{mac}'"
        # a window reaching back into the archive
        return "SELECT count(*) AS n, sum(bytes) AS bytes FROM flows [RANGE 600 SECONDS]"

    def _advance(self) -> None:
        self.sim.run_for(self.step_seconds)
        text = self._next_query()
        result = self.ui.query(text)
        count = len(self.ui.query_ms)
        if result is not None and count % self.check_every == 0:
            self._check(text, result)
        if count % self.write_every == 0:
            self.ui.write(device_toggles=True)

    def _check(self, text: str, result) -> None:
        """Cross-check an RPC answer against the database's direct answer
        (benchmark-only work: its time is excluded)."""
        started = CLOCK()
        direct = self.router.db.query(text)
        if list(direct.rows) != list(result.rows):
            self.problems.append(f"rpc result differs from direct query: {text}")
        self.excluded_s += CLOCK() - started

    def digest_fields(self) -> Dict[str, object]:
        fields = super().digest_fields()
        fields["pushes"] = self.pushes
        return fields


WORKLOADS = {cls.name: cls for cls in (Household, FlowChurn, UiQueries)}
