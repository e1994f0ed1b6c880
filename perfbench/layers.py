"""Per-layer tracing for the benchmark's traced run.

Wrappers around the public entry points of each repro-lint layer record
one span per call.  A span's *self time* is its duration minus the time
covered by the spans nested inside it, so the self times of all spans
add up to the traced wall time they cover, less the wrappers' own
per-call cost (measured on a no-op while the traced run goes on, and
taken off).  The wrappers live here and
are installed by patching: a class attribute for methods, and for module
functions every module that bound the function by name at import time
(``from .checksum import internet_checksum``), or those calls would be
missed.  Install before building the router: callbacks it registers
(ports, timers, packet-in handlers) capture the wrapped functions.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (span key, target).  A target is ``module:function`` or
#: ``module:Class.attribute``.  The layer is the key's first component.
TARGETS: List[Tuple[str, str]] = [
    # net: codecs, checksum, address construction
    ("net.checksum", "repro.net.checksum:internet_checksum"),
    *[("net.parse", f"{m}.unpack") for m in (
        "repro.net.ethernet:Ethernet", "repro.net.ipv4:IPv4", "repro.net.tcp:TCP",
        "repro.net.udp:UDP", "repro.net.arp:ARP", "repro.net.icmp:ICMP",
        "repro.net.dns_msg:DNSMessage", "repro.net.dhcp_msg:DHCPMessage",
    )],
    *[("net.pack", f"{m}.pack") for m in (
        "repro.net.ethernet:Ethernet", "repro.net.ipv4:IPv4", "repro.net.tcp:TCP",
        "repro.net.udp:UDP", "repro.net.arp:ARP", "repro.net.icmp:ICMP",
        "repro.net.dns_msg:DNSMessage", "repro.net.dhcp_msg:DHCPMessage",
    )],
    ("net.pack", "repro.net.packet:Packet.pack_payload"),
    ("net.addr", "repro.net.addresses:IPv4Address.__init__"),
    ("net.addr", "repro.net.addresses:MACAddress.__init__"),
    # sim: the dispatch loop, links, host stacks and their applications
    ("sim.dispatch", "repro.sim.simulator:Simulator.run_until"),
    ("sim.link", "repro.sim.link:Link.transmit"),
    ("sim.link", "repro.sim.link:WirelessLink.transmit"),
    ("sim.host", "repro.sim.host:Host._on_frame"),
    ("sim.host", "repro.sim.host:Host.send_ip"),
    ("sim.host", "repro.sim.traffic:TrafficGenerator._tick"),
    # openflow: datapath pipeline, controller->switch messages, table
    ("openflow.process_frame", "repro.openflow.datapath:Datapath.process_frame"),
    ("openflow.flow_mod", "repro.openflow.datapath:Datapath.handle_message"),
    ("openflow.expire", "repro.openflow.datapath:Datapath.expire_flows"),
    ("openflow.lookup", "repro.openflow.flow_table:FlowTable.lookup"),
    ("openflow.extract", "repro.openflow.match:extract_key"),
    # nox
    ("nox.receive", "repro.nox.controller:Controller.receive"),
    # services
    ("services.routing", "repro.services.routing:RouterCore.handle_packet_in"),
    ("services.routing", "repro.services.routing:RouterCore.learn_port"),
    ("services.dns", "repro.services.dnsproxy.proxy:DnsProxy.handle_packet_in"),
    ("services.dhcp", "repro.services.dhcp.server:DhcpServer.handle_packet_in"),
    ("services.control_api", "repro.services.control_api.api:ControlApi.handle_request"),
    # policy
    ("policy", "repro.policy.engine:PolicyEngine.install"),
    ("policy", "repro.policy.engine:PolicyEngine.remove"),
    ("policy", "repro.policy.engine:PolicyEngine.enforce"),
    # hwdb
    ("hwdb.insert", "repro.hwdb.database:HomeworkDatabase.insert"),
    ("hwdb.query", "repro.hwdb.database:HomeworkDatabase.query"),
    ("hwdb.rpc", "repro.hwdb.rpc:RpcServer.handle_datagram"),
    ("hwdb.client", "repro.hwdb.rpc:HwdbClient.query"),
    ("hwdb.sub", "repro.hwdb.database:Subscription.fire"),
    # executor helpers the query engine's plans call row by row
    ("hwdb.eval", "repro.hwdb.cql.executor:Evaluator.scalar"),
    ("hwdb.eval", "repro.hwdb.cql.executor:Evaluator.aggregate"),
    ("hwdb.eval", "repro.hwdb.cql.executor:apply_window_ex"),
    ("hwdb.eval", "repro.hwdb.cql.executor:_group"),
    ("hwdb.eval", "repro.hwdb.cql.executor:_order_rows"),
    # query
    ("query.execute", "repro.query.engine:QueryEngine.execute_select"),
    # store
    ("store.append", "repro.store.archive:TableTier.on_append"),
    ("store.append", "repro.store.archive:TableTier.on_evict"),
    ("store.flush", "repro.store.archive:DurableStore.flush"),
    ("store.scan", "repro.store.archive:TableTier.scan_since"),
    # measurement
    ("measurement.flow_poll", "repro.measurement.collectors:FlowCollector.poll"),
    ("measurement.flow_poll", "repro.measurement.collectors:FlowCollector._on_reply"),
    ("measurement.link_poll", "repro.measurement.collectors:LinkCollector.poll"),
    # obs
    ("obs.flush", "repro.obs.flush:MetricsFlusher.flush"),
]

#: Layers in repro-lint DAG order, plus the benchmark's own harness code.
LAYERS = [
    "net", "sim", "openflow", "nox", "services", "policy",
    "hwdb", "query", "store", "measurement", "obs", "bench",
]


def layer_of(key: str) -> str:
    return key.split(".", 1)[0]


class SpanRecorder:
    """Self-time and call accounting over nested wrapper spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Spans opened directly inside a span of each key.
        self.child_calls: Dict[str, int] = defaultdict(int)
        self.bytes: Dict[str, int] = defaultdict(int)
        #: Extra per-key observations made by wrappers (pruned segments...).
        self.extra: Dict[str, float] = defaultdict(float)
        # One [child_time, key, child_calls] cell per open span.
        self._stack: List[list] = []
        #: Wrapper bookkeeping per traced call, the medians of
        #: :meth:`calibrate` samples: ``inside_s`` falls between the span's
        #: clock readings and is taken off the span's self time;
        #: ``outside_s`` falls in the caller's span and is taken off the
        #: caller's.  So layers with many tiny calls inflate neither
        #: themselves nor their callers.
        self.inside_s = 0.0
        self.outside_s = 0.0
        self._samples: List[Tuple[float, float]] = []

    def calibrate(self, calls: int = 4000, rounds: int = 2) -> None:
        """Add one sample of the wrappers' per-call cost, measured on a
        no-op now.  The machine's speed drifts by tens of percent within
        seconds, so the traced run samples throughout and uses medians."""
        def noop(_a, _b) -> None:
            return None

        probe = SpanRecorder(self.clock)
        wrapped = probe.span("calibrate", noop)
        true = traced = spent = float("inf")  # minima: noise only adds
        for _ in range(rounds):
            true = min(true, call_cost(noop, calls, self.clock)[0])
            probe.reset()
            traced = min(traced, call_cost(wrapped, calls, self.clock)[0])
            spent = min(spent, probe.self_s["calibrate"] / calls)
        self._samples.append((max(0.0, spent - true), max(0.0, traced - spent)))
        self.inside_s = statistics.median(inside for inside, _ in self._samples)
        self.outside_s = statistics.median(outside for _, outside in self._samples)

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.child_calls.clear()
        self.bytes.clear()
        self.extra.clear()

    def span(self, key: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call is one span named ``key``.

        A call made while a span of the same key is innermost is part of
        that span: it is neither timed nor counted again.
        """
        clock = self.clock
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        child_calls = self.child_calls

        def traced(*args, **kwargs):
            if stack and stack[-1][1] is key:
                # Re-entry (recursion, a nested layer of the same codec):
                # already inside this key's span.
                return fn(*args, **kwargs)
            cell = [0.0, key, 0]
            stack.append(cell)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[key] += elapsed - cell[0]
                calls[key] += 1
                child_calls[key] += cell[2]
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][2] += 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def corrected_self_s(self) -> Dict[str, float]:
        """Self time per key with the wrappers' own per-call cost removed."""
        return defaultdict(float, {
            key: max(
                0.0,
                seconds - self.inside_s * self.calls[key] - self.outside_s * self.child_calls[key],
            )
            for key, seconds in self.self_s.items()
        })

    def overhead_s(self) -> float:
        """Estimated wall time the wrappers themselves took."""
        return (self.inside_s + self.outside_s) * sum(self.calls.values())

    def layer_self_s(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for key, seconds in self.corrected_self_s().items():
            out[layer_of(key)] += seconds
        return dict(out)


def call_cost(fn: Callable, calls: int, clock: Callable[[], float] = time.perf_counter):
    """``(seconds per call of fn(1, 2) in a loop, seconds of the bare loop)``.

    Two arguments, like the typical traced call (``self`` plus a value).
    """
    started = clock()
    for _ in range(calls):
        fn(1, 2)
    looped = clock() - started
    started = clock()
    for _ in range(calls):
        pass
    bare = clock() - started
    return (looped - bare) / calls, bare


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


def _counting(recorder: SpanRecorder, key: str, fn: Callable) -> Callable:
    """Span wrapper that also counts bytes of its first bytes argument."""
    inner = recorder.span(key, fn)
    tally = recorder.bytes

    def wrapped(data, *args, **kwargs):
        tally[key] += len(data)
        return inner(data, *args, **kwargs)

    return wrapped


def _rpc_wrapper(recorder: SpanRecorder, key: str, fn: Callable) -> Callable:
    """Counts request bytes and every reply/push datagram's bytes."""
    inner = recorder.span(key, fn)
    tally = recorder.bytes

    def wrapped(self, data, reply):
        tally[key] += len(data)

        def counted_reply(payload: bytes) -> None:
            tally[key] += len(payload)
            reply(payload)

        return inner(self, data, counted_reply)

    return wrapped


def _scan_wrapper(recorder: SpanRecorder, key: str, fn: Callable) -> Callable:
    """Tallies segments pruned and considered by archive scans."""
    inner = recorder.span(key, fn)
    extra = recorder.extra

    def wrapped(self, t_from):
        rows, info = inner(self, t_from)
        extra["store.segments_pruned"] += info.segments_pruned
        extra["store.segments_total"] += info.segments_total
        return rows, info

    return wrapped


def _stats_wrapper(recorder: SpanRecorder, key: str, fn: Callable) -> Callable:
    """Counts flow-stats entries the collector receives."""
    inner = recorder.span(key, fn)
    extra = recorder.extra

    def wrapped(self, reply):
        extra["openflow.stats_entries"] += len(reply.body)
        return inner(self, reply)

    return wrapped


_SPECIAL = {
    "repro.net.checksum:internet_checksum": _counting,
    "repro.hwdb.rpc:RpcServer.handle_datagram": _rpc_wrapper,
    "repro.store.archive:TableTier.scan_since": _scan_wrapper,
    "repro.measurement.collectors:FlowCollector._on_reply": _stats_wrapper,
}


class Patcher:
    """Installs the wrappers of :data:`TARGETS` and can take them out."""

    def __init__(self, recorder: SpanRecorder, targets=None):
        self.recorder = recorder
        self.targets = list(TARGETS if targets is None else targets)
        self._undo: List[Tuple[object, str, object]] = []

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self, extra: Optional[List[Tuple[str, object, str]]] = None) -> None:
        for key, target in self.targets:
            module, owner, name = _resolve(target)
            make = _SPECIAL.get(target, lambda rec, k, f: rec.span(k, f))
            if isinstance(owner, type):
                self._wrap_attribute(owner, name, key, make)
            else:
                self._wrap_function(module, name, key, make)
        for key, owner, name in extra or ():
            self._wrap_attribute(owner, name, key, lambda rec, k, f: rec.span(k, f))

    def _wrap_attribute(self, owner: type, name: str, key: str, make) -> None:
        raw = owner.__dict__[name]
        if isinstance(raw, classmethod):
            self._set(owner, name, classmethod(make(self.recorder, key, raw.__func__)))
        elif isinstance(raw, staticmethod):
            self._set(owner, name, staticmethod(make(self.recorder, key, raw.__func__)))
        else:
            self._set(owner, name, make(self.recorder, key, raw))

    def _wrap_function(self, module, name: str, key: str, make) -> None:
        original = getattr(module, name)
        wrapped = make(self.recorder, key, original)
        # Every module that bound the function by name holds its own
        # reference; patch them all, or their calls go untraced.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
