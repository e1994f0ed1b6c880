"""The NOX controller core.

Receives OpenFlow messages from the secure channel, converts them into
controller events (``packet_in``, ``flow_removed``, ``datapath_join``,
``stats_reply``...), and dispatches them through a priority-ordered
handler chain to the installed components.  Also provides the send-side
API components use: flow-mod installation, packet-out, stats requests.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Type

from ..core.errors import ControllerError
from ..net.trace import trace_of
from ..openflow.actions import ActionList
from ..openflow.channel import SecureChannel
from ..openflow.flow_table import DEFAULT_PRIORITY
from ..openflow.match import Match
from ..openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMessage,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowRemoved,
    Hello,
    NO_BUFFER,
    OpenFlowMessage,
    PacketIn,
    PacketOut,
    PortStatus,
    StatsReply,
    StatsRequest,
)
from .component import CONTINUE, Component, STOP

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.simulator import Simulator

logger = logging.getLogger(__name__)

# Event names components can register for.
EV_DATAPATH_JOIN = "datapath_join"
EV_DATAPATH_LEAVE = "datapath_leave"
EV_PACKET_IN = "packet_in"
EV_FLOW_REMOVED = "flow_removed"
EV_PORT_STATUS = "port_status"
EV_STATS_REPLY = "stats_reply"
EV_ERROR = "error"


class _Registration:
    __slots__ = ("chain", "priority", "handler", "owner", "active", "seq")

    def __init__(self, chain: List, priority: int, handler, owner: str, seq: int):
        self.chain = chain
        self.priority = priority
        self.handler = handler
        self.owner = owner
        self.active = True
        self.seq = seq

    def cancel(self) -> None:
        if self.active:
            self.chain.remove(self)
            self.active = False


class Controller:
    """A NOX-like controller bound to one datapath's secure channel.

    (The home router has exactly one datapath; multi-switch NOX features
    like topology discovery are out of the paper's scope.)
    """

    def __init__(self, sim: "Simulator", registry=None):
        self.sim = sim
        self.channel: Optional[SecureChannel] = None
        self.datapath_id: Optional[int] = None
        self.ports: Dict[int, str] = {}
        self._chains: Dict[str, List[_Registration]] = {}
        self._components: Dict[str, Component] = {}
        self._seq = 0
        self._pending_stats: Dict[int, Callable[[StatsReply], None]] = {}
        self._pending_echoes: Dict[int, bytes] = {}
        self._pending_barriers: Dict[int, Callable[[], None]] = {}

        self.packet_ins_handled = 0
        self.flow_mods_sent = 0
        self.packet_outs_sent = 0

        self.registry = registry
        if registry is None:
            self._m_packet_ins = None
            self._m_flow_mods = None
            self._m_packet_outs = None
            self._m_handle_lat = None
            self._m_handler_errors = None
        else:
            self._m_packet_ins = registry.counter("openflow.packet_in_total")
            self._m_flow_mods = registry.counter("openflow.flow_mod_total")
            self._m_packet_outs = registry.counter("openflow.packet_out_total")
            self._m_handle_lat = registry.histogram("openflow.packet_in_handle_seconds")
            self._m_handler_errors = registry.counter("openflow.handler_error_total")

    # ------------------------------------------------------------------
    # Component management
    # ------------------------------------------------------------------

    def add_component(self, component_cls: Type[Component], **kwargs) -> Component:
        """Instantiate, register and install a component."""
        component = component_cls(self, **kwargs)
        if component.name in self._components:
            raise ControllerError(f"component {component.name!r} already loaded")
        self._components[component.name] = component
        component.install()
        component.installed = True
        return component

    def component(self, name: str) -> Component:
        try:
            return self._components[name]
        except KeyError:
            raise ControllerError(f"no component named {name!r}") from None

    def remove_component(self, name: str) -> None:
        component = self._components.pop(name, None)
        if component is not None:
            component.uninstall()

    def components(self) -> List[str]:
        return list(self._components)

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------

    def register_handler(
        self, event_name: str, handler, priority: int = 100, owner: str = "?"
    ) -> _Registration:
        chain = self._chains.setdefault(event_name, [])
        self._seq += 1
        registration = _Registration(chain, priority, handler, owner, self._seq)
        chain.append(registration)
        chain.sort(key=lambda r: (r.priority, r.seq))
        return registration

    def dispatch(self, event_name: str, *args) -> None:
        """Run the handler chain; a STOP verdict consumes the event."""
        for registration in list(self._chains.get(event_name, ())):
            if not registration.active:
                continue
            try:
                verdict = registration.handler(*args)
            except Exception:  # noqa: BLE001 - a broken component must not kill NOX
                logger.exception(
                    "component %s handler for %s raised", registration.owner, event_name
                )
                if self._m_handler_errors is not None:
                    self._m_handler_errors.inc()
                continue
            if verdict == STOP:
                return

    # ------------------------------------------------------------------
    # Secure channel plumbing
    # ------------------------------------------------------------------

    def connect(self, channel: SecureChannel) -> None:
        """Attach to a datapath's channel and begin the handshake."""
        self.channel = channel
        self.send(FeaturesRequest())

    # SimulationError out of the reply sends is unreachable: the channel
    # latency it would come from is validated in SecureChannel.__init__.
    def receive(self, msg: OpenFlowMessage) -> None:  # repro: ignore[deep-except-escape]
        """Entry point for switch→controller messages."""
        if isinstance(msg, Hello):
            return
        if isinstance(msg, EchoRequest):
            self.send(EchoReply(msg.data, xid=msg.xid))
        elif isinstance(msg, EchoReply):
            self._pending_echoes.pop(msg.xid, None)
        elif isinstance(msg, BarrierReply):
            callback = self._pending_barriers.pop(msg.xid, None)
            if callback is not None:
                callback()
        elif isinstance(msg, FeaturesReply):
            self.datapath_id = msg.datapath_id
            self.ports = {p.number: p.name for p in msg.ports}
            self.dispatch(EV_DATAPATH_JOIN, msg)
        elif isinstance(msg, PacketIn):
            self.packet_ins_handled += 1
            ctx = trace_of(msg.data)
            if ctx is not None:
                ctx.hop(
                    "controller",
                    "packet_in",
                    cause=f"in_port={msg.in_port} reason={msg.reason}",
                )
            if self._m_packet_ins is not None:
                self._m_packet_ins.inc()
                clock = self.registry.clock
                started = clock()
                self.dispatch(EV_PACKET_IN, msg)
                self._m_handle_lat.observe(clock() - started)
            else:
                self.dispatch(EV_PACKET_IN, msg)
        elif isinstance(msg, FlowRemoved):
            self.dispatch(EV_FLOW_REMOVED, msg)
        elif isinstance(msg, PortStatus):
            self.dispatch(EV_PORT_STATUS, msg)
        elif isinstance(msg, StatsReply):
            callback = self._pending_stats.pop(msg.xid, None)
            if callback is not None:
                callback(msg)
            else:
                self.dispatch(EV_STATS_REPLY, msg)
        elif isinstance(msg, ErrorMessage):
            logger.warning("switch error: %s %s", msg.error_type, msg.detail)
            self.dispatch(EV_ERROR, msg)

    def send(self, msg: OpenFlowMessage) -> None:
        if self.channel is None:
            raise ControllerError("controller not connected to a datapath")
        self.channel.to_switch(msg)

    # ------------------------------------------------------------------
    # Send-side API for components
    # ------------------------------------------------------------------

    def install_flow(
        self,
        match: Match,
        actions: ActionList,
        priority: int = DEFAULT_PRIORITY,
        idle_timeout: float = 0.0,
        hard_timeout: float = 0.0,
        cookie: int = 0,
        buffer_id: int = NO_BUFFER,
        send_flow_removed: bool = False,
    ) -> None:
        """Add a rule to the datapath (the paper's basic control verb)."""
        self.flow_mods_sent += 1
        if self._m_flow_mods is not None:
            self._m_flow_mods.inc()
        self.send(
            FlowMod.add(
                match,
                actions,
                priority=priority,
                idle_timeout=idle_timeout,
                hard_timeout=hard_timeout,
                cookie=cookie,
                buffer_id=buffer_id,
                send_flow_removed=send_flow_removed,
            )
        )

    def remove_flows(self, match: Match, strict: bool = False, priority: int = DEFAULT_PRIORITY) -> None:
        self.flow_mods_sent += 1
        if self._m_flow_mods is not None:
            self._m_flow_mods.inc()
        self.send(FlowMod.delete(match, strict=strict, priority=priority))

    def send_packet(
        self, data: bytes, actions: ActionList, in_port: int = 0xFFFF,
        buffer_id: int = NO_BUFFER,
    ) -> None:
        """Packet-out: inject ``data`` (or a buffered packet) with actions."""
        self.packet_outs_sent += 1
        if self._m_packet_outs is not None:
            self._m_packet_outs.inc()
        self.send(
            PacketOut(actions=actions, data=data, buffer_id=buffer_id, in_port=in_port)
        )

    def request_stats(
        self,
        kind: int,
        callback: Callable[[StatsReply], None],
        match: Optional[Match] = None,
        port_no: Optional[int] = None,
    ) -> None:
        """Issue a stats request; ``callback`` fires with the reply."""
        request = StatsRequest(kind, match=match, port_no=port_no)
        self._pending_stats[request.xid] = callback
        self.send(request)

    def barrier(self, callback: Optional[Callable[[], None]] = None) -> int:
        """Fence: ``callback`` fires once the switch has processed every
        message sent before the barrier.  Returns the request xid."""
        request = BarrierRequest()
        if callback is not None:
            self._pending_barriers[request.xid] = callback
        self.send(request)
        return request.xid

    def echo(self, data: bytes = b"") -> int:
        """Send a liveness probe; the matching reply clears it from the
        pending set, so a stuck channel leaves the xid behind."""
        request = EchoRequest(data)
        self._pending_echoes[request.xid] = data
        self.send(request)
        return request.xid

    def pending_echoes(self) -> List[int]:
        """Probe xids still awaiting a reply (unanswered = channel stuck)."""
        return sorted(self._pending_echoes)

    def __repr__(self) -> str:
        return (
            f"Controller(dpid={self.datapath_id}, "
            f"components={list(self._components)})"
        )
