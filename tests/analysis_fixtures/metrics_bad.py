"""Fixture: metric literals that break the registry conventions."""


def register(registry):
    registry.counter("FlowsTotal")
    registry.gauge("hosts")
    registry.histogram("dhcp.lease_seconds")
    registry.counter("dhcp.lease_seconds")
    registry.histogram("Handle-Packet")
