"""Fixture: well-formed metric names."""


def register(registry):
    registry.counter("dhcp.leases_total")
    registry.gauge("hosts.active")
    registry.histogram("hwdb.insert_seconds")
    registry.histogram("openflow.packet_in_handle_seconds")
