"""Gateway tests; :func:`shutdown` is their shared way to drain a server."""


async def shutdown(server):
    """Drain ``server``; no accepted connection may still wait on its request."""
    stats = await server.shutdown()
    pending = server.gateway.pending_connections
    assert pending == 0, f"{pending} connection(s) still pending after the drain"
    return stats
