"""Client for the coordinator service.

:class:`CoordinatorClient` reuses the :class:`~repro.net.client.SiteClient`
connection pool and handshake — the coordinator speaks the same frame
protocol as a site server — and adds the QUERY and REBALANCE round
trips: a QUERY_RESULT answer returns the serving payload, a QUERY_ERROR
raises the coordinator's typed exception
(:class:`~repro.errors.AdmissionRejected` for a shed query,
:class:`~repro.errors.QueryDeadlineExceeded` for an expired deadline,
and so on) rebuilt by class name exactly as site ERROR frames are.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TransportError
from repro.net.client import SiteClient
from repro.net.protocol import FrameType


class CoordinatorClient(SiteClient):
    """Pooled connections to one coordinator."""

    def _peer(self) -> str:
        return "coordinator"

    def query(
        self,
        query: str,
        collection: Optional[str] = None,
        deadline_seconds: Optional[float] = None,
        read_timeout: Optional[float] = None,
    ) -> dict:
        """Run one query through the coordinator.

        Returns the QUERY_RESULT payload (``result_text``,
        ``result_bytes``, timing and failover stats). The coordinator
        picks the reply's form by the answer's size — inline, or
        RESULT_CHUNK frames ahead of the QUERY_RESULT — and the payload
        returned is the same either way (assembled as a site's reply
        is). QUERY_ERROR replies raise their mapped exception.
        """
        payload: dict = {"query": query}
        if collection is not None:
            payload["collection"] = collection
        if deadline_seconds is not None:
            payload["deadline_seconds"] = deadline_seconds
        return self._answer(
            FrameType.QUERY,
            payload,
            read_timeout,
            (FrameType.QUERY_RESULT, FrameType.QUERY_ERROR),
        )[0]

    def coordinator_stats(self, read_timeout: Optional[float] = 5.0) -> dict:
        """The coordinator's serving stats (admission, plan cache, pools)."""
        return self.ping(read_timeout=read_timeout)

    def rebalance(
        self, action: dict, read_timeout: Optional[float] = None
    ) -> dict:
        """Apply one rebalance action online: ``action`` is a
        :meth:`repro.rebalance.RebalanceAction.to_dict` payload. Returns
        ``{"action", "report", "catalog_version"}``; failures raise the
        coordinator's typed exception (e.g.
        :class:`~repro.errors.RebalanceError`)."""
        reply, _, _ = self.call(
            FrameType.REBALANCE, {"action": action}, read_timeout
        )
        if reply.type is not FrameType.OK:
            raise TransportError(f"REBALANCE answered with {reply.type.name}")
        return reply.payload
