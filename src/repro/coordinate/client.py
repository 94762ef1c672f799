"""Client for the coordinator service.

:class:`CoordinatorClient` reuses the :class:`~repro.net.client.SiteClient`
connection pool and handshake — the coordinator speaks the same frame
protocol as a site server — and adds the QUERY round trip: a
QUERY_RESULT answer returns the serving payload, a QUERY_ERROR raises
the coordinator's typed exception
(:class:`~repro.errors.AdmissionRejected` for a shed query,
:class:`~repro.errors.QueryDeadlineExceeded` for an expired deadline,
and so on) rebuilt by class name exactly as site ERROR frames are.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TransportError
from repro.net.client import SiteClient
from repro.net.protocol import FrameType, payload_to_exception


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
        returned is the same either way. QUERY_ERROR replies raise
        their mapped exception.
        """
        payload: dict = {"query": query}
        if collection is not None:
            payload["collection"] = collection
        if deadline_seconds is not None:
            payload["deadline_seconds"] = deadline_seconds
        chunks: list[bytes] = []
        reply, _, _ = self._exchange(
            FrameType.QUERY,
            payload,
            read_timeout,
            terminal=(FrameType.QUERY_RESULT, FrameType.QUERY_ERROR),
            on_chunk=chunks.append,
        )
        if reply.type is FrameType.QUERY_ERROR:
            raise payload_to_exception(reply.payload)
        if not chunks:
            return reply.payload
        # A chunk may end inside a multi-byte character: join, then decode.
        return {**reply.payload, "result_text": b"".join(chunks).decode("utf-8")}

    def coordinator_stats(self, read_timeout: Optional[float] = 5.0) -> dict:
        """The coordinator's serving stats (admission, plan cache, pools)."""
        return self.ping(read_timeout=read_timeout)

    def advise(
        self,
        collection: Optional[str] = None,
        top: int = 5,
        read_timeout: Optional[float] = None,
    ) -> dict:
        """Ask the workload advisor for ranked rebalance actions.

        Returns ``{"actions": [...], "catalog_version", "query_log"}``;
        each action dict round-trips through
        :meth:`repro.partix.advisor.RebalanceAction.from_dict`.
        """
        payload: dict = {"top": top}
        if collection is not None:
            payload["collection"] = collection
        reply, _, _ = self.call(FrameType.ADVISE, payload, read_timeout)
        if reply.type is not FrameType.OK:
            raise TransportError(f"ADVISE answered with {reply.type.name}")
        return reply.payload

    def rebalance(
        self,
        collection: Optional[str] = None,
        action: Optional[dict] = None,
        read_timeout: Optional[float] = None,
    ) -> dict:
        """Apply one rebalance action online (the advisor's top pick when
        ``action`` is None). Returns ``{"action", "report",
        "catalog_version"}``; failures raise the coordinator's typed
        exception (e.g. :class:`~repro.errors.RebalanceError`)."""
        payload: dict = {}
        if collection is not None:
            payload["collection"] = collection
        if action is not None:
            payload["action"] = action
        reply, _, _ = self.call(FrameType.REBALANCE, payload, read_timeout)
        if reply.type is not FrameType.OK:
            raise TransportError(f"REBALANCE answered with {reply.type.name}")
        return reply.payload
