"""Asyncio request frontend: real max-wait timers, replicas answered on the loop.

:class:`~repro.pir.frontend.PIRFrontend` batches on *simulated* arrival
stamps — deterministic, but its max-wait rule only fires when a later
arrival (or an explicit ``advance_time``) proves the wait expired.  In front
of live traffic a lone request must still flush once its wait elapses.

:class:`AsyncPIRFrontend` is that event-loop-driven counterpart:

* ``await submit(index)`` admits a request and resolves with the
  reconstructed record (one coroutine per in-flight client request);
* a real ``max_wait_seconds`` timer — a cancellable :mod:`asyncio` task,
  re-armed for the oldest pending request after every flush — triggers
  wait-flushes with no follow-up arrival needed;
* each flush calls the replicas' ``answer_batch`` **in sequence, on the loop
  thread**, exactly as the sync frontend does.  The replicas are independent
  machines and the cost model prices them as parallel (``sim.*``), but in
  one CPython process two worker threads buy GIL contention, not
  parallelism: on a 2-vCPU host, answering two replicas' batches in two
  threads measured 1.02–1.77× *slower* than calling them in sequence, at
  every benchmark shape.  A flush is therefore atomic on the loop — flushes
  never overlap, so batch k+1 sees batch k's cache admissions;
* batching semantics (size flush, wait flush, dedup fan-out, pairing by
  explicit request id, metrics) are shared with the sync frontend — both
  subclass :class:`~repro.pir.frontend.BatchingFrontend` and flush through
  its ``begin_flush`` / ``finish_flush``, so the two are bit-identical by
  construction.

Writers (:meth:`AsyncPIRFrontend.apply_updates`,
:meth:`AsyncPIRFrontend.reconfigure`) run their blocking work in a worker
thread behind a writer-preferring gate, and a flush waits while one is
active.  A failed flush (a replica drops, duplicates or invents an answer)
rejects every ``submit`` awaiting that batch with the
:class:`~repro.common.errors.ProtocolError` the pairing check raised.
"""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager
from typing import Dict, List, Optional, Sequence

from repro.pir.client import PIRClient
from repro.pir.frontend import (
    FLUSH_ON_CLOSE,
    FLUSH_ON_SIZE,
    FLUSH_ON_WAIT,
    BatchingFrontend,
    BatchingPolicy,
    PendingRequest,
)


class AsyncPIRFrontend(BatchingFrontend):
    """Batches concurrent ``await submit`` calls and answers them on the loop.

    The constructor surface mirrors :class:`~repro.pir.frontend.PIRFrontend`
    (``policy`` is a :class:`BatchingPolicy` or the adaptive AIMD variant;
    ``dedup=True`` keeps the trusted-aggregator caveat documented there).
    All methods must be called from a running event loop.  A flush —
    key generation, every replica's ``answer_batch`` in sequence, pairing,
    reconstruction, metrics — runs on the loop thread without yielding, so
    flushes never overlap and no lock guards the frontend's own state.
    Only the writers' blocking work leaves the loop.
    """

    def __init__(
        self,
        client: PIRClient,
        replicas: Sequence,
        policy: Optional[BatchingPolicy] = None,
        dedup: bool = False,
        observers: Sequence = (),
        cache=None,
    ) -> None:
        super().__init__(client, replicas, policy, dedup, observers, cache)
        self._futures: Dict[int, "asyncio.Future[bytes]"] = {}
        self._timer_task: Optional["asyncio.Task[None]"] = None
        # Flush/writer quiescence: a *writer* — a bulk update, or a topology
        # reconfiguration (:meth:`reconfigure`) — runs in a worker thread and
        # blocks new flushes while it runs.  Otherwise a flush could
        # reconstruct from mixed old/new replica states (XOR of the two is
        # garbage), re-admit pre-update bytes into the cache after the
        # invalidation, or span two plan versions across its replicas
        # mid-reshape.  A flush never yields, so none is in flight when a
        # writer takes the slot.
        self._quiesce: Optional[asyncio.Condition] = None
        self._writers_waiting = 0
        self._writer_active = False

    def _quiesce_condition(self) -> asyncio.Condition:
        if self._quiesce is None:
            self._quiesce = asyncio.Condition()
        return self._quiesce

    @asynccontextmanager
    async def _quiesced(self):
        """Hold the writer slot: new flushes blocked until it is released.

        Writer-preferring — a waiting writer also holds new flushes back, so
        queued writers run back to back.  Shared by :meth:`apply_updates`
        (bulk data swaps) and :meth:`reconfigure` (topology swaps); both
        therefore guarantee no retrieval reconstructs across the change.
        """
        quiesce = self._quiesce_condition()
        async with quiesce:
            self._writers_waiting += 1
            try:
                while self._writer_active:
                    await quiesce.wait()
                self._writer_active = True
            finally:
                self._writers_waiting -= 1
                quiesce.notify_all()
        try:
            yield
        finally:
            async with quiesce:
                self._writer_active = False
                quiesce.notify_all()

    async def reconfigure(self, mutator):
        """Run a data-plane reconfiguration inside the writer quiesce.

        The asyncio counterpart of
        :meth:`repro.pir.frontend.PIRFrontend.reconfigure`: ``mutator`` (a
        plain callable — e.g. one applying a
        :class:`~repro.shard.plan.TopologyChange` to every replica fleet)
        runs between flushes, and no flush starts until it returns — so no
        flush ever spans two plan versions.  Returns ``mutator()``'s
        result.  The mutator runs in a worker thread (like the appliers in
        :meth:`apply_updates`): a topology swap prepares fresh children on
        real database slices, and that blocking numpy work must stall only
        the deliberately-quiesced flushes, not every coroutine on the loop.
        Drive this from a management task, not from a frontend observer:
        observers run inside a flush, on the loop, and cannot await.
        """
        async with self._quiesced():
            result = await asyncio.to_thread(mutator)
            self.metrics.reconfigurations += 1
            return result

    async def apply_updates(self, updates) -> None:
        """Apply ``(index, record_bytes)`` updates to every replica.

        The async counterpart of
        :meth:`repro.pir.frontend.PIRFrontend.apply_updates`: replicas
        re-copy their dirty shards in worker threads (blocking numpy).
        The update holds new flushes until all replicas carry the new bytes
        and the cache's dirty indices are dropped — so no retrieval ever
        reconstructs from mixed old/new replica states, and no flush that
        scanned the old bytes can re-admit them after the invalidation.
        """
        updates = list(updates)
        if not updates:
            return
        appliers = self._update_appliers()
        async with self._quiesced():
            try:
                for replica_apply in appliers:
                    await asyncio.to_thread(replica_apply, updates)
            finally:
                # Invalidate even when an applier fails midway: the replicas
                # may be left inconsistent (the caller sees the error), but a
                # stale cached record silently masking that inconsistency
                # would be strictly worse than the scan surfacing it.
                if self.cache is not None:
                    self.cache.invalidate(sorted({index for index, _ in updates}))

    # -- admission -------------------------------------------------------------------

    async def submit(self, index: int) -> bytes:
        """Admit a retrieval request; resolves with the reconstructed record.

        Resolution happens when the request's batch flushes — on reaching
        ``max_batch_size`` (this call dispatches the batch itself), or when
        the max-wait timer fires for the batch's oldest request.  A protocol
        fault anywhere in the batch rejects every awaiting submitter.
        """
        # Reject a bad index before registering, so the error surfaces here
        # and no orphan pending entry is left behind; keys are generated per
        # flush (:meth:`~repro.pir.frontend.BatchingFrontend.begin_flush`).
        self.client.check_index(index)
        loop = asyncio.get_running_loop()
        request = self._admit(index, loop.time())
        future: "asyncio.Future[bytes]" = loop.create_future()
        self._futures[request.request_id] = future
        if len(self._pending) >= self.policy.max_batch_size:
            batch = self._take_pending()
            self._disarm_timer()
            # Shielded: cancelling *this* submitter must not abandon the
            # flush mid-flight — the rest of the batch is awaiting it too.
            await asyncio.shield(self._dispatch(batch, FLUSH_ON_SIZE))
        else:
            self._arm_timer()
        return await future

    async def retrieve_batch(self, indices: Sequence[int]) -> List[bytes]:
        """Retrieve several records via concurrent submitters.

        Spawns one ``submit`` task per index, waits until every one has been
        admitted, then closes out the trailing partial batch instead of
        sitting out its max-wait.  Records return in submission order.
        """
        indices = list(indices)  # may be a one-shot iterable; iterated twice
        target = self._next_request_id + len(indices)
        tasks = [asyncio.create_task(self.submit(index)) for index in indices]

        def admission_failed() -> bool:
            # A task that finished with an error before the count reached the
            # target died during admission (e.g. index out of range) — stop
            # waiting for a request id it will never take.
            return any(task.done() and task.exception() is not None for task in tasks)

        while self._next_request_id < target and not admission_failed():
            await asyncio.sleep(0)
        await self.close()
        return list(await asyncio.gather(*tasks))

    async def close(self) -> None:
        """Cancel the wait timer and flush whatever is pending."""
        timer = self._disarm_timer()
        if timer is not None:
            try:
                await timer
            except asyncio.CancelledError:
                pass
        while self._pending:
            await asyncio.shield(
                self._dispatch(self._take_pending(), FLUSH_ON_CLOSE)
            )

    # -- internals ----------------------------------------------------------------------

    def _disarm_timer(self) -> Optional["asyncio.Task[None]"]:
        """Cancel the timer task, if one is running, and return it."""
        timer, self._timer_task = self._timer_task, None
        if timer is None or timer.done():
            return None
        timer.cancel()
        return timer

    def _arm_timer(self) -> None:
        """Ensure a timer task is watching the oldest pending request."""
        if self._timer_task is None or self._timer_task.done():
            self._timer_task = asyncio.create_task(self._timer_loop())

    async def _timer_loop(self) -> None:
        """Wait-flush whenever the oldest pending request's wait expires.

        One task serves consecutive batches: after a flush it re-arms itself
        for the new oldest pending request, and exits once nothing is
        pending (the next ``submit`` starts a fresh task).  A size flush
        empties the queue and disarms the task, so no timer sleeps on with
        nothing pending, and the next batch's timer starts in the context
        (:mod:`contextvars`) of that batch's first request, not of a request
        answered long ago.
        """
        loop = asyncio.get_running_loop()
        try:
            while self._pending:
                deadline = self._pending[0].arrival_seconds + self.policy.max_wait_seconds
                delay = deadline - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                    continue
                # Shield the flush: cancelling the timer (close()) must not
                # abandon a dispatch mid-flight with submitters awaiting it.
                await asyncio.shield(
                    self._dispatch(self._take_pending(), FLUSH_ON_WAIT)
                )
        finally:
            if self._timer_task is asyncio.current_task():
                self._timer_task = None

    async def _dispatch(self, batch: List[PendingRequest], reason: str) -> None:
        """Wait out any writer, then run the flush atomically on the loop.

        Never raises — a failure rejects the batch's futures instead, so the
        error surfaces from every ``await submit`` of the batch rather than
        inside whichever coroutine happened to trigger the flush.
        """
        if not batch:
            return
        quiesce = self._quiesce_condition()
        async with quiesce:
            while self._writer_active or self._writers_waiting:
                await quiesce.wait()
        self._run_flush(batch, reason)

    def _run_flush(self, batch: List[PendingRequest], reason: str) -> None:
        """The flush proper: the sync frontend's dispatch, with futures."""
        loop = asyncio.get_running_loop()
        try:
            plan = self.begin_flush(batch, reason)
            raw_results = [
                replica.answer_batch(queries)
                for replica, queries in zip(self.replicas, plan.per_server)
            ]
            outcome = self.finish_flush(plan, raw_results, loop.time())
        except Exception as error:  # reject the whole batch, batch-wide fault
            for request in batch:
                future = self._futures.pop(request.request_id, None)
                if future is not None and not future.done():
                    future.set_exception(error)
            return
        # Resolve the batch's futures before the observers, so an observer
        # (which may run a blocking shard migration on the loop) cannot
        # strand them.  Observers that need heavier isolation should be
        # driven from a management task instead of this hook.
        for request in batch:
            future = self._futures.pop(request.request_id)
            if not future.done():
                future.set_result(outcome.records[request.request_id])
        try:
            self._notify_observers(outcome)
        except Exception as error:
            # The batch already succeeded and its futures are resolved; an
            # observer fault (e.g. a control-plane migration failing) must
            # not masquerade as a retrieval failure in whichever submitter
            # triggered the flush, nor kill the timer task.  Route it to
            # the loop's exception handler instead.
            loop.call_exception_handler(
                {
                    "message": "frontend observer raised during post-flush "
                    "notification",
                    "exception": error,
                }
            )
