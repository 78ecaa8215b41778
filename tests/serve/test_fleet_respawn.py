"""A respawn caught by a stop must not leave its worker running.

The supervisor respawns a dead worker in a task: back off, then start a
new worker on an executor thread.  If the slot is stopped meanwhile (a
retiring swap, or fleet shutdown), the task is cancelled, but the
executor thread cannot be: it goes on starting the worker.  These tests
hold a respawn's start on an event until the stop is under way, then
check that every worker started was stopped by the time the swap or the
shutdown returned, and that no server thread outlives the fleet.
"""

import threading
import time

from repro.serve import (
    FleetConfig,
    LocalWorker,
    PlacementFleet,
    QueryEngine,
    RetryPolicy,
    ServerThread,
)


def fast_config(**overrides):
    defaults = dict(
        workers=1,
        heartbeat_interval=0.05,
        heartbeat_timeout=0.3,
        max_missed=2,
        respawn_backoff=0.05,
        respawn_backoff_cap=0.3,
        retry=RetryPolicy(retries=2, backoff=0.01, backoff_cap=0.05),
        seed=7,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def wait_until(predicate, timeout=15.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def serve_threads():
    return {
        thread
        for thread in threading.enumerate()
        if thread.name == "rapflow-serve" and thread.is_alive()
    }


class Ledger:
    """Counts worker starts and ends, and holds gated starts."""

    def __init__(self):
        self.lock = threading.Lock()
        self.started = 0
        self.ended = 0
        self.starting = 0
        self.gate = threading.Event()
        self.blocked = threading.Event()


class GatedWorker(LocalWorker):
    """An in-process worker whose start can wait on the ledger's gate."""

    def __init__(self, worker_id, artifact, ledger, gated):
        super().__init__(worker_id, lambda: QueryEngine(artifact))
        self._ledger = ledger
        self._gated = gated

    def start(self):
        with self._ledger.lock:
            self._ledger.starting += 1
        try:
            if self._gated:
                self._ledger.blocked.set()
                assert self._ledger.gate.wait(timeout=30.0)
            super().start()
            with self._ledger.lock:
                self._ledger.started += 1
        finally:
            with self._ledger.lock:
                self._ledger.starting -= 1

    def stop(self):
        self._count_end()
        super().stop()

    def kill(self):
        self._count_end()
        super().kill()

    def _count_end(self):
        if self._handle is not None:
            with self._ledger.lock:
                self._ledger.ended += 1


def gated_factory(artifact, ledger, free_starts):
    """Workers whose starts block on the gate after ``free_starts``."""
    made = []

    def factory(index):
        worker = GatedWorker(
            f"w{index}", artifact, ledger, gated=len(made) >= free_starts
        )
        made.append(worker)
        return worker

    return factory


def respawn_held_mid_start(fleet, ledger):
    """Kill the only worker and wait until its respawn blocks in start."""
    fleet.worker_handle(0).kill()
    assert ledger.blocked.wait(timeout=15.0), "the supervisor never respawned"


def all_starts_settled(ledger):
    with ledger.lock:
        return ledger.starting == 0


class TestRespawnCaughtByStop:
    def test_retiring_swap_stops_the_worker_its_respawn_starts(
        self, artifact, linear_artifact, async_sanitizer
    ):
        leaked_before = async_sanitizer.leaked_tasks
        threads_before = serve_threads()
        ledger = Ledger()
        fleet = PlacementFleet(
            gated_factory(artifact, ledger, free_starts=1),
            digest=artifact.digest,
            config=fast_config(),
        )
        with ServerThread(fleet) as handle:
            respawn_held_mid_start(fleet, ledger)
            swap = fleet.request_swap(
                linear_artifact.digest,
                gated_factory(linear_artifact, ledger, free_starts=1),
            )
            # Release the held start only once the retire is stopping the
            # old slot (or, without the fix, has already dropped it).
            assert wait_until(
                lambda: swap.done()
                or any(
                    slot.digest == artifact.digest and slot.state == "stopping"
                    for slot in list(fleet._slots)
                )
            )
            ledger.gate.set()
            record = swap.result(timeout=30)
            with ledger.lock:
                at_return = (ledger.started, ledger.ended)
            assert wait_until(lambda: all_starts_settled(ledger))
            with ledger.lock:
                settled = (ledger.started, ledger.ended)
            client = handle.client()
            assert client.healthz()["digest"] == linear_artifact.digest
            client.close()
        assert record["retired"] is True
        # initial old worker + its respawn + the incoming worker started;
        # the kill, the retire's stop of the respawned one: ended.
        assert at_return == (3, 2)
        assert settled == at_return
        with ledger.lock:
            assert ledger.started == ledger.ended == 3
        assert serve_threads() <= threads_before
        assert async_sanitizer.leaked_tasks == leaked_before

    def test_shutdown_stops_the_worker_its_respawn_starts(
        self, artifact, async_sanitizer
    ):
        leaked_before = async_sanitizer.leaked_tasks
        threads_before = serve_threads()
        ledger = Ledger()
        fleet = PlacementFleet(
            gated_factory(artifact, ledger, free_starts=1),
            digest=artifact.digest,
            config=fast_config(),
        )
        handle = ServerThread(fleet).__enter__()
        respawn_held_mid_start(fleet, ledger)
        closer = threading.Thread(target=handle.__exit__, args=(None, None, None))
        closer.start()
        assert wait_until(
            lambda: not closer.is_alive() or fleet._slots[0].state == "stopping"
        )
        ledger.gate.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        assert wait_until(lambda: all_starts_settled(ledger))
        with ledger.lock:
            assert ledger.started == ledger.ended == 2
        assert serve_threads() <= threads_before
        assert async_sanitizer.leaked_tasks == leaked_before
