"""The writer-preferring RW lock and the single-flight table."""

from __future__ import annotations

import asyncio

import pytest

from repro.service.locks import ReadWriteLock
from repro.service.singleflight import SingleFlight


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# ReadWriteLock
# ---------------------------------------------------------------------------
def test_readers_are_concurrent():
    async def main():
        lock = ReadWriteLock()
        peak = 0
        active = 0

        async def read():
            nonlocal peak, active
            async with lock.read_locked():
                active += 1
                peak = max(peak, active)
                await asyncio.sleep(0.01)
                active -= 1

        await asyncio.gather(*(read() for _ in range(5)))
        assert peak == 5
        assert lock.readers == 0

    run(main())


def test_writer_excludes_readers_and_writers():
    async def main():
        lock = ReadWriteLock()
        log: list[str] = []

        async def write(tag):
            async with lock.write_locked():
                log.append(f"{tag}+")
                await asyncio.sleep(0.01)
                log.append(f"{tag}-")

        async def read(tag):
            async with lock.read_locked():
                log.append(f"{tag}+")
                await asyncio.sleep(0.005)
                log.append(f"{tag}-")

        await asyncio.gather(write("w1"), write("w2"), read("r"))
        # Every acquisition closes before the next opens except reader pairs;
        # here: each writer's +/- must be adjacent in the log.
        for tag in ("w1", "w2"):
            opened = log.index(f"{tag}+")
            assert log[opened + 1] == f"{tag}-"

    run(main())


def test_writer_preference_blocks_new_readers():
    """A waiting writer starves no longer: new readers queue behind it."""

    async def main():
        lock = ReadWriteLock()
        order: list[str] = []
        release_first_reader = asyncio.Event()

        async def first_reader():
            async with lock.read_locked():
                order.append("r1")
                await release_first_reader.wait()

        async def writer():
            async with lock.write_locked():
                order.append("w")

        async def late_reader():
            async with lock.read_locked():
                order.append("r2")

        reader_task = asyncio.create_task(first_reader())
        await asyncio.sleep(0.01)
        writer_task = asyncio.create_task(writer())
        await asyncio.sleep(0.01)
        late_task = asyncio.create_task(late_reader())
        await asyncio.sleep(0.01)
        assert order == ["r1"]  # writer waiting, late reader parked behind it
        release_first_reader.set()
        await asyncio.gather(reader_task, writer_task, late_task)
        assert order == ["r1", "w", "r2"]

    run(main())


def test_lock_released_on_exception():
    async def main():
        lock = ReadWriteLock()
        with pytest.raises(RuntimeError):
            async with lock.write_locked():
                raise RuntimeError("boom")
        # The writer let go: a reader gets in without waiting.
        await asyncio.wait_for(lock.acquire_read(), timeout=1.0)
        assert lock.readers == 1
        lock.release_read()

    run(main())


# ---------------------------------------------------------------------------
# SingleFlight
# ---------------------------------------------------------------------------
def test_single_flight_collapses_concurrent_calls():
    async def main():
        flight = SingleFlight()
        computations = 0

        async def call():
            nonlocal computations
            leader, future = flight.acquire("key")
            if leader:
                try:
                    await asyncio.sleep(0.01)
                    computations += 1
                    future.set_result(42)
                finally:
                    flight.release("key")
                return 42, True
            return await future, False

        results = await asyncio.gather(*(call() for _ in range(8)))
        assert computations == 1
        assert all(value == 42 for value, _leader in results)
        assert sum(1 for _v, leader in results if leader) == 1
        assert len(flight) == 0

    run(main())


def test_single_flight_propagates_leader_failure():
    async def main():
        flight = SingleFlight()
        follower_joined = asyncio.Event()

        async def leader_call():
            leader, future = flight.acquire("k")
            assert leader
            try:
                await follower_joined.wait()
                future.set_exception(ValueError("engine exploded"))
                future.exception()  # mark retrieved
            finally:
                flight.release("k")

        async def follower_call():
            await asyncio.sleep(0)  # let the leader acquire first
            leader, future = flight.acquire("k")
            assert not leader
            follower_joined.set()
            with pytest.raises(ValueError, match="engine exploded"):
                await future

        await asyncio.gather(leader_call(), follower_call())

    run(main())


def test_distinct_keys_do_not_collapse():
    async def main():
        flight = SingleFlight()
        leader_a, _fa = flight.acquire(("s", "a"))
        leader_b, _fb = flight.acquire(("s", "b"))
        assert leader_a and leader_b
        assert len(flight) == 2
        flight.release(("s", "a"))
        flight.release(("s", "b"))
        flight.release(("s", "b"))  # idempotent
        assert len(flight) == 0

    run(main())
