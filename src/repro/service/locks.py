"""An asyncio readers-writer lock for per-session update serialisation.

Each service session holds one :class:`ReadWriteLock`: decision requests and
world streams take the *read* side (they may overlap freely — engine work
changes nothing of the :class:`~repro.api.Database` facade but its memo
caches, whose entries are stored whole, and its live SAT session, which
serialises its own calls), while ``update``/``batch`` take the *write*
side, so an update never mutates the facade while an in-flight read is
consulting it.  A read may outlive its request: a decision that timed out
keeps the read side until its worker thread returns, by handing
:meth:`ReadWriteLock.release_read` to the work's done-callback.

The lock is writer-preferring: once a writer is waiting, new readers queue
behind it.  Updates are short (row-level diffs plus dependency-scoped cache
eviction) and reads can be long (an engine search), so without preference a
steady read stream could starve updates forever.  Deadlock-freedom: readers
never wait while holding the lock on anything a writer owns, writers hold
nothing while waiting, and the single-flight layer's followers only await a
future completed by a leader that holds a read lock of its own — no cycle.
"""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager
from typing import AsyncIterator

__all__ = ["ReadWriteLock"]


class ReadWriteLock:
    """Writer-preferring async readers-writer lock (single event loop).

    Every state change happens on the loop between two awaits, so plain
    counters need no guard; a waiter parks on the current ``_changed``
    event and re-checks its condition once a release sets it.
    """

    def __init__(self) -> None:
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0
        self._changed = asyncio.Event()

    @property
    def readers(self) -> int:
        """How many readers currently hold the lock (introspection/tests)."""
        return self._readers

    def _notify(self) -> None:
        self._changed.set()
        self._changed = asyncio.Event()

    async def acquire_read(self) -> None:
        """Take the shared (read) side; pair it with :meth:`release_read`."""
        while self._writer_active or self._writers_waiting:
            await self._changed.wait()
        self._readers += 1

    def release_read(self) -> None:
        """Give the shared side back.  Synchronous, so a future's
        done-callback on the loop may call it."""
        self._readers -= 1
        self._notify()

    @asynccontextmanager
    async def read_locked(self) -> AsyncIterator[None]:
        """Hold the shared (read) side for the duration of the block."""
        await self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @asynccontextmanager
    async def write_locked(self) -> AsyncIterator[None]:
        """Hold the exclusive (write) side for the duration of the block."""
        self._writers_waiting += 1
        try:
            while self._writer_active or self._readers:
                await self._changed.wait()
        finally:
            self._writers_waiting -= 1
            # A writer that gave up waiting must let the readers queued
            # behind it re-check.
            self._notify()
        self._writer_active = True
        try:
            yield
        finally:
            self._writer_active = False
            self._notify()
