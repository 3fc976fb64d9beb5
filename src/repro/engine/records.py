"""Context-scoped mutable decision records.

The engine's observability convention is a handful of module-global
records -- :data:`repro.engine.pool.LAST_DECISION`,
:data:`repro.engine.resilience.LAST_HEALTH` -- that the most recent
call fills in and callers (tests, benchmarks, the service trace layer)
read back immediately afterwards.  As plain dicts those records race the
moment two requests run concurrently: the decode service executes engine
calls on executor threads, so request A's pool decision could be
overwritten by request B's before A's trace collector reads it.

:class:`ScopedRecord` keeps the module-global *name* and the mutable
mapping interface, but stores the contents in a
:class:`contextvars.ContextVar`: every thread (and every asyncio task)
sees its own copy-on-first-write record, so concurrent requests cannot
clobber each other's decisions.  Single-threaded callers notice no
difference -- within one thread the record behaves exactly like the dict
it replaced, and the aliasing convention
(``LAST_DECISION["pool_health"] is LAST_HEALTH``) still holds because
the record *object* is what gets aliased.

:meth:`ScopedRecord.snapshot` returns a plain-dict deep copy (nested
records included) for callers that persist the record -- the benchmark
harness writing ``BENCH_*.json`` files, the service attaching an
``engine`` section to its per-request trace.
"""

from __future__ import annotations

import contextvars
from collections.abc import Mapping, MutableMapping
from typing import Any, Dict, Iterator, Optional


class ScopedRecord(MutableMapping):
    """A dict-like record whose storage is context-local.

    Reads against an untouched context see an empty record; the first
    write materialises a fresh dict in the current context.  ``clear``,
    ``update``, ``pop``, ``get``, containment, iteration and equality
    all behave like the plain dict this class replaces.
    """

    __slots__ = ("_name", "_var")

    def __init__(self, name: str) -> None:
        self._name = name
        self._var: contextvars.ContextVar[Optional[Dict[str, Any]]] = (
            contextvars.ContextVar(name, default=None)
        )

    def _read(self) -> Dict[str, Any]:
        store = self._var.get()
        return {} if store is None else store

    def _write(self) -> Dict[str, Any]:
        store = self._var.get()
        if store is None:
            store = {}
            self._var.set(store)
        return store

    def __getitem__(self, key: str) -> Any:
        return self._read()[key]

    def __setitem__(self, key: str, value: Any) -> None:
        self._write()[key] = value

    def __delitem__(self, key: str) -> None:
        del self._read()[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._read())

    def __len__(self) -> int:
        return len(self._read())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ScopedRecord):
            return self._read() == other._read()
        if isinstance(other, Mapping):
            return self._read() == dict(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:
        return f"ScopedRecord({self._name!r}, {self._read()!r})"

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict deep copy of this context's record contents.

        Nested mappings (including aliased :class:`ScopedRecord`
        instances, e.g. ``pool_health``) are converted recursively, so
        the result is always JSON-serialisable provided the leaf values
        are.
        """
        return _plain(self._read())


def _plain(value: Any) -> Any:
    if isinstance(value, ScopedRecord):
        return _plain(value._read())
    if isinstance(value, Mapping):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value
