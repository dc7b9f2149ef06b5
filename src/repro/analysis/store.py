"""On-disk persistent tier of the analysis cache (sqlite).

The in-memory :class:`repro.analysis.cache.AnalysisCache` dies with its
process, so a repeated or resumed sweep re-solves every MILP. This
module adds the second tier: a content-addressed sqlite store keyed by
the same semantic digests, shared across runs, sweep points, and
``--jobs N`` worker processes.

Design notes
------------
* **Concurrency.** The database runs in WAL mode with a busy timeout,
  so concurrent readers never block and concurrent writers serialise
  briefly. Writes are *upserts by digest*: because the key digests the
  MILP's full semantic content, two workers racing on one digest write
  payloads describing the same mathematical optimum, and the rank rule
  below makes the race outcome order-independent.
* **Entry ranks.** An entry is an exact solved optimum
  (``milp``-tagged, rank 3), a decided interval ``[lb, ub]`` around the
  optimum (``interval``-tagged, rank 2: what a threshold decision
  proved, see :meth:`repro.milp.model.MilpBackend.decide`), or an
  LP-relaxation screening bound (``lp``-tagged, rank 1; the one rank
  table is :data:`repro.analysis.cache.ENTRY_RANKS`). An upsert only
  replaces a row when the new rank is strictly higher — an exact
  optimum upgrades a bound, never the other way around — so the store
  converges to the same content regardless of writer interleaving.
* **Corruption.** Every payload is stored next to its sha256; a reader
  that finds a mismatch (torn write, bit rot, injected fault) deletes
  the row and reports it to the caller, which re-solves. A corrupted
  entry is *never* trusted. The ``cache.corrupt`` fault site of
  :mod:`repro.faults` garbles rows on write to pin exactly this path.
* **Schema version.** :data:`SCHEMA_VERSION` is bumped whenever the
  entry encoding, the digest inputs, or the table layout change. A
  store created under a different version is discarded wholesale on
  open — a stale on-disk entry can never alias a new-formulation key.
* **Processes.** Connections are opened lazily per process (never
  shared across ``fork``); passing a :class:`PersistentStore` to a
  worker pickles only its path.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.cache import ENTRY_RANKS, entry_rank
from repro.faults import injection

#: Bump when the payload encoding, digest inputs, or table layout
#: change; mismatching stores are discarded on open (see module notes).
SCHEMA_VERSION = 2


def _encode(value: object) -> str:
    """Canonical JSON text of one cache entry.

    Entries are tuples ``("milp", objective, n, stats, degradation)``,
    ``("interval", lb, ub)`` (either side ``None`` when unknown),
    ``("lp", bound)``, or bare floats (the case-(b) memo); tuples are
    JSON lists. ``json`` round-trips Python floats exactly (it emits
    ``repr`` and parses back the identical double), so a decoded entry
    is bit-identical to the stored one.
    """
    if isinstance(value, tuple):
        return json.dumps(
            {"k": "t", "v": list(value)}, sort_keys=True, allow_nan=False
        )
    return json.dumps({"k": "s", "v": value}, sort_keys=True, allow_nan=False)


def _decode(text: str) -> object:
    raw = json.loads(text)
    if raw["k"] == "t":
        return tuple(raw["v"])
    return raw["v"]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _enable_wal(conn: sqlite3.Connection) -> None:
    """Switch ``conn``'s database to WAL, waiting out concurrent openers.

    Processes opening a fresh store at the same moment each hold a
    shared lock while asking for the exclusive one the switch needs;
    sqlite fails one of them at once with "database is locked" instead
    of calling the busy handler (which would deadlock), so the switch
    is retried for up to 30 s, the store's busy timeout.
    """
    deadline = time.monotonic() + 30.0
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as error:
            if "locked" not in str(error) or time.monotonic() > deadline:
                raise
            time.sleep(0.01)


class PersistentStore:
    """Digest-keyed sqlite store backing :class:`AnalysisCache`.

    Args:
        path: Database file; created (with parents) on first use.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._conn: sqlite3.Connection | None = None
        self._pid: int | None = None
        #: Corrupted rows detected (and dropped) by this process.
        self.corrupt_dropped = 0

    # -- connection lifecycle ------------------------------------------
    def __getstate__(self) -> dict:
        # Only the path crosses process boundaries; each process opens
        # its own connection (sqlite handles must never survive fork).
        return {"path": self.path}

    def __setstate__(self, state: dict) -> None:
        self.path = state["path"]
        self._conn = None
        self._pid = None
        self.corrupt_dropped = 0

    def _connect(self) -> sqlite3.Connection:
        pid = os.getpid()
        if self._conn is not None and self._pid == pid:
            return self._conn
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(self.path, timeout=30.0)
        _enable_wal(conn)
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA busy_timeout=30000")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
        )
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is not None and row[0] != str(SCHEMA_VERSION):
            # A different build wrote this store; its entries may alias
            # new-formulation digests, so the whole store is discarded.
            conn.execute("DROP TABLE IF EXISTS entries")
            conn.execute("DELETE FROM meta")
            row = None
        if row is None:
            conn.execute(
                "INSERT OR REPLACE INTO meta VALUES "
                "('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS entries ("
            " digest TEXT PRIMARY KEY,"
            " payload TEXT NOT NULL,"
            " sha TEXT NOT NULL,"
            " rank INTEGER NOT NULL,"
            " created REAL NOT NULL)"
        )
        conn.commit()
        self._conn = conn
        self._pid = pid
        return conn

    def close(self) -> None:
        if self._conn is not None and self._pid == os.getpid():
            self._conn.close()
        self._conn = None
        self._pid = None

    # -- the two-tier contract -----------------------------------------
    def fetch(self, digest: str) -> tuple[object | None, bool]:
        """Look up one digest: ``(value, corrupted)``.

        A row whose payload fails its sha256 check (or does not decode)
        is deleted and reported as ``(None, True)`` — the caller counts
        the corruption and re-solves; the entry is never trusted.
        """
        conn = self._connect()
        row = conn.execute(
            "SELECT payload, sha FROM entries WHERE digest = ?", (digest,)
        ).fetchone()
        if row is None:
            return None, False
        payload, sha = row
        if _sha(payload) == sha:
            try:
                return _decode(payload), False
            except (ValueError, KeyError, TypeError):
                pass  # undecodable despite a matching sha: treat as corrupt
        conn.execute("DELETE FROM entries WHERE digest = ?", (digest,))
        conn.commit()
        self.corrupt_dropped += 1
        return None, True

    def fetch_many(self, digests: "Iterable[str]") -> dict[str, object]:
        """Batched probe: the decodable subset of ``digests``.

        The sweep service consults the store for *every* unit of a
        submitted sweep before dispatching anything; issuing one
        ``SELECT`` per unit would pay the connection round-trip and
        B-tree descent thousands of times for a warm repeat sweep.
        This batches the probe into ``IN (...)`` queries (chunked under
        sqlite's bound-parameter limit) and applies the same per-row
        sha256 verification as :meth:`fetch` — corrupt rows are deleted,
        counted, and simply absent from the returned mapping, so the
        caller re-solves them exactly as it would a miss.
        """
        hits: dict[str, object] = {}
        wanted = sorted(set(digests))
        if not wanted:
            return hits
        conn = self._connect()
        corrupt: list[str] = []
        for start in range(0, len(wanted), 500):
            chunk = wanted[start : start + 500]
            marks = ",".join("?" * len(chunk))
            rows = conn.execute(
                f"SELECT digest, payload, sha FROM entries"
                f" WHERE digest IN ({marks})",
                chunk,
            ).fetchall()
            for digest, payload, sha in rows:
                if _sha(payload) == sha:
                    try:
                        hits[digest] = _decode(payload)
                        continue
                    except (ValueError, KeyError, TypeError):
                        pass
                corrupt.append(digest)
        for digest in corrupt:
            conn.execute("DELETE FROM entries WHERE digest = ?", (digest,))
        if corrupt:
            conn.commit()
            self.corrupt_dropped += len(corrupt)
        return hits

    def store(self, digest: str, value: object) -> None:
        """Upsert one entry (higher rank wins; equal rank is a no-op).

        Equal-rank payloads for one digest are identical by
        content-addressing, so skipping the write loses nothing and
        keeps concurrent writers convergent.
        """
        payload = _encode(value)
        sha = _sha(payload)
        spec = injection.fire("cache.corrupt", key=digest[:12])
        if spec is not None:
            # Injected torn/garbage row: the sha no longer matches the
            # payload, which is exactly what the digest check on read
            # must detect, drop, and re-solve.
            if spec.mode == "torn":
                payload = payload[: max(1, len(payload) // 2)]
            else:
                payload = "\x00garbage\x00" + payload[:8]
        conn = self._connect()
        # ``created`` is a write sequence, not a wall-clock time: the
        # subquery runs inside the (serialised) write transaction, so
        # it is atomic, and workers stay free of clock reads — gc's
        # "most recently written" ordering needs nothing more.
        conn.execute(
            "INSERT INTO entries (digest, payload, sha, rank, created)"
            " VALUES (?, ?, ?, ?,"
            "         (SELECT COALESCE(MAX(created), 0) + 1 FROM entries))"
            " ON CONFLICT(digest) DO UPDATE SET"
            " payload=excluded.payload, sha=excluded.sha,"
            " rank=excluded.rank, created=excluded.created"
            " WHERE excluded.rank > entries.rank",
            (digest, payload, sha, entry_rank(value)),
        )
        conn.commit()

    # -- maintenance (the ``repro cache`` subcommand) ------------------
    def stats(self) -> dict[str, object]:
        """Entry counts, rank breakdown, schema version, file size.

        ``screen_entries`` counts every bound entry: LP screens and
        decided intervals.
        """
        conn = self._connect()
        total = conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
        by_rank = {
            tag: conn.execute(
                "SELECT COUNT(*) FROM entries WHERE rank = ?", (rank,)
            ).fetchone()[0]
            for tag, rank in sorted(ENTRY_RANKS.items())
        }
        size = self.path.stat().st_size if self.path.exists() else 0
        return {
            "path": str(self.path),
            "schema_version": SCHEMA_VERSION,
            "entries": total,
            "exact_entries": by_rank["milp"],
            "screen_entries": by_rank["lp"] + by_rank["interval"],
            "file_bytes": size,
        }

    def gc(self, keep: int) -> int:
        """Drop all but the ``keep`` most recently written entries.

        Returns the number of rows removed. The file is vacuumed so the
        space is actually released.
        """
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        conn = self._connect()
        before = conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
        conn.execute(
            "DELETE FROM entries WHERE digest NOT IN ("
            " SELECT digest FROM entries"
            " ORDER BY created DESC, digest LIMIT ?)",
            (keep,),
        )
        conn.commit()
        conn.execute("VACUUM")
        after = conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
        return before - after

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        conn = self._connect()
        removed = conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
        conn.execute("DELETE FROM entries")
        conn.commit()
        conn.execute("VACUUM")
        return removed

    def digests(self) -> Iterator[str]:
        """All stored digests (test/diagnostic helper)."""
        conn = self._connect()
        for (digest,) in conn.execute(
            "SELECT digest FROM entries ORDER BY digest"
        ):
            yield digest

    def __len__(self) -> int:
        conn = self._connect()
        return int(conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0])

    def __repr__(self) -> str:
        return f"PersistentStore({str(self.path)!r})"
