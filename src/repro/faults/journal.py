"""Crash-safe migration journal.

A migration that dies half-way (process crash, power loss) must be
resumable without re-copying everything and without losing track of
which chunks already landed.  The journal is an append-only JSONL file
(written through :class:`repro.jsonl.Appender`) with four record
kinds:

* ``begin`` — written once, before any data moves: the migration's
  identity (moves, chunk size, schema version) plus an opaque ``meta``
  dict the online controller uses to rebuild its pending-migration
  state (new layout fractions, predicted utilization, accept time);
* ``chunk`` — appended *after* a chunk's destination write completes,
  so a recorded chunk is durable by construction;
* ``commit`` — appended when the placement map is swapped; a journal
  with a commit record needs no recovery at all;
* ``cancel`` — appended when an emergency supersedes the migration;
  a cancelled journal must never be resumed.

Recovery replays the file: chunks recorded are done, everything else is
(re)copied.  Re-copying a chunk whose record was lost is harmless —
chunk writes are idempotent — which is what makes "crash after any
chunk, resume, same final placement" a provable property rather than a
hope.  Parsing is tolerant of a truncated final line (the one partial
write a crash can leave behind); any other malformed line raises, since
it means the journal itself is corrupt.
"""

from repro.core.migration import MigrationPlan, Move
from repro.errors import FaultError
from repro.jsonl import Appender, read_jsonl

VERSION = 1


def _chunk_list(moves, chunk):
    """Split moves into copy chunks exactly like ThrottledMigrator does.

    Returns ``[(source name, destination name, bytes), ...]`` — the
    canonical chunk indexing both the live migrator and a resumed one
    agree on.
    """
    chunks = []
    for move in moves:
        left = int(move["bytes"])
        while left > 0:
            size = min(int(chunk), left)
            chunks.append((move["source"], move["destination"], size))
            left -= size
    return chunks


def _move_records(plan):
    return [{"obj": m.obj, "source": m.source, "destination": m.destination,
             "bytes": m.bytes} for m in plan.moves]


class MigrationJournal:
    """Append-only chunk journal for one migration.

    Create with :meth:`create` (new migration) or :meth:`load` (crash
    recovery); both leave the file open for appending further records.
    """

    def __init__(self, path, moves, chunk, meta, done, committed,
                 malformed=0, cancelled=False):
        self.path = path
        self.moves = moves
        self.chunk = int(chunk)
        self.meta = meta
        self.done = set(done)
        self.committed = committed
        self.cancelled = cancelled
        self.malformed = malformed
        self.chunks = _chunk_list(moves, chunk)
        for index in self.done:
            if not 0 <= index < len(self.chunks):
                raise FaultError(
                    "journal %s records chunk %d of %d"
                    % (path, index, len(self.chunks))
                )
        self._log = Appender(path)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, path, plan, chunk, meta=None):
        """Start a journal for ``plan`` (a MigrationPlan), overwriting
        any stale journal at ``path``."""
        moves = _move_records(plan)
        journal = cls(path, moves, chunk, meta or {}, done=(),
                      committed=False)
        open(path, "w").close()
        journal._log.append({
            "kind": "begin", "version": VERSION, "chunk": int(chunk),
            "moves": moves, "meta": journal.meta,
        })
        return journal

    @classmethod
    def load(cls, path):
        """Parse a journal left behind by a crashed migration.

        Tolerates a truncated *final* line; any other malformed line —
        or a missing/garbled begin record — raises :class:`FaultError`.
        A file the crash left empty (or holding only a torn begin
        record) loads as a cancelled journal with no moves.
        """
        records, bad_lines, torn = read_jsonl(path)
        if bad_lines:
            raise FaultError(
                "journal %s is corrupt at line %d" % (path, bad_lines[0])
            )
        malformed = int(torn is not None)
        if not records:
            # The crash tore the begin record itself: no data moved yet,
            # so there is nothing to resume.
            return cls(path, [], 1, {}, done=(), committed=False,
                       cancelled=True, malformed=malformed)
        if records[0].get("kind") != "begin":
            raise FaultError("journal %s has no begin record" % path)
        begin = records[0]
        if begin.get("version") != VERSION:
            raise FaultError(
                "journal %s has version %r (expected %d)"
                % (path, begin.get("version"), VERSION)
            )
        done = set()
        committed = cancelled = False
        for record in records[1:]:
            kind = record.get("kind")
            if kind == "chunk":
                done.add(int(record["index"]))
            elif kind == "commit":
                committed = True
            elif kind == "cancel":
                cancelled = True
            else:
                raise FaultError(
                    "journal %s has unknown record kind %r" % (path, kind)
                )
        return cls(path, begin["moves"], begin["chunk"], begin.get("meta", {}),
                   done=done, committed=committed, cancelled=cancelled,
                   malformed=malformed)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def total_chunks(self):
        return len(self.chunks)

    def remaining(self):
        """Chunk indices still to copy, in order."""
        return [i for i in range(len(self.chunks)) if i not in self.done]

    def plan(self):
        """The :class:`~repro.core.migration.MigrationPlan` this journal
        records, rebuilt for a resumed migrator."""
        moves = [
            Move(obj=m["obj"], source=m["source"],
                 destination=m["destination"], bytes=int(m["bytes"]))
            for m in self.moves
        ]
        reads, writes = {}, {}
        for move in moves:
            reads[move.source] = reads.get(move.source, 0) + move.bytes
            writes[move.destination] = (
                writes.get(move.destination, 0) + move.bytes
            )
        return MigrationPlan(
            moves=moves, total_bytes=sum(m.bytes for m in moves),
            bytes_read=reads, bytes_written=writes,
        )

    def matches(self, plan, chunk):
        """True when this journal describes exactly this migration."""
        return _move_records(plan) == self.moves and int(chunk) == self.chunk

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def record_chunk(self, index):
        """Mark chunk ``index`` durable (call after its write lands)."""
        if not 0 <= index < len(self.chunks):
            raise FaultError(
                "chunk index %d out of range (journal has %d chunks)"
                % (index, len(self.chunks))
            )
        if index in self.done:
            return
        self.done.add(index)
        self._log.append({"kind": "chunk", "index": int(index)})

    def record_commit(self):
        """Mark the migration committed (placement map swapped)."""
        if not self.committed:
            self.committed = True
            self._log.append({"kind": "commit"})

    def record_cancel(self):
        """Mark the migration superseded (an emergency cancelled it) and
        close the journal; recovery must not resume it."""
        if not self.cancelled:
            self.cancelled = True
            self._log.append({"kind": "cancel"})
        self.close()

    def close(self):
        self._log.close()
