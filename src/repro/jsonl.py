"""JSON-lines files: one format, one torn-tail rule, one fsync recipe.

Every JSONL file the system writes — the migration journal, the tenant
WAL, the access log, event logs and traces — holds one
``json.dumps(record)`` per ``\\n``-terminated line, and every reader
goes through :func:`read_jsonl`, which applies the one rule a crash
makes necessary: a non-object or undecodable *final* line is torn (the
partial write a crash leaves behind), any *earlier* one is bad (the
file itself is damaged).  What to do about either — raise, skip and
count, warn — stays with the caller.
"""

import json
import os

from repro.errors import ReproError


class Appender:
    """Append JSON records to ``path``, one flushed line each.

    The file and its directory are created on the first append; the
    file is reopened after :meth:`close`.  With ``fsync`` every append
    is durable when it returns.
    """

    def __init__(self, path, fsync=True):
        self.path = str(path)
        self.fsync = fsync
        self._handle = None

    def append(self, record):
        if self._handle is None:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            self._handle = open(self.path, "a")
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def read_jsonl(path):
    """Parse a JSONL file; returns ``(records, bad_lines, torn)``.

    ``records`` are the JSON objects in file order (blank lines are
    ignored), ``bad_lines`` the 1-based numbers of earlier non-object
    or undecodable lines, ``torn`` the number of such a final line or
    None.  A well-formed file truncated at any byte therefore reads as
    its longest record prefix with ``bad_lines == []``.
    """
    records, bad, last = [], [], 0
    with open(path, errors="replace") as handle:
        for last, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            if isinstance(record, dict):
                records.append(record)
            else:
                bad.append(last)
    torn = bad.pop() if bad and bad[-1] == last else None
    return records, bad, torn


def read_records(path, what):
    """The records of a file that must be whole: the first bad or torn
    line raises :class:`~repro.errors.ReproError` ``path:line: not
    <what>``."""
    records, bad_lines, torn = read_jsonl(path)
    if bad_lines or torn:
        raise ReproError("%s:%d: not %s"
                         % (path, (bad_lines or [torn])[0], what))
    return records


def write_jsonl(path, records, default=None):
    """Write ``records`` to ``path`` as JSONL, replacing the file."""
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, default=default) + "\n")
    return path


def write_atomic(path, records_or_text):
    """Replace ``path`` with a string, or with records as JSONL, so
    that a crash leaves either the old file or the new one: write a
    temp file, fsync it, ``os.replace`` it over ``path``, then fsync
    the directory so the rename itself is durable."""
    text = records_or_text
    if not isinstance(text, str):
        text = "".join(json.dumps(record) + "\n" for record in text)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    try:
        fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    except OSError:
        return path
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
    return path
