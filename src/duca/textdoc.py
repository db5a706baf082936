"""Line-oriented structured-text serialization with bit-exact float round-trips.

Documents are plain text: a header line, then one record per entry.  Scalars
are written with ``repr`` (which round-trips doubles exactly in Python 3) and
arrays are written row-major, one row per line.  Parsing is strict: unknown
record kinds and malformed counts raise.
"""

import numpy as np

from .errors import DucaError

__all__ = ["DocWriter", "DocReader", "fmt_float"]


def fmt_float(x) -> str:
    """repr of a Python float; round-trips bit-exactly through float()."""
    return repr(float(x))


class DocWriter:
    """Accumulates records for one structured-text document."""

    def __init__(self, kind: str):
        self.lines = [f"#doc {kind} v1"]

    def scalar(self, name, value):
        if isinstance(value, (bool, np.bool_)):
            self.lines.append(f"bool {name} {int(value)}")
        elif isinstance(value, (int, np.integer)):
            self.lines.append(f"int {name} {int(value)}")
        else:
            self.lines.append(f"float {name} {fmt_float(value)}")
        return self

    def intlist(self, name, values):
        vals = " ".join(str(int(v)) for v in values)
        self.lines.append(f"ints {name} {len(list(values))} {vals}".rstrip())
        return self

    def array(self, name, arr):
        a = np.asarray(arr, dtype=float)
        shape = " ".join(str(s) for s in a.shape)
        self.lines.append(f"array {name} {a.ndim} {shape}".rstrip())
        # one line per leading index; a scalar or an empty array takes one line
        rows = a.reshape(a.shape[0], -1) if a.ndim and a.size else [a.reshape(-1)]
        self.lines.extend(" ".join(fmt_float(v) for v in row) for row in rows)
        return self

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class DocReader:
    """Strict reader for documents produced by DocWriter."""

    def __init__(self, text: str, kind: str):
        self._lines = text.splitlines()
        self._pos = 0
        header = self._next()
        parts = header.split()
        if len(parts) != 3 or parts[0] != "#doc" or parts[1] != kind:
            raise DucaError(f"bad document header for kind {kind!r}: {header!r}")

    def _next(self) -> str:
        if self._pos >= len(self._lines):
            raise DucaError("unexpected end of document")
        line = self._lines[self._pos]
        self._pos += 1
        return line

    def _record(self, want_kind, want_name):
        line = self._next()
        parts = line.split(maxsplit=2)
        if len(parts) < 2 or parts[0] != want_kind or parts[1] != want_name:
            raise DucaError(f"expected {want_kind} {want_name!r}, got {line!r}")
        return parts[2] if len(parts) == 3 else ""

    def scalar_int(self, name) -> int:
        return int(self._record("int", name))

    def scalar_bool(self, name) -> bool:
        return bool(int(self._record("bool", name)))

    def scalar_float(self, name) -> float:
        return float(self._record("float", name))

    def intlist(self, name):
        payload = self._record("ints", name).split()
        n = int(payload[0])
        vals = [int(v) for v in payload[1:]]
        if len(vals) != n:
            raise DucaError(f"ints {name!r}: expected {n} values, got {len(vals)}")
        return vals

    def array(self, name) -> np.ndarray:
        payload = self._record("array", name).split()
        ndim = int(payload[0])
        shape = tuple(int(v) for v in payload[1:])
        if len(shape) != ndim:
            raise DucaError(f"array {name!r}: bad shape record")
        if ndim == 0:
            vals = [float(v) for v in self._next().split()]
            return np.array(vals[0])
        n_rows = shape[0] if int(np.prod(shape)) else 1
        rows = []
        for _ in range(n_rows):
            rows.extend(float(v) for v in self._next().split())
        a = np.array(rows, dtype=float)
        if a.size != int(np.prod(shape)):
            raise DucaError(f"array {name!r}: expected {np.prod(shape)} values")
        return a.reshape(shape)

    def done(self):
        if self._pos != len(self._lines):
            raise DucaError("trailing content in document")
