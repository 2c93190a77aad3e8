"""Plain-text persistence: numeric CSV matrices, small typed tables,
key=value metadata files, and the bulk primitives that turn lines of
whitespace-separated tokens into arrays and back.

Floats are written with 17 significant digits, which round-trips float64
exactly, so every file re-read through this module reproduces the
original values bit for bit.

The token primitives keep Python work off the tokens: :func:`tokenize`
finds the tokens of whole lines in their bytes, and :func:`parse_ints`
converts fields of that byte array, both with whole-array numpy
operations.  :func:`format_ints` and :func:`join_lines` are the writing
direction: a whole file's bytes are assembled by array indexing, without
a Python object per field; :func:`token_buffer` brings the few fields a
writer formats as strings into the same byte-array form.
"""

from __future__ import annotations

import csv
import warnings

import numpy as np

__all__ = [
    "format_float",
    "write_matrix_csv",
    "read_matrix_csv",
    "write_table_csv",
    "read_table_csv",
    "write_keyvalues",
    "read_keyvalues",
    "tokenize",
    "token_text",
    "token_buffer",
    "parse_ints",
    "format_ints",
    "join_lines",
]

_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def write_matrix_csv(path: str, matrix) -> None:
    """Write a 2-D float array as headerless comma-separated rows.

    A 1-D array is written as one row.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.ndim != 2:
        raise ValueError("matrix must be 1-D or 2-D")
    np.savetxt(path, matrix, fmt="%.17g", delimiter=",", encoding="utf-8")


def read_matrix_csv(path: str) -> np.ndarray:
    """Read a headerless numeric CSV as a 2-D float64 array.

    A file without values reads as shape (0, 0); a ragged or malformed
    one raises ``ValueError`` naming ``path``.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            matrix = np.loadtxt(
                path, delimiter=",", comments=None, ndmin=2, encoding="utf-8"
            )
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return matrix if matrix.size else np.zeros((0, 0), dtype=np.float64)


def write_table_csv(path: str, header, rows) -> None:
    """Write a header line plus rows of mixed str/int/float cells.

    Floats go through :func:`format_float`; everything else through str().
    """
    def cell(v):
        if isinstance(v, float):
            return format_float(v)
        return str(v)

    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([cell(v) for v in row])


def read_table_csv(path: str):
    """Read a table written by :func:`write_table_csv`.

    Returns (header, rows) with every cell as a string; callers convert
    the columns they need.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            return [], []
        rows = [row for row in reader if row]
    return header, rows


def write_keyvalues(path: str, mapping: dict) -> None:
    """One ``key=value`` line per entry; floats keep full precision.

    Floats use the shortest text that parses back to the same value, so
    sidecar files stay readable without losing exactness.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for key, value in mapping.items():
            if isinstance(value, float):
                value = repr(value)
            handle.write(f"{key}={value}\n")


def read_keyvalues(path: str) -> dict:
    """Parse ``key=value`` lines; blank lines and # comments are skipped.
    A key given twice is an error, not a silent override."""
    out = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise ValueError(f"{path}:{line_no}: duplicate key {key!r}")
            out[key] = value
    return out


def tokenize(data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The whitespace-separated tokens of text lines, found in their bytes.

    Lines end at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as in text mode.  A
    line's first ``#`` and the rest of that line are dropped.  Tokens are
    separated by the ASCII whitespace of ``str.split``: tab, line feed,
    vertical tab, form feed, carriage return, the separators 0x1c-0x1f
    and space; every other byte, any byte above 127 included, belongs to
    a token.  Returns (buf, start, stop, line_ptr): token k is
    ``buf[start[k]:stop[k]]``, and the tokens of line i (from 0) are
    ``line_ptr[i]`` to ``line_ptr[i + 1] - 1``, for each of the
    ``line_ptr.size - 1`` lines of ``data``.  ``buf`` is ``data`` with
    every separator and dropped byte turned into a space and one space
    appended, so each token is followed by a space and every field of a
    token starts at a readable byte.  No Python code runs per line or
    per token.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    n = raw.size
    newline, carriage = raw == 10, raw == 13
    ends = newline | carriage
    ends[:-1] &= ~(carriage[:-1] & newline[1:])  # "\r\n" ends at its "\n"
    breaks = np.flatnonzero(ends)
    blank = np.ones(n + 1, dtype=bool)
    # bytes 9-13 and 28-32, by uint8 differences that wrap below 0
    np.less(raw - np.uint8(9), 5, out=blank[:n])
    blank[:n] |= raw - np.uint8(28) < 5
    hashes = np.flatnonzero(raw == 35)  # '#'
    if hashes.size:
        line = np.searchsorted(breaks, hashes)
        first = np.flatnonzero(np.diff(line, prepend=-1))  # each line's first '#'
        # +1 at a comment's '#', -1 at the break (or end) that closes it
        edges = np.zeros(n + 1, dtype=np.int8)
        edges[hashes[first]] = 1
        edges[np.append(breaks, n)[line[first]]] = -1
        blank |= np.cumsum(edges, dtype=np.int8).view(bool)
    # a blank byte b becomes b + (32 - b), a space, in uint8 arithmetic
    buf = np.empty(n + 1, dtype=np.uint8)
    np.multiply(blank[:n], np.uint8(32) - raw, out=buf[:n])
    buf[:n] += raw
    buf[n] = 32
    # blank[n] is set, so the edges alternate start, stop, ..., stop
    edge = np.flatnonzero(np.diff(blank, prepend=True))
    start, stop = edge[0::2], edge[1::2]
    if n and not ends[-1]:  # a last line without a break
        breaks = np.append(breaks, n)
    return buf, start, stop, np.concatenate(([0], np.searchsorted(start, breaks)))


def token_text(buf, start, stop, k: int) -> str:
    """Token k of (buf, start, stop) as text for a message; bytes that are
    not UTF-8 show as ``\\xNN`` escapes."""
    return buf[start[k] : stop[k]].tobytes().decode("utf-8", "backslashreplace")


def token_buffer(tokens) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tokens joined by single spaces as UTF-8 bytes, with each token's span.

    ``tokens`` are strings without whitespace, such as the fields a
    writer formats one by one; files are read with :func:`tokenize`.  Token k
    is ``buf[start[k]:stop[k]]`` and ``buf[stop[k]]`` is the space after
    it: one is appended after the last token too, so every field of a
    token, empty ones included, starts at a readable byte.
    """
    buf = np.frombuffer((" ".join(tokens) + " ").encode("utf-8"), dtype=np.uint8)
    stop = np.flatnonzero(buf == 32)[: len(tokens)]
    start = np.concatenate(([0], stop[:-1] + 1)) if stop.size else stop
    return buf, start, stop


def parse_ints(buf, start, stop, max_digits: int = 18) -> tuple[np.ndarray, np.ndarray]:
    """Decimal integers held in the fields ``buf[start[k]:stop[k]]``, in bulk.

    A field is valid when it reads ``[+-]?[0-9]{1,max_digits}`` in ASCII;
    18 digits always fit int64.  Returns (values, ok): ``values[k]`` is
    the integer of a valid field and 0 elsewhere.  Every field must start
    at a readable byte (see :func:`tokenize`).  The loop runs over
    digit positions, at most ``max_digits`` times, never over fields.
    """
    first = buf[start]
    signed = ((first == 43) | (first == 45)) & (stop > start)  # '+' or '-'
    lo = start + signed
    n_digits = stop - lo
    ok = (n_digits >= 1) & (n_digits <= max_digits)
    values = np.zeros(start.size, dtype=np.int64)
    for j in range(int(n_digits.max(initial=0, where=ok)), 0, -1):
        pos = stop - j  # the j-th byte from the end of every field
        inside = pos >= lo
        # bytes below '0' wrap around to large values in uint8 arithmetic
        digit = buf[np.maximum(pos, 0)] - np.uint8(48)
        ok &= ~inside | (digit < 10)
        values = values * 10 + np.where(inside, digit, 0)
    return np.where(ok, np.where(first == 45, -values, values), 0), ok


def format_ints(values, suffix: bytes = b"") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decimal text of non-negative integers, each followed by ``suffix``.

    The reverse of :func:`parse_ints`: returns (buf, start, stop) with
    field k in ``buf[start[k]:stop[k]]``, fields back to back.  The loop
    runs over digit positions, never over values.
    """
    values = np.asarray(values, dtype=np.int64)
    n_digits = 1 + np.searchsorted(_POWERS_OF_TEN, values, side="right")
    lengths = n_digits + len(suffix)
    stop = np.cumsum(lengths)
    start = stop - lengths
    buf = np.empty(int(stop[-1]) if stop.size else 0, dtype=np.uint8)
    end = start + n_digits
    for j, byte in enumerate(suffix):
        buf[end + j] = byte
    rest = values.copy()
    for j in range(int(n_digits.max(initial=0))):  # the j-th digit from the right
        live = n_digits > j
        buf[end[live] - 1 - j] = 48 + rest[live] % 10
        rest //= 10
    return buf, start, stop


def join_lines(buf, start, stop, indptr) -> bytes:
    """Text with one line per row, from fields ``buf[start[k]:stop[k]]``.

    Line r joins fields ``indptr[r]`` to ``indptr[r + 1] - 1`` with single
    spaces and ends with a newline; an empty row gives an empty line.
    """
    lengths = stop - start
    counts = np.diff(indptr)
    empty = counts == 0
    row = np.repeat(np.arange(counts.size), counts)
    # every field is followed by one separator byte; an empty row is one newline
    offset = np.cumsum(lengths + 1) - (lengths + 1) + (np.cumsum(empty) - empty)[row]
    out = np.full(int(lengths.sum()) + row.size + int(empty.sum()), 10, dtype=np.uint8)
    inner = np.ones(row.size, dtype=bool)
    inner[indptr[1:][~empty] - 1] = False
    out[(offset + lengths)[inner]] = 32
    within = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    out[np.repeat(offset, lengths) + within] = buf[np.repeat(start, lengths) + within]
    return out.tobytes()
