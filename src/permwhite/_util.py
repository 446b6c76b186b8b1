"""Shared stream-reading helpers, and ``fill_blocks``, the one block loop."""

import errno

from .errors import FormatError

BLOCK_BYTES = 1 << 20


def read_up_to(source, n: int) -> bytes:
    """Read up to n bytes, looping over short reads; shorter only at EOF.

    Each ``source.read`` asks for at most ``BLOCK_BYTES``: a file object
    allocates the whole request up front, so a size taken from a lying
    header must not reach it. Memory stays bounded by the bytes the source
    really holds.
    """
    parts = []
    while n > 0 and (chunk := _checked(source.read(min(n, BLOCK_BYTES)))):
        parts.append(chunk)
        n -= len(chunk)
    return b"".join(parts)


def read_into(source, buf) -> int:
    """Fill the writable ``buf`` from ``source``, looping over short reads;
    return the byte count, short of ``len(buf)`` only at EOF. A source with
    ``readinto`` reads straight into ``buf``; another is read, at most
    ``len(buf)`` bytes a call, and copied."""
    view = memoryview(buf).cast("B")
    readinto = getattr(source, "readinto", None)
    done = 0
    while done < len(view):
        if readinto is not None:
            got = _checked(readinto(view[done:]))
        else:
            chunk = _checked(source.read(len(view) - done))
            got = len(chunk)
            view[done:done + got] = chunk
        if not got:
            break
        done += got
    return done


def _checked(got):
    """A read's result, unless it is a non-blocking reader's None: no data yet."""
    if got is None:
        raise BlockingIOError(errno.EAGAIN, "the input has no data ready")
    return got


def fill_blocks(source, buf):
    """Yield ``buf[:n]`` for each fill of ``buf`` by ``read_into`` until a
    short fill, so none is empty; each is a view of ``buf``, of its kind,
    and the next fill overwrites it."""
    while size := read_into(source, buf):
        yield buf[:size]
        if size < len(buf):
            return


def read_exact(source, n: int, what: str) -> bytes:
    """Read exactly n bytes or raise FormatError naming the missing piece."""
    got = read_up_to(source, n)
    if len(got) != n:
        raise FormatError(f"truncated file while reading {what}")
    return got


def read_end(source, what: str) -> None:
    """Raise FormatError if ``source`` holds any byte after ``what``."""
    if _checked(source.read(1)):
        raise FormatError(f"trailing bytes after {what}")
