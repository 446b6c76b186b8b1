"""Small shared stream-reading helpers."""

import os

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
    remaining = n
    while remaining > 0:
        chunk = source.read(min(remaining, BLOCK_BYTES))
        if not chunk:
            break
        parts.append(chunk)
        remaining -= len(chunk)
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
            got = readinto(view[done:])
        else:
            chunk = source.read(len(view) - done)
            got = len(chunk)
            view[done:done + got] = chunk
        if not got:
            break
        done += got
    return done


def iter_blocks(source, size: int = BLOCK_BYTES):
    """Yield ``size``-byte blocks of ``source`` until a short read; the
    last block may be shorter, and no block is empty. A block is let go
    before the next is read, so a caller that drops its own reference
    holds one block at a time."""
    while True:
        block = read_up_to(source, size)
        last = len(block) < size
        if block:
            yield block
        del block
        if last:
            return


def iter_range(fd: int, start: int, stop: int, size: int):
    """Yield ``size``-byte blocks of the bytes at offsets [start, stop) of
    file descriptor ``fd``, read by offset with ``os.pread``, which moves
    no file position, so threads may read one file at once. The last block
    may be shorter; a read that finds the end of the file ends the blocks."""
    while start < stop:
        block = os.pread(fd, min(size, stop - start), start)
        if not block:
            return
        start += len(block)
        yield block
        del block


def read_exact(source, n: int, what: str) -> bytes:
    """Read exactly n bytes or raise FormatError naming the missing piece."""
    got = read_up_to(source, n)
    if len(got) != n:
        raise FormatError(f"truncated file while reading {what}")
    return got


def read_end(source, what: str) -> None:
    """Raise FormatError if ``source`` holds any byte after ``what``."""
    if source.read(1):
        raise FormatError(f"trailing bytes after {what}")
