"""Small file helpers shared by the exporters and the CLI."""

from __future__ import annotations

import contextlib
import errno
import hashlib
import os

# rows of a table an export formats per write: its peak memory is one such
# block of Python floats and text, about 0.3 MiB for a Touchstone block
BLOCK_ROWS = 256


@contextlib.contextmanager
def atomic_open(path):
    """Yield a binary handle on a new temp file in ``path``'s directory, renamed
    onto ``path`` on a clean exit and removed on any exception.  Exports write
    through it a block at a time, so their memory is one block, not the file.
    The file takes the mode a plain ``open`` gives (0o666 less the umask).
    A directory at ``path`` raises IsADirectoryError before any temp file, and
    an OSError that opening or renaming the temp file raises names ``path``."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    tmp = os.path.join(os.path.dirname(str(path)) or ".", f".tmp_{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # 64 random bits: no clash
    except OSError as exc:  # say which file could not be written, not the temp name
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:  # the target, not the temp name, as above
            raise OSError(exc.errno, exc.strerror, str(path)) from None
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 through :func:`atomic_open`."""
    with atomic_open(path) as fh:
        fh.write(text.encode("utf-8"))


def read_text(path, error: type[Exception]) -> str:
    """The UTF-8 text of ``path``; a file that does not decode raises ``error``
    naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc})") from exc


def fingerprint(text: str) -> str:
    """Short stable hash of a config text, for provenance comments."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
