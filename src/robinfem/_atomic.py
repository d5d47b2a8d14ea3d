"""The one file writer behind every artifact: CSV, SVG, solution, mesh
and matrix dumps stream into a unique temporary file next to the target,
which is then renamed over it, so a failed write leaves the target as it
was and no temporary file behind."""

import contextlib
import os

from .errors import as_path


def write_lines(path, lines):
    """Write each line with an LF ending, then atomically replace path; the
    file gets mode 0o666 less the umask, as open would give it."""
    path = os.fsdecode(as_path(path))
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f"{name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # the kernel applies the umask
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.writelines(f"{line}\n" for line in lines)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
