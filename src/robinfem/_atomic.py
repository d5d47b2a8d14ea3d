"""The one file writer behind every artifact: CSV, SVG, solution, mesh
and matrix dumps stream into a unique temporary file next to the target,
which is then renamed over it, so a failed write leaves the target as it
was and no temporary file behind."""

import contextlib
import os
import tempfile


def write_lines(path, lines):
    """Write each line with an LF ending, then atomically replace path."""
    directory, name = os.path.split(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=f"{name}.", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.writelines(f"{line}\n" for line in lines)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates the file private
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
