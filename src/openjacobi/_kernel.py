"""The compiled Euler block kernel: built on first use, cached, loaded with ctypes.

The C source ships beside this module.  The first ``load()`` in a process
compiles it with gcc into ``$XDG_CACHE_HOME/openjacobi`` (``~/.cache/openjacobi``
when that variable is unset), under a file name keyed by a hash of the source
and the compiler flags, so later processes reuse the library.  ``load()``
returns None when gcc is missing, the build fails or the cache directory
cannot be written; ``failure`` then says why, and the simulation uses the
numpy kernel instead.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernel.c")
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
BUILD_TIMEOUT_S = 300

_ARGTYPES = (
    [ctypes.c_int64] * 4              # B, P, d, row
    + [ctypes.c_void_p] * 4           # block, z, a, gamma
    + [ctypes.c_double] * 4           # half, total, dt, vol
    + [ctypes.c_void_p] * 2           # clips, low
)

_lock = threading.Lock()
_done = False
_function = None
failure: str | None = None


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "openjacobi"


def library_path(directory) -> Path:
    """Where the library built from the current source and flags lives."""
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update(" ".join(CFLAGS + (platform.machine(),)).encode())
    return Path(directory) / f"euler_kernel-{key.hexdigest()[:16]}.so"


def build(directory) -> Path:
    """Compile the kernel into ``directory`` unless it is already there.

    The compiler writes a temporary file that is renamed into place, so
    processes building at the same time never see a partial library.
    """
    target = library_path(directory)
    if target.exists():
        return target
    gcc = shutil.which("gcc")
    if gcc is None:
        raise OSError("gcc not found on PATH")
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.stem + ".", suffix=".tmp")
    os.close(fd)
    try:
        proc = subprocess.run([gcc, *CFLAGS, "-o", tmp, str(SOURCE), "-lm"],
                              capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise OSError(f"gcc exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def load():
    """The kernel's ctypes function, or None when it cannot be had.

    The first call builds and loads the library; its outcome is kept for
    the life of the process.  A lock makes concurrent first calls from
    worker threads wait for one build.
    """
    global _done, _function, failure
    if not _done:
        with _lock:
            if not _done:
                try:
                    function = ctypes.CDLL(str(build(cache_dir()))).oj_advance_block
                    function.argtypes = _ARGTYPES
                    function.restype = ctypes.c_int
                    _function = function
                except (OSError, subprocess.SubprocessError) as exc:
                    failure = str(exc)
                _done = True
    return _function
