"""The compiled Euler block kernel: built on first use, cached, loaded with ctypes.

The C source ships beside this module.  The first ``load()`` in a process
compiles it with gcc into ``$XDG_CACHE_HOME/openjacobi`` (``~/.cache/openjacobi``
when that variable is unset), under a file name keyed by a hash of the source
and the compiler flags, so later processes reuse the library.

The kernel draws each path's normals itself, from the path's Philox4x64-10
stream with numpy's ziggurat, whose tables ``_kernel.c`` holds as the bit
patterns of numpy's ``ziggurat_constants.h`` (BSD-3-Clause).  ``streams``
lays out the stream states it advances: per path the counter, the key
(path index, master seed), a four-word output buffer and its position, so
path i under seed s draws what ``_util.path_stream(s, i).standard_normal``
draws.  After loading, ``load()`` compares ``PROBE_NORMALS`` kernel normals
with that generator's; a numpy whose normals differ fails the check.

``load()`` returns None when gcc is missing, the build fails, the cache
directory cannot be written or the normals check fails; ``failure`` then
says why, and the simulation uses the numpy kernel instead.
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

import numpy as np

from ._util import path_stream, stream_key

SOURCE = Path(__file__).with_name("_kernel.c")
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
BUILD_TIMEOUT_S = 300

_ARGTYPES = (
    [ctypes.c_int64] * 4              # B, P, d, row
    + [ctypes.c_void_p] * 5           # block, z, streams, a, gamma
    + [ctypes.c_double] * 4           # half, total, dt, vol
    + [ctypes.c_void_p] * 2           # clips, low
)
STREAM_WORDS = 11                     # OJ_STREAM_WORDS: counter 4, key 2, buffer 4, position
PROBE_KEY = (2 ** 64 - 1, 2 ** 63 + 12345)      # (master seed, path index) of the check
PROBE_NORMALS = 4096

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


def streams(master_seed: int, first_index: int, count: int) -> np.ndarray:
    """Fresh stream states (count, STREAM_WORDS) of the paths first_index,
    first_index + 1, ... under ``master_seed``; each key is checked as
    ``path_stream`` checks it."""
    state = np.zeros((count, STREAM_WORDS), dtype=np.uint64)
    for p in range(count):
        key = stream_key(master_seed, first_index + p)
        state[p, 4] = key & (2 ** 64 - 1)
        state[p, 5] = key >> 64
    state[:, 10] = 4                  # the output buffer starts used up
    return state


def _normals_match(library) -> bool:
    """Whether the library's normals for ``PROBE_KEY`` equal numpy's."""
    fill = library.oj_normals
    fill.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
    fill.restype = None
    state = streams(*PROBE_KEY, 1)
    ours = np.empty(PROBE_NORMALS)
    fill(state.ctypes.data, PROBE_NORMALS, ours.ctypes.data)
    return np.array_equal(ours, path_stream(*PROBE_KEY).standard_normal(PROBE_NORMALS))


def load():
    """The kernel's ctypes function, or None when it cannot be had.

    The first call builds and loads the library and checks its normals; its
    outcome is kept for the life of the process.  A lock makes concurrent
    first calls from worker threads wait for one build.
    """
    global _done, _function, failure
    if not _done:
        with _lock:
            if not _done:
                try:
                    library = ctypes.CDLL(str(build(cache_dir())))
                except (OSError, subprocess.SubprocessError) as exc:
                    failure = str(exc)
                else:
                    if _normals_match(library):
                        function = library.oj_advance_block
                        function.argtypes = _ARGTYPES
                        function.restype = ctypes.c_int
                        _function = function
                    else:
                        failure = (f"the kernel's Philox normals differ from numpy "
                                   f"{np.__version__}'s standard_normal")
                _done = True
    return _function
