"""Machine-speed readings, so timings survive a shared machine changing pace.

Other tenants of a shared VM change how fast it runs: on the 2-vCPU Xeon
VM this benchmark was written on, the same call ran 2x slower at one
time than at another within the hour, and 10-20% slower from one
few-second stretch to the next. reading() times a fixed pure-Python
kernel; dividing a measured interval by readings taken around it, and
multiplying by REF_KERNEL_S, gives the seconds the interval would take
on a machine where the kernel takes REF_KERNEL_S.

Start-up work (imports: file reads, unmarshalling, loading extension
modules) slows down less than the kernel does, so a fresh interpreter's
set-up time is scaled instead by the time the same interpreter then
takes to import REF_IMPORTS, standard-library modules that greenlink
does not load, against REF_IMPORT_S.
"""

import math
import time

REF_KERNEL_S = 140e-6  # the kernel's time on the VM the baseline was taken on
REF_IMPORTS = ("asyncio", "email.parser", "http.client", "xml.etree.ElementTree", "sqlite3",
               "decimal", "multiprocessing", "tarfile", "uuid", "pdb", "urllib.request")
REF_IMPORT_S = 0.040  # their import time on that VM, after greenlink's


def _step(x: float, table) -> float:
    return table.get(int(x) & 7, 0.0) + math.exp(-x * 1e-3) * (x if x < 50.0 else -x)


def _kernel() -> int:
    table = {i: i * 0.25 for i in range(8)}
    acc, out = 0.0, []
    for i in range(400):
        acc += _step(i * 0.37, table)
        out.append((i, acc))
    return len(out)


def reading() -> float:
    """Seconds the kernel takes right now (best of three)."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def import_reading() -> float:
    """Seconds this interpreter takes to import REF_IMPORTS; once per process."""
    t0 = time.perf_counter()
    for name in REF_IMPORTS:
        __import__(name)
    return time.perf_counter() - t0


def at_reference(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between readings `before` and `after`, at reference speed."""
    return seconds * REF_KERNEL_S / math.sqrt(before * after)
