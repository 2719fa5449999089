"""Print every eigensolve and result of the exact route on a fixed case list.

For 17 sidebands and the default ``trapshift sweep`` it prints one line per
``(basis dimension, delta)`` that reaches ``spectrum._DetuningScan.eigen``, in
call order, then each ``ShiftReport`` or exception, and the SHA-256 of the
sweep's CSV.  It ends with ``solves <count>`` of those lines and
``eigh <count> <sha256>``: every matrix ``numpy.linalg.eigh`` receives, hashed
in call order.  Run it on two checkouts and diff the outputs: a refactor that
keeps the exact route bit for bit prints the same lines, and equal counts say
that no eigensolve bypasses the scan.  The hash is comparable on one machine
only: the coupling block comes from BLAS matrix products, whose last bits can
differ by CPU.

    python scripts/exact_route_trace.py > trace.txt

It imports trapshift from the ``src`` beside this script and pins OpenBLAS to
one thread, so a run is deterministic on one machine.
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import trapshift as ts  # noqa: E402
from trapshift import cli, spectrum  # noqa: E402

#: ((n_g, n_e), rabi, eta): decoupled crossings, resolved and wide
#: anti-crossings, window escalations and the locator's failures.
CASES = [
    ((0, 1), 0.01, 0.1), ((0, 1), 0.001, 0.0), ((0, 1), 0.3, 0.4), ((0, 1), 0.8, 0.05), ((0, 1), 1.5, 0.5),
    ((1, 0), 0.01, 0.0), ((1, 0), 0.01, 0.3), ((1, 0), 0.01, 1.0),
    ((2, 4), 0.01, 0.3), ((3, 1), 0.01, 0.4), ((5, 3), 0.01, 0.0),
    ((0, 2), 2.0, 0.1), ((2, 0), 2.0, 0.1),
    ((0, 2), 0.015625, 0.0078125), ((0, 2), 0.001953125, 0.001953125),
    ((1, 1), 0.01, 0.1), ((0, 3), 3.0, 0.05),
]


def main() -> int:
    eigen, eigh = spectrum._DetuningScan.eigen, np.linalg.eigh
    solves, matrices, digest = 0, 0, hashlib.sha256()

    def recording(self, delta):
        nonlocal solves
        values, vectors = eigen(self, delta)
        solves += 1
        print(f"eigen {len(values)} {delta!r}")
        return values, vectors

    def hashing(a, *args, **kwargs):
        nonlocal matrices
        matrices += 1
        digest.update(f"{a.shape} {a.dtype} ".encode() + np.ascontiguousarray(a).tobytes())
        return eigh(a, *args, **kwargs)

    spectrum._DetuningScan.eigen = recording
    np.linalg.eigh = hashing
    for (n_g, n_e), rabi, eta in CASES:
        print(f"case ({n_g},{n_e}) rabi {rabi!r} eta {eta!r}")
        try:
            print(ts.find_resonance(ts.SidebandId(n_g, n_e), ts.TrapParams(rabi=rabi, eta=eta)))
        except Exception as exc:  # every failure is part of the record
            print(f"{type(exc).__name__}: {exc}")
    print("case sweep (defaults)")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["sweep"])
    print(f"exit {code} sha256 {hashlib.sha256(out.getvalue().encode()).hexdigest()}")
    print(f"solves {solves}")
    print(f"eigh {matrices} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
