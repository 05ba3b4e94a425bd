"""Write golden.json: SHA-256 pins of the default seed's curve-sweep CSVs.

    python3 perfbench/pin_golden.py

Run it only on a commit whose CSVs are known good; every later run of
the curve-sweep workload must then reproduce them byte for byte.
"""

import json
import tempfile
from pathlib import Path

import checks
import run
import workloads


def main() -> None:
    run.import_program()
    (run.ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_out") as tmp:
        hashes = checks.golden_hashes(run.Runner(Path(tmp)).call, Path(tmp))
    pins = {"seed": workloads.DEFAULT_SEED, "curve-sweep": hashes}
    checks.GOLDEN.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"pinned {len(hashes)} CSVs in {checks.GOLDEN.name}")


if __name__ == "__main__":
    main()
