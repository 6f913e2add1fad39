"""Write reference.json: output digests of every workload on its default seed.

    python3 perfbench/make_reference.py

The benchmark checks every warm-up unit, and every round on a default
seed, against these digests. Regenerate only when a change to the program
is meant to change its outputs, and say so in CHANGES.md.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    reference = {}
    for name, cls in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            workload = cls(cls.default_seed, Path(tmp))
            result = workload.run(Tracer(), 1)
        if workload.invalid_ops(result):
            raise SystemExit(f"{name}: default-seed output breaks an invariant")
        fp = workload.fingerprint(result)
        reference[name] = {key: digest for key, (digest, _) in fp.items()}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
