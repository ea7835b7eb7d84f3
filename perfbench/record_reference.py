"""Record the reference outputs that the benchmark's checks compare against.

Run once, from the root of a checkout, at the commit that defines the
benchmark; the result is committed as perfbench/reference.json:

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 python3 perfbench/record_reference.py

Re-recording at a later commit would make the checks compare the program
with itself, so do it only when a change of output is intended and stated.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

from workloads import key, read_csv, reference_commands

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from rmpslab import cli

    refs = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        path = os.path.join(tmp, "ref.csv")
        for argv in reference_commands():
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main([*argv, "--out", path]) != 0:
                    raise SystemExit(f"reference command failed: {key(argv)}")
            with open(path, encoding="utf-8") as fh:
                refs[key(argv)] = read_csv(fh.read())
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
