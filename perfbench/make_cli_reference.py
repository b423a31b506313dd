"""Regenerate cli_reference.json: the stdout, stderr, exit code (and DOT
file) of every exact-mode case of the cli workload.

    python3 perfbench/make_cli_reference.py

Run it only when a change to the CLI output is intended; the cli workload
compares against this file byte for byte.
"""

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from wl_cli import EXACT_CASES, REFERENCE, child_env, run_child, write_exact_inputs  # noqa: E402


def main():
    work = HERE / "out" / f"reference-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        write_exact_inputs(work)
        env = child_env(ROOT)
        ref = {}
        for variants in EXACT_CASES.values():
            for key, argv, expected_exit in variants:
                code, out, err, _ = run_child(argv, work, env)
                if code != expected_exit:
                    raise SystemExit(f"{key}: exit {code}, expected {expected_exit}: {err}")
                dot = work / "g.dot"
                ref[key] = {"argv": argv, "exit": code, "stdout": out, "stderr": err,
                            "dot": dot.read_text() if dot.is_file() else None}
                dot.unlink(missing_ok=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(ref)} cases to {REFERENCE.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
