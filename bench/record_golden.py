"""Record bench/golden.json: the digest of every report the benchmark renders.

    python3 bench/record_golden.py

Run it only at a commit whose reports are known to be right; afterwards
the benchmark counts every report that differs from these digests as a
failed operation, so a faster wrong report cannot pass as a gain.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile

import run
import workloads


def main() -> int:
    env = run.child_env()
    os.makedirs(run.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="golden-", dir=run.WORK)
    golden = {}
    try:
        run.check_import_path(workdir, env)
        script = os.path.join(run.HERE, "child.py")
        for name in workloads.IN_PROCESS:
            for v in range(workloads.VARIANTS):
                proc = run.spawn(lambda t: [sys.executable, script, "run", name, str(v), "0",
                                            repr(t), "-"], workdir, env)
                if proc.code != 0:
                    raise SystemExit(f"{name}/{v} failed: {proc.stderr}")
                golden[f"{name}/{v}"] = json.loads(proc.stdout.strip().splitlines()[-1])["digest"]
                print(name, v, golden[f"{name}/{v}"], flush=True)
        for command in workloads.CLI_COMMANDS:
            for v in range(workloads.VARIANTS if command == "density" else 1):
                argv, out = workloads.cli_argv(command, v)
                proc = run.spawn(lambda t: [sys.executable, "-m", "cantoract", *argv], workdir, env)
                if proc.code != 0:
                    raise SystemExit(f"{command} failed: {proc.stderr}")
                with open(os.path.join(workdir, out), "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                golden[workloads.cli_label(command, v)] = digest
                print(command, v, digest, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
