#!/usr/bin/env python3
"""Performance ledger entry point.

Builds the ledger driver (perfledger/ledger.cpp, linked against the
simulator sources of this checkout) and runs one workload:

    python3 perfledger/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The driver's last stdout line is the result JSON. Build output goes to
stderr. The build tree lives under $CARGO_TARGET_DIR (default
.bench_build) at the checkout root; traced runs write their span file
(spans/<workload>.json) there too.

    python3 perfledger/run.py --record-fingerprints

re-records perfledger/fingerprints.json, the pinned outcome fingerprint
of every workload for seeds 0-32.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "fingerprints.json"
WORKLOADS = ["grid_busy", "cheshire_busy", "cheshire_idle", "campaign_fork"]
PINNED_SEEDS = range(0, 33)


def build_dir():
    """Per-checkout build tree: a target directory shared by two checkouts
    must not measure one checkout's sources for the other."""
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    tag = hashlib.sha256(str(ROOT).encode()).hexdigest()[:12]
    return base / f"perfledger-{tag}"


def build():
    """Configures and builds incrementally (both no-ops when up to date);
    returns the binary."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfledger", "-j", jobs],
        check=True, stdout=sys.stderr)
    return out / "perfledger"


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the simulator sources."""
    if (ROOT / ".git").exists():
        try:
            r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=10)
            if r.returncode == 0 and r.stdout.strip():
                return r.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def load_pins():
    if PINS.exists():
        return json.loads(PINS.read_text())
    return {}


def record(binary):
    pins = {}
    for w in WORKLOADS:
        pins[w] = {}
        for s in PINNED_SEEDS:
            r = subprocess.run(
                [str(binary), "--workload", w, "--seed", str(s),
                 "--seconds", "1", "--trace", "0", "--fingerprint-only"],
                check=True, capture_output=True, text=True, timeout=180)
            pins[w][str(s)] = r.stdout.strip().splitlines()[-1]
            print(f"{w} seed={s} {pins[w][str(s)]}", file=sys.stderr)
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--threads", type=int, default=0,
                    help="campaign worker threads (default min(4, nproc))")
    ap.add_argument("--record-fingerprints", action="store_true")
    args = ap.parse_args()
    if not args.record_fingerprints and args.workload is None:
        ap.error("--workload is required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfledger: build failed: {e}", file=sys.stderr)
        return 1
    if args.record_fingerprints:
        record(binary)
        return 0

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.threads:
        cmd += ["--threads", str(args.threads)]
    pin = load_pins().get(args.workload, {}).get(str(args.seed))
    if pin:
        cmd += ["--expect", pin]
    if args.trace:
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd, timeout=170).returncode


if __name__ == "__main__":
    sys.exit(main())
