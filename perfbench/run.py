#!/usr/bin/env python3
"""The indrel benchmark: build the `perfbench` binary from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --spread --workload <name> [--seeds 10] [--seconds <s>]

The first form runs one workload and forwards the binary's output; its
last line is the one-line JSON result. `--all` runs every workload
untraced and prints the twelve named end-to-end metrics. `--self-test`
is a minimal-length run of every workload, traced and untraced, that
checks every metric is emitted with its unit and that nothing failed.
`--spread` runs one workload on several seeds and prints, per
end-to-end metric, the interquartile range over the median next to the
metric's bound in BENCHMARK.json. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tomllib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ["pbt-checkers", "pbt-producers", "serve-mixed", "suite-memo"]
BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 170
# Per workload, the named end-to-end metrics behind the generic ones.
NAMED = {
    "pbt-checkers": ["bst_check_tps", "ifc_check_tps"],
    "pbt-producers": ["stlc_check_tps", "bst_gen_tps", "stlc_gen_tps"],
    "serve-mixed": ["req_per_s", "req_p50_ns", "req_p99_ns"],
    "suite-memo": ["suite_hit_cps", "suite_miss_cps"],
}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Builds the benchmark in release mode; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail("the library sources are missing; run from a full checkout of the repository")
    tdir = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=tdir)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if proc.returncode != 0:
        fail(f"build failed with exit code {proc.returncode}")
    return os.path.join(tdir, "release", "perfbench")


def source_sha256():
    """A hash of every source file the benchmark builds from."""
    h = hashlib.sha256()
    skip = {"target", "out", ".bench_build", ".git"}
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in skip)
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def provenance_env():
    """Provenance the binary copies into its result record."""

    def out(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            return ""

    with open(MANIFEST, "rb") as fh:
        profile = tomllib.load(fh).get("profile", {}).get("release", {})
    commit = out(["git", "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(ROOT, ".git")) else ""
    return {
        "PERFBENCH_RUSTC": out(["rustc", "-V"]) or "unknown",
        "PERFBENCH_PROFILE": "release " + " ".join(f"{k}={v}" for k, v in sorted(profile.items())),
        "PERFBENCH_COMMIT": commit or "none (not a git checkout)",
        "PERFBENCH_SOURCE_SHA256": source_sha256(),
    }


def run(binary, workload, seed, seconds, trace, out_dir=None, capture=False):
    """Runs one workload; returns (exit code, stdout or None)."""
    env = dict(os.environ, **provenance_env())
    if out_dir:
        env["PERFBENCH_OUT"] = out_dir
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE if capture else None,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    return proc.returncode, proc.stdout


def record(out_dir, workload, seed, trace):
    path = os.path.join(out_dir or os.path.join(HERE, "out"), f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        return json.load(fh)


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_all(binary, seed, seconds):
    rows = []
    ok = True
    for w in WORKLOADS:
        code, _ = run(binary, w, seed, seconds, 0)
        ok &= code == 0
        rec = record(None, w, seed, 0)
        for name in NAMED[w] + ["setup_s", "error_rate"]:
            m = rec["named"][name]
            rows.append((w, name, m["value"], m["unit"], m["n"]))
    print("\n== end-to-end metrics, all workloads ==")
    for w, name, value, unit, n in rows:
        print(f"  {w:<14} {name:<16} {value:>16.3f} {unit:<9} (n={n})")
    return 0 if ok else 1


def self_test(binary):
    """A minimal-length run of every workload, traced and untraced."""
    import tempfile

    bench = benchmark_json()
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]}, 1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as out_dir:
        for w in WORKLOADS:
            for trace in (0, 1):
                code, stdout = run(binary, w, 1, 0.3, trace, out_dir, capture=True)
                tag = f"{w} trace={trace}"
                if code != 0:
                    problems.append(f"{tag}: exit code {code}")
                    continue
                line = json.loads(stdout.strip().splitlines()[-1])
                if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append(f"{tag}: result keys {sorted(line)}")
                if not line["correct"] or line["failed"] != 0 or line["attempted"] < 1:
                    problems.append(f"{tag}: correct={line['correct']} failed={line['failed']}")
                got = {k: v.get("unit") for k, v in line["metrics"].items()}
                if got != want[trace]:
                    problems.append(f"{tag}: metrics {sorted(set(got) ^ set(want[trace]))} differ from BENCHMARK.json")
                rec = record(out_dir, w, 1, trace)
                if rec["named"]["error_rate"]["value"] != 0:
                    problems.append(f"{tag}: error_rate {rec['named']['error_rate']['value']}")
                for name in NAMED[w] + ["setup_s", "error_rate"]:
                    if not rec["named"].get(name, {}).get("unit"):
                        problems.append(f"{tag}: named metric {name} missing")
                if trace == 0:
                    for name, m in line["metrics"].items():
                        if not m["value"] > 0:
                            problems.append(f"{tag}: end-to-end {name} is {m['value']}")
                    continue
                layers = {k: v["value"] for k, v in line["metrics"].items()}
                # The stated bypasses.
                if w == "pbt-checkers" and layers["search.enters.enumerator_per_op"] != 0:
                    problems.append(f"{tag}: enumerators entered")
                for prefix, only in (("shared.", "serve-mixed"), ("memo.", "suite-memo")):
                    live = [k for k, v in layers.items() if k.startswith(prefix) and v != 0]
                    if w == only and len(live) != sum(k.startswith(prefix) for k in layers):
                        problems.append(f"{tag}: {prefix}* not all measured")
                    if w != only and live:
                        problems.append(f"{tag}: {live} measured outside {only}")
    for p in problems:
        print(f"SELF-TEST FAIL {p}")
    print(f"self-test: {'ok' if not problems else f'{len(problems)} problem(s)'}")
    return 0 if not problems else 1


def spread(binary, workload, seeds, seconds):
    """The acceptance check: IQR over median of each end-to-end metric."""
    bench = benchmark_json()
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(1, seeds + 1):
        code, stdout = run(binary, workload, seed, seconds, 0, capture=True)
        if code != 0:
            fail(f"{workload} seed {seed} exited with {code}", 1)
        line = json.loads(stdout.strip().splitlines()[-1])
        for name in values:
            values[name].append(line["metrics"][name]["value"])
    print(f"== {workload}: {seeds} seeds, {seconds} s each ==")
    for m in bench["end_to_end"]:
        xs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        share = (q3 - q1) / med
        print(f"  {m['name']:<12} median {med:>14.4f} {m['unit']:<5} spread {share:6.3f} bound {m['bound']:.3f}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true", help="run every workload untraced")
    p.add_argument("--self-test", action="store_true", help="minimal run of every workload")
    p.add_argument("--spread", action="store_true", help="run one workload on several seeds")
    p.add_argument("--seeds", type=int, default=10)
    a = p.parse_args()
    binary = build()
    if a.self_test:
        return self_test(binary)
    if a.all:
        return run_all(binary, a.seed, a.seconds)
    if not a.workload:
        p.error("--workload is required")
    if a.spread:
        return spread(binary, a.workload, a.seeds, a.seconds)
    seconds = int(a.seconds) if a.seconds == int(a.seconds) else a.seconds
    code, _ = run(binary, a.workload, a.seed, seconds, a.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
