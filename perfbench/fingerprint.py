"""Host and build fingerprint stamped into every benchmark result, and the
rule that decides whether two results may be compared at all."""
import os
import platform
import subprocess

# Fields that must match for two results to be comparable. The commit and
# the seed are deliberately absent: comparing commits is the point.
COMPARED = ("cpu_model", "nproc", "isa", "compiler", "build_type", "simd",
            "threads", "gt_env")

# ISA extensions the SIMD dispatch can use, reported when present.
ISA_FLAGS = ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw",
             "avx512dq", "avx512vl", "asimd", "sve")


def _cpuinfo():
    """(CPU model, ISA_FLAGS present) from the first CPU in /proc/cpuinfo."""
    model, flags = None, set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "Model") and model is None:
                    model = value.strip()
                elif key in ("flags", "Features") and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return model or platform.machine(), sorted(f for f in ISA_FLAGS if f in flags)


def _commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def collect(root, build_info):
    """build_info is the `perfbench_cpp info` line (compiler, build type,
    resolved SIMD level, thread counts of the process under test). Any GT_*
    variable is recorded because the library reads it (GT_SIMD changes the
    dispatched kernel), so results taken under one never compare equal to
    results taken without it."""
    model, isa = _cpuinfo()
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count(),
        "isa": isa,
        "compiler": build_info["compiler"],
        "build_type": build_info["build_type"],
        "simd": build_info["simd"],
        "threads": [build_info["threads"], build_info["scaling_threads"]],
        "gt_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("GT_")},
        "commit": _commit(root),
    }


def mismatches(a, b):
    """Names of the COMPARED fields on which fingerprints a and b differ."""
    return [k for k in COMPARED if a.get(k) != b.get(k)]


class FingerprintMismatch(Exception):
    pass


def require_comparable(records):
    """Raises FingerprintMismatch, naming each differing field and both
    values, unless every record carries the same fingerprint."""
    first = records[0]
    for other in records[1:]:
        diff = mismatches(first["fingerprint"], other["fingerprint"])
        if diff:
            detail = "; ".join(
                f"{k}: {first['fingerprint'].get(k)!r} vs {other['fingerprint'].get(k)!r}"
                for k in diff)
            raise FingerprintMismatch(
                f"refusing to compare results from different hosts or builds "
                f"({first.get('source', '?')} vs {other.get('source', '?')}): {detail}")
