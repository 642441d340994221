#!/usr/bin/env python3
"""Check the per-ISA-tier kernel objects for symbols baseline code could bind.

The serving hot kernels are compiled once per ISA tier (CMake object
libraries swat_isa_<tier>, see src/common/isa_kernels.hpp). If a tier
object defines a weak or COMDAT symbol (nm types W, V, u) -- typically an
out-of-line copy of an inline header function or template such as std::min
-- the linker keeps one copy for the whole program, and it may keep the
AVX-512 one. Baseline code calling that function then dies with SIGILL on a
CPU without AVX-512. An AVX-512 host cannot show that at run time, so this
script checks the objects instead.

A tier object may define, with external linkage, only symbols in its own
namespace swat::isa::<tier> (the tier's entry points). Anything else it
defines with external or vague linkage fails the check.

An incremental build keeps the objects of deleted sources; an object whose
source file no longer exists in this repository is skipped (and counted),
so only code that still exists is checked.

Usage: check_isa_objects.py <build-dir>   (e.g. build)
Exits non-zero with one line per offending symbol, when no tier objects
are found under <build-dir>/CMakeFiles/swat_isa_*.dir, or when a tier has
objects but none of them is live.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# nm symbol types that are weak or COMDAT-like (vague linkage).
VAGUE_TYPES = {"W", "V", "u"}
# Strong external definitions (text, data, bss, read-only, indirect).
STRONG_TYPES = {"T", "D", "B", "R", "G", "S", "i"}


def source_of(lib_dir, obj):
    """The source CMake compiled `obj` from: the object's path under its
    target directory (e.g. src/tensor/gemm_packed_tier.cpp.o) without the
    object suffix, relative to the repository root."""
    return REPO / obj.relative_to(lib_dir).with_suffix("")


def tier_objects(build_dir):
    """({tier: [live object paths]}, stale count) for every swat_isa_<tier>
    object library that holds objects."""
    tiers = {}
    stale = 0
    for lib_dir in sorted(build_dir.glob("**/CMakeFiles/swat_isa_*.dir")):
        tier = lib_dir.name[len("swat_isa_"):-len(".dir")]
        objects = sorted(lib_dir.rglob("*.o"))
        if not objects:
            continue
        live = tiers.setdefault(tier, [])
        for obj in objects:
            if source_of(lib_dir, obj).is_file():
                live.append(obj)
            else:
                stale += 1
    return tiers, stale


def defined_symbols(obj):
    """(type, demangled name) for every symbol `obj` defines."""
    out = subprocess.run(["nm", "-C", "--defined-only", str(obj)],
                         capture_output=True, text=True, check=True).stdout
    symbols = []
    for line in out.splitlines():
        parts = line.split(None, 2)
        if len(parts) == 3:
            symbols.append((parts[1], parts[2]))
        elif len(parts) == 2:  # no address column
            symbols.append((parts[0], parts[1]))
    return symbols


def violations(tier, obj):
    namespace = f"swat::isa::{tier}"
    prefix = namespace + "::"
    bad = []
    for kind, name in defined_symbols(obj):
        if kind not in VAGUE_TYPES and kind not in STRONG_TYPES:
            continue  # local (lowercase) symbols cannot bind other objects
        if name.startswith(prefix):
            continue
        what = "weak/COMDAT" if kind in VAGUE_TYPES else "external"
        bad.append(f"{obj}: {what} symbol ({kind}) outside namespace "
                   f"{namespace}: {name}")
    return bad


def main(argv):
    if len(argv) != 2:
        print("usage: check_isa_objects.py <build-dir>", file=sys.stderr)
        return 2
    build_dir = Path(argv[1])
    tiers, stale = tier_objects(build_dir)
    if not tiers:
        print(f"error: no swat_isa_*.dir objects under {build_dir} "
              "(build swat_core first)", file=sys.stderr)
        return 1
    if stale:
        print(f"skipped {stale} stale object(s) whose source no longer "
              "exists")
    errors = []
    count = 0
    for tier, objects in sorted(tiers.items()):
        if not objects:
            errors.append(f"tier {tier} has no object whose source exists "
                          f"under {REPO}")
        for obj in objects:
            count += 1
            errors += violations(tier, obj)
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if not errors:
        print(f"isa objects OK: {count} objects across tiers "
              f"{', '.join(sorted(tiers))} define only their tier's "
              "namespaced entry points")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
