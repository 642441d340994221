#!/usr/bin/env python3
"""Documentation consistency checks (run by the CI docs job).

1. Every relative markdown link in README.md, docs/*.md and
   examples/README.md must resolve to an existing file or directory.
2. Every src/<subsystem>/ directory must be mentioned in
   docs/ARCHITECTURE.md — the architecture map may not silently go stale
   when a subsystem is added.
3. The public API of the serving front-end (src/runtime/server.hpp: every
   top-level type and every public method of Server) must be mentioned in
   docs/ARCHITECTURE.md — doc drift on the new subsystem fails CI like a
   missing subsystem does.
4. The public API of the kernel layer (src/tensor/kernels.hpp: every
   top-level type and every free function declared at namespace scope,
   excluding namespace detail) must be mentioned in docs/ARCHITECTURE.md —
   the packed-GEMM/fusion surface is the serving hot path and its docs may
   not go stale either.
5. The overload/observability surface — src/runtime/stats.hpp (SLO
   classes, per-class counters, health snapshot) and
   src/common/fault_injection.hpp (every top-level type and every public
   method of FaultInjector) — must be mentioned in docs/ARCHITECTURE.md:
   the failure semantics are a documented contract, same as the serving
   API itself.
6. The compiled-engine surface (src/runtime/engine.hpp: every top-level
   type and every public method of Engine and ExecutionPlan) must be
   mentioned in docs/ARCHITECTURE.md — the plan/execute split and the
   packed-weight footprint accessor (what the cost model's weight sweep
   must equal) are documented contracts too.
7. The placement/topology surface (src/common/topology.hpp: top-level
   types, free functions, CpuSet's public methods; plus the server's
   placement knob and the per-replica core_group/pinned_threads stats
   fields) must be mentioned in docs/ARCHITECTURE.md — replica placement
   is a behavioral contract (kShared stays bit-identical, kPartitioned
   matches solo oracles) and its docs may not drift. The fp32-only
   stream_dtype and pack_dtype config fields are pinned here too, so their
   one valid value and the removed fp16 stream and pack stay documented.
8. The fused attention surface (src/attention/fused.hpp: every top-level
   type and every free function declared at namespace scope) must be
   mentioned in docs/ARCHITECTURE.md — the fused kernel and its
   kv-stream pricing helper are the serving hot path's attention
   contract.
9. The runtime ISA dispatch surface (src/common/cpu_dispatch.hpp: every
   top-level type and every free function declared at namespace scope,
   plus the kIsaTiers list and the SWAT_ISA variable) must be mentioned in
   docs/ARCHITECTURE.md — which tier runs, and how to pin one, decides
   which kernels' bits a deployment gets.
10. The deterministic math primitive (src/common/det_math.hpp: every
    function declared at namespace scope — det_exp and the inline bodies
    the tier kernels call) must be mentioned in docs/ARCHITECTURE.md — the
    fp32 exp and GELU bits are swat's own, not libm's, and that contract
    may not go undocumented.

Exits non-zero with one line per violation.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# [text](target) — excluding images is unnecessary; they must resolve too.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def doc_files():
    files = [REPO / "README.md", REPO / "examples" / "README.md"]
    files += sorted((REPO / "docs").glob("*.md"))
    return [f for f in files if f.exists()]


def check_links(errors):
    for doc in doc_files():
        for target in LINK_RE.findall(doc.read_text(encoding="utf-8")):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                errors.append(
                    f"{doc.relative_to(REPO)}: broken link -> {target}")


def check_architecture_mentions(errors):
    arch = REPO / "docs" / "ARCHITECTURE.md"
    if not arch.exists():
        errors.append("docs/ARCHITECTURE.md is missing")
        return
    text = arch.read_text(encoding="utf-8")
    for sub in sorted(p.name for p in (REPO / "src").iterdir() if p.is_dir()):
        if f"src/{sub}" not in text:
            errors.append(
                f"docs/ARCHITECTURE.md: subsystem src/{sub}/ is not mentioned")


TYPE_RE = re.compile(r"^(?:class|struct|enum class)\s+(\w+)", re.MULTILINE)
METHOD_RE = re.compile(r"^\s+(?:[\w:<>&*~,\s]+\s)?(\w+)\(")
CPP_KEYWORDS = {"if", "while", "for", "switch", "return", "sizeof",
                "static_cast", "operator"}


def class_public_methods(text, class_name):
    """Public method names of `class_name` in a header's text."""
    names = set()
    in_class, public = False, False
    depth = 0
    for line in text.splitlines():
        if re.match(rf"^class {class_name}\b", line):
            in_class = True  # class access defaults to private
            public = False
        if not in_class:
            continue
        if re.match(r"^\s*public:", line):
            public = True
        elif re.match(r"^\s*(private|protected):", line):
            public = False
        elif public and depth == 1:
            # Braces are counted AFTER matching, so declaration lines sit
            # at depth 1 while the lines of an inline method body sit at
            # depth >= 2 — a call inside a body is not a declaration.
            m = METHOD_RE.match(line)
            if m:
                name = m.group(1)
                if name not in CPP_KEYWORDS and not name.startswith("~") \
                        and name != class_name:
                    names.add(name)
        depth += line.count("{") - line.count("}")
        if depth <= 0 and "};" in line and in_class:
            break
    return names


def server_public_api(header):
    """Top-level type names + public method names of class Server."""
    text = header.read_text(encoding="utf-8")
    names = set(TYPE_RE.findall(text))
    names |= class_public_methods(text, "Server")
    return sorted(names)


# A free-function declaration at column 0: return type then name(. Multi-line
# parameter lists are fine — the name and '(' sit on the first line.
FREE_FUNC_RE = re.compile(r"^(?:[\w:<>,&*\s]+?[\s&*])(\w+)\(")


def kernels_public_api(header):
    """Top-level type names + namespace-scope free functions of kernels.hpp.

    Tracks brace depth so class members and the contents of namespace
    detail (implementation surface, not public API) are excluded. The
    header's own style — declarations start at column 0, type names on the
    same line as the '(' — is what makes this regex approach sound.
    """
    text = header.read_text(encoding="utf-8")
    names = set(TYPE_RE.findall(text))

    depth = 0           # brace depth, 0 = file scope
    detail_depth = None  # depth at which `namespace detail {` opened
    for line in text.splitlines():
        stripped = line.split("//", 1)[0]
        opens_detail = re.match(r"^namespace\s+detail\b", stripped)
        at_namespace_scope = (
            depth <= 1 and detail_depth is None and not opens_detail)
        if at_namespace_scope and not line.startswith((" ", "\t", "}", "#")):
            m = FREE_FUNC_RE.match(stripped)
            if m and m.group(1) not in CPP_KEYWORDS:
                names.add(m.group(1))
        if opens_detail:
            detail_depth = depth
        depth += stripped.count("{") - stripped.count("}")
        if detail_depth is not None and depth <= detail_depth:
            detail_depth = None
    return sorted(names)


def check_kernels_api_mentions(errors):
    header = REPO / "src" / "tensor" / "kernels.hpp"
    arch = REPO / "docs" / "ARCHITECTURE.md"
    if not header.exists():
        errors.append("src/tensor/kernels.hpp is missing")
        return
    if not arch.exists():
        return  # reported by check_architecture_mentions
    text = arch.read_text(encoding="utf-8")
    for name in kernels_public_api(header):
        if not re.search(rf"\b{re.escape(name)}\b", text):
            errors.append(
                "docs/ARCHITECTURE.md: kernels.hpp public API "
                f"`{name}` is not documented")


def check_resilience_api_mentions(errors):
    """stats.hpp and fault_injection.hpp public APIs must be documented."""
    arch = REPO / "docs" / "ARCHITECTURE.md"
    if not arch.exists():
        return  # reported by check_architecture_mentions
    text = arch.read_text(encoding="utf-8")

    stats = REPO / "src" / "runtime" / "stats.hpp"
    if not stats.exists():
        errors.append("src/runtime/stats.hpp is missing")
    else:
        # Same shape as kernels.hpp: top-level types + column-0 free
        # functions (to_string overloads and friends).
        for name in kernels_public_api(stats):
            if not re.search(rf"\b{re.escape(name)}\b", text):
                errors.append(
                    "docs/ARCHITECTURE.md: stats.hpp public API "
                    f"`{name}` is not documented")

    fault = REPO / "src" / "common" / "fault_injection.hpp"
    if not fault.exists():
        errors.append("src/common/fault_injection.hpp is missing")
    else:
        fault_text = fault.read_text(encoding="utf-8")
        names = set(TYPE_RE.findall(fault_text))
        names |= class_public_methods(fault_text, "FaultInjector")
        for name in sorted(names):
            if not re.search(rf"\b{re.escape(name)}\b", text):
                errors.append(
                    "docs/ARCHITECTURE.md: fault_injection.hpp public API "
                    f"`{name}` is not documented")


def check_engine_api_mentions(errors):
    """engine.hpp top-level types + Engine/ExecutionPlan public methods."""
    header = REPO / "src" / "runtime" / "engine.hpp"
    arch = REPO / "docs" / "ARCHITECTURE.md"
    if not header.exists():
        errors.append("src/runtime/engine.hpp is missing")
        return
    if not arch.exists():
        return  # reported by check_architecture_mentions
    text = arch.read_text(encoding="utf-8")
    header_text = header.read_text(encoding="utf-8")
    names = set(TYPE_RE.findall(header_text))
    names |= class_public_methods(header_text, "Engine")
    names |= class_public_methods(header_text, "ExecutionPlan")
    for name in sorted(names):
        if not re.search(rf"\b{re.escape(name)}\b", text):
            errors.append(
                "docs/ARCHITECTURE.md: engine.hpp public API "
                f"`{name}` is not documented")


def check_topology_api_mentions(errors):
    """topology.hpp types, free functions and CpuSet methods, plus the
    placement surface the server exposes on top of them (the ServerOptions
    field and the ReplicaStats fields), must be documented."""
    header = REPO / "src" / "common" / "topology.hpp"
    arch = REPO / "docs" / "ARCHITECTURE.md"
    if not header.exists():
        errors.append("src/common/topology.hpp is missing")
        return
    if not arch.exists():
        return  # reported by check_architecture_mentions
    text = arch.read_text(encoding="utf-8")
    header_text = header.read_text(encoding="utf-8")
    # Top-level types + column-0 free functions (discover_topology,
    # pin_current_thread, ...), same shape as kernels.hpp.
    names = set(kernels_public_api(header))
    names |= class_public_methods(header_text, "CpuSet")
    # Placement knobs live in server.hpp/stats.hpp as plain fields, which
    # the type/method scrapers don't see — pin them by name. stream_dtype
    # and pack_dtype (encoder.hpp) are not placement knobs: they ride along
    # so the fields' fp32-only contract stays documented until the fields
    # are removed.
    names |= {"placement", "core_group", "pinned_threads", "stream_dtype",
              "pack_dtype"}
    for name in sorted(names):
        if not re.search(rf"\b{re.escape(name)}\b", text):
            errors.append(
                "docs/ARCHITECTURE.md: placement/topology API "
                f"`{name}` is not documented")


def check_fused_api_mentions(errors):
    """fused.hpp top-level types + namespace-scope free functions must be
    documented — same scrape shape as kernels.hpp (declarations start at
    column 0, names on the same line as the '(')."""
    header = REPO / "src" / "attention" / "fused.hpp"
    arch = REPO / "docs" / "ARCHITECTURE.md"
    if not header.exists():
        errors.append("src/attention/fused.hpp is missing")
        return
    if not arch.exists():
        return  # reported by check_architecture_mentions
    text = arch.read_text(encoding="utf-8")
    for name in kernels_public_api(header):
        if not re.search(rf"\b{re.escape(name)}\b", text):
            errors.append(
                "docs/ARCHITECTURE.md: fused.hpp public API "
                f"`{name}` is not documented")


def check_cpu_dispatch_api_mentions(errors):
    """cpu_dispatch.hpp top-level types + namespace-scope free functions,
    plus kIsaTiers and SWAT_ISA, must be documented."""
    header = REPO / "src" / "common" / "cpu_dispatch.hpp"
    arch = REPO / "docs" / "ARCHITECTURE.md"
    if not header.exists():
        errors.append("src/common/cpu_dispatch.hpp is missing")
        return
    if not arch.exists():
        return  # reported by check_architecture_mentions
    text = arch.read_text(encoding="utf-8")
    names = set(kernels_public_api(header)) | {"kIsaTiers", "SWAT_ISA"}
    for name in sorted(names):
        if not re.search(rf"\b{re.escape(name)}\b", text):
            errors.append(
                "docs/ARCHITECTURE.md: cpu_dispatch.hpp public API "
                f"`{name}` is not documented")


def check_det_math_api_mentions(errors):
    """det_math.hpp namespace-scope functions must be documented."""
    header = REPO / "src" / "common" / "det_math.hpp"
    arch = REPO / "docs" / "ARCHITECTURE.md"
    if not header.exists():
        errors.append("src/common/det_math.hpp is missing")
        return
    if not arch.exists():
        return  # reported by check_architecture_mentions
    text = arch.read_text(encoding="utf-8")
    # The bodies are declared `SWAT_DET_INLINE float name(...)` at column
    # 0, the shape kernels_public_api scrapes.
    for name in kernels_public_api(header):
        if not re.search(rf"\b{re.escape(name)}\b", text):
            errors.append(
                "docs/ARCHITECTURE.md: det_math.hpp public API "
                f"`{name}` is not documented")


def check_server_api_mentions(errors):
    header = REPO / "src" / "runtime" / "server.hpp"
    arch = REPO / "docs" / "ARCHITECTURE.md"
    if not header.exists():
        errors.append("src/runtime/server.hpp is missing")
        return
    if not arch.exists():
        return  # reported by check_architecture_mentions
    text = arch.read_text(encoding="utf-8")
    for name in server_public_api(header):
        # Word-bounded: 'submit' must not pass on the strength of
        # 'submitters', nor 'drain' on 'drained'.
        if not re.search(rf"\b{re.escape(name)}\b", text):
            errors.append(
                "docs/ARCHITECTURE.md: server.hpp public API "
                f"`{name}` is not documented")


def main():
    errors = []
    check_links(errors)
    check_architecture_mentions(errors)
    check_server_api_mentions(errors)
    check_kernels_api_mentions(errors)
    check_resilience_api_mentions(errors)
    check_engine_api_mentions(errors)
    check_topology_api_mentions(errors)
    check_fused_api_mentions(errors)
    check_cpu_dispatch_api_mentions(errors)
    check_det_math_api_mentions(errors)
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if not errors:
        print(f"docs OK: {len(doc_files())} files checked, "
              "all links resolve, architecture map covers src/, "
              "server, kernel, engine, stats, fault-injection, "
              "placement/topology, fused-attention, ISA-dispatch and "
              "deterministic-math APIs documented")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
