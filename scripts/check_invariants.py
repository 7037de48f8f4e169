#!/usr/bin/env python3
"""Project-specific lint: invariants clang-tidy has no checker for.

Seven rules, each scoped to where the invariant actually holds meaning:

  kernel-alloc     src/kernels must stay allocation-free (Workspace-only):
                   the inner loops run per batch inside parallel workers, and
                   a stray vector/new there reintroduces the heap traffic the
                   arena exists to remove. The arena itself (workspace.*) is
                   exempt.

  mutable-static   No mutable statics in nn::Module subclass code
                   (src/nn, src/approx, src/models): modules must be
                   re-entrant — per-invocation state lives in nn::Context,
                   process-wide state in explicitly synchronized singletons
                   elsewhere.

  rng-discipline   No rand()/srand()/std::random_device/time-seeded engines
                   outside util::Rng: every random stream must be derived
                   from an explicit seed, or determinism tests lose meaning.

  panel-indexing   No raw indexing into blocked panel code buffers
                   (`*_panels[...]`, `panel_offset(...)`) outside
                   src/kernels: the panel interleave is a kernel-private
                   contract (layout.hpp); consumers go through the blocked
                   kernels or the unpack_* helpers so a layout change cannot
                   silently corrupt a caller. The analyzer's independent
                   re-derivation and deliberate test corruptions carry
                   explicit `// invariant-ok:` marks.

  simd-intrinsics  No raw vector intrinsics (`_mm*_...`, `__m128/256/512`,
                   `*intrin.h` includes) outside src/kernels/simd/: the SIMD
                   kernels are reachable only through the dispatch seam
                   (kernels/simd/simd.hpp), which is what keeps the scalar
                   blocked kernels an authoritative bitwise oracle and keeps
                   -m<isa> flags confined to the per-ISA leaf TUs. Escape a
                   deliberate exception with `// invariant-ok: simd`.

  registry-discipline
                   No direct appmult::Registry lookups in layer/engine code
                   (src/nn, src/approx, src/serve, src/train, src/models):
                   layers and engines consume multiplier artifacts through
                   approx::MultiplierCache / MultiplierAssignment so N layers
                   sharing a multiplier share one LUT build and every config
                   is content-addressed. The cache itself (assignment.cpp)
                   is the sanctioned escape hatch and carries
                   `// invariant-ok:` marks.

  env-knobs        Every `getenv("AMRET_...")` in src/ must name a knob
                   listed in README.md's environment-knob table (rows of
                   the form `| \`AMRET_X\` | ...`): a knob must be
                   documented with what it is for, so a deleted knob cannot
                   come back undocumented.

A line ending in `// invariant-ok: <reason>` is exempt from all rules.
Exit status: 0 clean, 1 violations, 2 usage error.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALLOW_MARK = "invariant-ok:"

# (rule, file glob roots, exempt path substrings, line regex, message)
KERNEL_ALLOC = re.compile(
    r"\bnew\b(?!\s*\()|\bnew\s*\[|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\("
    r"|std::vector\s*<|std::string\b|make_unique|make_shared"
    r"|\.push_back\s*\(|\.resize\s*\(|\.reserve\s*\("
)
MUTABLE_STATIC = re.compile(r"^\s*(?:inline\s+)?(?:thread_local\s+)?static\s+")
STATIC_OK = re.compile(
    r"static\s+(?:const\b|constexpr\b|_|assert)|static_cast|static_assert"
)
FUNC_DECL = re.compile(r"\([^()]*\)\s*(?:const\s*)?(?:noexcept\s*)?[;{]|\)\s*->")
RNG_BANNED = re.compile(r"\brand\s*\(|\bsrand\s*\(|std::random_device\b")
RNG_TIME_SEED = re.compile(
    r"(mt19937|minstd_rand|default_random_engine)[^;]*\("
    r"[^;)]*(time\s*\(|::now\s*\()"
)
PANEL_INDEX = re.compile(r"\bpanel_offset\s*\(|\b\w*_panels\s*\[|\bpanels\s*\[")
REGISTRY_LOOKUP = re.compile(r"\bRegistry::instance\s*\(")
ENV_KNOB = re.compile(r'getenv\s*\(\s*"(AMRET_\w+)"')
README_KNOB_ROW = re.compile(r"^\|\s*`(AMRET_\w+)`\s*\|")
SIMD_INTRINSIC = re.compile(
    r"\b_mm\d*_\w+\s*\(|\b__m(?:128|256|512)i?\b"
    r"|#\s*include\s*<(?:imm|x86|xmm|emm|pmm|tmm|smm|nmm|wmm|avx\w*|arm_neon)"
    r"intrin"
)


def strip_comments_and_strings(line: str) -> str:
    """Crude but adequate: drop // comments and string literal contents so the
    patterns only see code. Block comments spanning lines are handled by the
    caller's in_block flag."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    line = re.sub(r"'(?:[^'\\]|\\.)*'", "''", line)
    return line.split("//")[0]


def iter_source(paths):
    for root in paths:
        for path in sorted((ROOT / root).rglob("*")):
            if path.suffix in (".hpp", ".cpp", ".h", ".cc"):
                yield path


def check_file(path, rules, findings):
    rel = path.relative_to(ROOT).as_posix()
    in_block = False
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        if ALLOW_MARK in raw:
            continue
        line = raw
        if in_block:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block = False
        # Remove complete block comments, then detect an opening one.
        line = re.sub(r"/\*.*?\*/", "", line)
        if "/*" in line:
            line = line.split("/*")[0]
            in_block = True
        code = strip_comments_and_strings(line)
        if not code.strip():
            continue
        for rule, pattern, message in rules:
            if rule == "mutable-static":
                if not MUTABLE_STATIC.search(code):
                    continue
                if STATIC_OK.search(code) or FUNC_DECL.search(code):
                    continue
            elif not pattern.search(code):
                continue
            findings.append(f"{rel}:{lineno}: [{rule}] {message}\n    {raw.strip()}")


def documented_knobs():
    """Knob names of README.md's environment-knob table."""
    readme = ROOT / "README.md"
    if not readme.exists():
        return set()
    return {m.group(1) for line in readme.read_text().splitlines()
            if (m := README_KNOB_ROW.match(line))}


def check_env_knobs(findings):
    documented = documented_knobs()
    for path in iter_source(["src"]):
        rel = path.relative_to(ROOT).as_posix()
        for lineno, raw in enumerate(path.read_text().splitlines(), 1):
            if ALLOW_MARK in raw:
                continue
            # Match on the raw line: the knob name is a string literal,
            # which the generic pass blanks out.
            for m in ENV_KNOB.finditer(raw.split("//")[0]):
                if m.group(1) not in documented:
                    findings.append(
                        f"{rel}:{lineno}: [env-knobs] {m.group(1)} is not in "
                        f"README.md's environment-knob table\n    {raw.strip()}")


def main():
    if len(sys.argv) > 1:
        print(__doc__)
        return 2
    findings = []

    for path in iter_source(["src/kernels"]):
        if path.stem == "workspace":
            continue  # the arena is the one allowed allocator
        check_file(
            path,
            [("kernel-alloc", KERNEL_ALLOC,
              "heap allocation in src/kernels; use kernels::Workspace")],
            findings,
        )

    for path in iter_source(["src/nn", "src/approx", "src/models"]):
        check_file(
            path,
            [("mutable-static", None,
              "mutable static in module code; state belongs in nn::Context "
              "or a synchronized singleton outside module classes")],
            findings,
        )

    for path in iter_source(["src", "tools", "tests", "bench"]):
        if path.parent.name == "util" and path.stem == "rng":
            continue
        check_file(
            path,
            [("rng-discipline", RNG_BANNED,
              "unseeded/system randomness; derive streams from util::Rng"),
             ("rng-discipline", RNG_TIME_SEED,
              "time-seeded RNG engine; derive streams from util::Rng")],
            findings,
        )

    for path in iter_source(["src", "tools", "tests", "bench"]):
        if path.relative_to(ROOT).as_posix().startswith("src/kernels/"):
            continue
        check_file(
            path,
            [("panel-indexing", PANEL_INDEX,
              "raw panel-buffer indexing outside src/kernels; go through the "
              "blocked kernels or the unpack_* helpers (kernels/layout.hpp)")],
            findings,
        )

    for path in iter_source(["src", "tools", "tests", "bench"]):
        if path.relative_to(ROOT).as_posix().startswith("src/kernels/simd/"):
            continue
        check_file(
            path,
            [("simd-intrinsics", SIMD_INTRINSIC,
              "raw vector intrinsics outside src/kernels/simd/; go through "
              "the dispatch seam (kernels/simd/simd.hpp)")],
            findings,
        )

    for path in iter_source(["src/nn", "src/approx", "src/serve", "src/train",
                             "src/models"]):
        check_file(
            path,
            [("registry-discipline", REGISTRY_LOOKUP,
              "direct appmult::Registry lookup in layer/engine code; go "
              "through approx::MultiplierCache / MultiplierAssignment "
              "(approx/assignment.hpp)")],
            findings,
        )

    check_env_knobs(findings)

    if findings:
        print(f"{len(findings)} invariant violation(s):")
        for f in findings:
            print(f)
        return 1
    print("invariants clean (kernel-alloc, mutable-static, rng-discipline, "
          "panel-indexing, simd-intrinsics, registry-discipline, env-knobs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
