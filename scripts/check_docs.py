#!/usr/bin/env python3
"""Documentation-drift check for the CRIMES repo (ctest: check_docs).

Docs rot silently: a new src/ module or bench binary lands, the inventory
tables in DESIGN.md / EXPERIMENTS.md are forgotten, and the next reader
navigates with a stale map. This script makes drift a test failure:

  1. Every module directory `src/<name>/` (containing at least one .h or
     .cpp) must be mentioned as `src/<name>` in DESIGN.md's module
     inventory (section 3).
  2. Every benchmark source `bench/<name>.cpp` (excluding micro_* google-
     benchmark binaries) must have a `<name>` entry in EXPERIMENTS.md.
  3. Every benchmark listed in bench/CMakeLists.txt must have a source
     file -- and vice versa (a bench that exists but is not built is just
     as invisible as an undocumented one).
  4. Every example binary `examples/<name>.cpp` must appear as `<name>`
     in README.md's runnable-examples table.
  5. Knob reference: every field of every operator-facing config struct
     (CrimesConfig, CheckpointConfig, ControlConfig, SloConfig, ...) must
     appear as a backticked `Struct.field` token in docs/TUNING.md. Add a
     knob without documenting it and this gate fails naming the knob.
  6. No unread knobs: every such field must be read somewhere in src/ --
     its identifier must occur in the comment-stripped src/**/*.{h,cpp}
     more often than the config structs declare it. A documented knob
     that no code reads fails naming the knob.
  7. No stale rows: every docs/TUNING.md table row that names a
     `Struct.field` knob must name a field some config struct still
     declares. Remove a knob and leave its row behind, and this gate
     fails naming the row.

Exit status: 0 when the docs cover the tree, 1 otherwise.
"""

import argparse
import collections
import pathlib
import re
import sys

# The operator-facing config structs: header (repo-relative) -> structs in
# it whose every field is a tunable that docs/TUNING.md must cover.
CONFIG_STRUCTS = [
    ("src/core/crimes.h", ["CrimesConfig"]),
    ("src/checkpoint/checkpointer.h", ["CheckpointConfig"]),
    ("src/control/control_config.h", ["ControlConfig"]),
    ("src/replication/replication_config.h",
     ["HeartbeatConfig", "ReplicationConfig"]),
    ("src/store/store_config.h", ["RetentionPolicy", "StoreConfig"]),
    ("src/crypto/crypto_config.h", ["CryptoConfig"]),
    ("src/telemetry/slo.h", ["SloBudget", "SloConfig"]),
    ("src/telemetry/timeseries.h", ["TimeSeriesConfig"]),
    ("src/fault/safety_governor.h", ["GovernorConfig"]),
    ("src/detect/detector.h", ["AuditPolicy"]),
    ("src/cloud/host_config.h", ["HostConfig"]),
]


def fail(msg: str) -> None:
    print(f"check_docs: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def module_dirs(repo: pathlib.Path) -> list[str]:
    out = []
    for child in sorted((repo / "src").iterdir()):
        if not child.is_dir():
            continue
        if any(child.glob("*.h")) or any(child.glob("*.cpp")):
            out.append(child.name)
    return out


def bench_sources(repo: pathlib.Path) -> list[str]:
    out = []
    for src in sorted((repo / "bench").glob("*.cpp")):
        if src.stem.startswith("micro_"):
            continue  # google-benchmark micro-benches live outside the index
        out.append(src.stem)
    return out


def example_sources(repo: pathlib.Path) -> list[str]:
    return [src.stem for src in sorted((repo / "examples").glob("*.cpp"))]


def cmake_benches(repo: pathlib.Path) -> list[str]:
    text = (repo / "bench" / "CMakeLists.txt").read_text(encoding="utf-8")
    match = re.search(r"set\(CRIMES_BENCHES(.*?)\)", text, re.DOTALL)
    if match is None:
        fail("bench/CMakeLists.txt: no set(CRIMES_BENCHES ...) block")
    return [line.strip() for line in match.group(1).splitlines()
            if line.strip() and not line.strip().startswith("#")]


def strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.DOTALL)
    return re.sub(r"//[^\n]*", "", text)


def struct_body(text: str, name: str, path: str) -> str:
    """The top-level body of `struct <name> { ... };` in stripped text."""
    match = re.search(rf"\bstruct\s+{name}\b[^{{;]*{{", text)
    if match is None:
        fail(f"{path}: struct {name} not found (update CONFIG_STRUCTS)")
    depth, start = 1, match.end()
    for i in range(start, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[start:i]
    fail(f"{path}: struct {name} has no closing brace")


def struct_fields(body: str) -> list[str]:
    """Data-member names declared at the struct's top level.

    Walks the body at brace depth 0 (nested types and default-member-init
    braces are skipped), splits on `;`, and takes the identifier before
    the initializer as the field name. Declarations containing `(` before
    any `=`/`{` are member functions, not knobs.
    """
    fields = []
    depth, chunk = 0, []
    for ch in body:
        if ch == "{":
            depth += 1
            continue
        if ch == "}":
            depth -= 1
            continue
        if ch == ";" and depth == 0:
            decl = "".join(chunk).strip()
            chunk = []
            decl = re.split(r"=", decl, maxsplit=1)[0].strip()
            if (not decl or "(" in decl
                    or decl.startswith(("static", "using", "friend",
                                        "struct", "class", "enum"))):
                continue
            match = re.search(r"\b([A-Za-z_][A-Za-z0-9_]*)\s*(?:\[\s*\d*\s*\])?$",
                              decl)
            # A field is "type name": require a type before the name (a
            # lone identifier is a stray token, not a declaration).
            if match and decl[:match.start()].strip():
                fields.append(match.group(1))
            continue
        if depth == 0:
            chunk.append(ch)
    return fields


def unread_knobs(repo: pathlib.Path, knobs: list[str]) -> list[str]:
    """Knobs whose field name occurs in src/ only where it is declared."""
    text = "\n".join(
        strip_comments(path.read_text(encoding="utf-8"))
        for pattern in ("*.h", "*.cpp")
        for path in sorted((repo / "src").rglob(pattern)))
    fields = [knob.split(".", 1)[1] for knob in knobs]
    declared = collections.Counter(fields)
    uses = {f: len(re.findall(rf"\b{f}\b", text)) for f in declared}
    return [k for k, f in zip(knobs, fields) if uses[f] <= declared[f]]


def config_knobs(repo: pathlib.Path) -> list[str]:
    knobs = []
    for rel, structs in CONFIG_STRUCTS:
        text = strip_comments((repo / rel).read_text(encoding="utf-8"))
        for struct in structs:
            fields = struct_fields(struct_body(text, struct, rel))
            if not fields:
                fail(f"{rel}: struct {struct} yielded no fields; the "
                     "parser or the struct changed")
            knobs.extend(f"{struct}.{field}" for field in fields)
    return knobs


def documented_rows(tuning: str) -> list[str]:
    """The `Struct.field` knobs named in the first cell of table rows."""
    return re.findall(r"^\|\s*`([A-Za-z_]\w*\.[A-Za-z_]\w*)`\s*\|",
                      tuning, flags=re.MULTILINE)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root (default: the script's repo)")
    args = parser.parse_args()
    repo = args.repo.resolve()

    design = (repo / "DESIGN.md").read_text(encoding="utf-8")
    experiments = (repo / "EXPERIMENTS.md").read_text(encoding="utf-8")

    missing = [m for m in module_dirs(repo) if f"src/{m}" not in design]
    if missing:
        fail("DESIGN.md module inventory is missing: "
             + ", ".join(f"src/{m}" for m in missing))

    sources = bench_sources(repo)
    undocumented = [b for b in sources if b not in experiments]
    if undocumented:
        fail("EXPERIMENTS.md has no entry for: " + ", ".join(undocumented))

    built = cmake_benches(repo)
    unbuilt = sorted(set(sources) - set(built))
    if unbuilt:
        fail("bench/CMakeLists.txt does not build: " + ", ".join(unbuilt))
    sourceless = sorted(set(built) - set(sources))
    if sourceless:
        fail("bench/CMakeLists.txt lists benches with no source: "
             + ", ".join(sourceless))

    readme = (repo / "README.md").read_text(encoding="utf-8")
    examples = example_sources(repo)
    unlisted = [e for e in examples if f"`{e}`" not in readme]
    if unlisted:
        fail("README.md examples table is missing: " + ", ".join(unlisted))

    tuning = (repo / "docs" / "TUNING.md").read_text(encoding="utf-8")
    knobs = config_knobs(repo)
    unknown = [k for k in knobs if f"`{k}`" not in tuning]
    if unknown:
        fail("docs/TUNING.md knob reference is missing: "
             + ", ".join(unknown))
    unread = unread_knobs(repo, knobs)
    if unread:
        fail("knobs that no code under src/ reads: " + ", ".join(unread))
    declared = set(knobs)
    stale = [k for k in documented_rows(tuning) if k not in declared]
    if stale:
        fail("docs/TUNING.md documents knobs no config struct declares: "
             + ", ".join(stale))

    print(f"check_docs: OK ({len(module_dirs(repo))} modules in DESIGN.md, "
          f"{len(sources)} benches in EXPERIMENTS.md, "
          f"{len(examples)} examples in README.md, "
          f"{len(knobs)} knobs in docs/TUNING.md)")


if __name__ == "__main__":
    main()
