#!/usr/bin/env python3
"""Checks a span file from a traced benchmark run and prints what it shows.

    python3 perfbench/check_trace.py <span file>

crimes_perfbench --trace 1 writes one line per span: round, id, parent
(-1 for a root), name, start and end in nanoseconds. A traced round is
rooted at "cloud.round" and holds every span beneath it; an untraced round
of the same run is a bare "cloud.round.untraced" root.

Checks, exiting 1 on any violation:
  * every span ends no earlier than it starts;
  * every root is a round span; every other span lies inside its parent,
    in its parent's round, under a traced round;
  * spans with the same parent do not overlap;
  * every traced round holds a "core.slice" span, and the slices cover at
    least half of the traced rounds' time. The slice edges are inferred
    from CloudHost's Workload::finished() poll; if that inference stops
    holding, the slice time lands in the round's own time and the
    per-layer split is wrong.

Prints each layer's self time per traced round (the layer is the span name
up to its first '.', the self time its duration minus its children's) with
its share of the round, and the tracing overhead: the traced minus the
untraced round median. The layer self times add up to the traced rounds by
construction.
"""
import statistics
import sys
from collections import defaultdict

TRACED = "cloud.round"
UNTRACED = "cloud.round.untraced"
SLICE = "core.slice"
MIN_SLICE_SHARE = 0.5


def load(path):
    spans = []
    with open(path) as f:
        for number, line in enumerate(f, 1):
            if line.startswith("#") or not line.strip():
                continue
            fields = line.split()
            if len(fields) != 6:
                raise ValueError(f"{path}:{number}: expected 6 fields")
            rnd, ident, parent, name, start, end = fields
            spans.append((int(rnd), int(ident), int(parent), name,
                          int(start), int(end)))
    return spans


def check(path, out=sys.stdout):
    """Validates the span file at `path`, prints the summary to `out` and
    returns the violations found (an empty list for a valid file)."""
    spans = load(path)
    by_id = {s[1]: s for s in spans}
    errors = []
    children = defaultdict(list)
    for rnd, ident, parent, name, start, end in spans:
        if end < start:
            errors.append(f"span {ident} ({name}) ends before it starts")
        if parent < 0:
            if name not in (TRACED, UNTRACED):
                errors.append(f"root span {ident} is {name}, not a round")
            continue
        up = by_id.get(parent)
        if up is None:
            errors.append(f"span {ident} ({name}) has no parent {parent}")
            continue
        if up[0] != rnd:
            errors.append(f"span {ident} ({name}) is in round {rnd}, "
                          f"its parent in {up[0]}")
        if up[3] == UNTRACED:
            errors.append(f"span {ident} ({name}) sits under an untraced "
                          "round")
        if start < up[4] or end > up[5]:
            errors.append(f"span {ident} ({name}) leaves its parent "
                          f"{parent} ({up[3]})")
        children[parent].append((start, end, ident))
    for parent, kids in children.items():
        kids.sort()
        for (_, end, a), (start, _, b) in zip(kids, kids[1:]):
            if start < end:
                errors.append(f"spans {a} and {b} overlap under {parent}")

    self_ns = {s[1]: s[5] - s[4] for s in spans}
    for _, _, parent, _, start, end in spans:
        if parent in self_ns:
            self_ns[parent] -= end - start
    layers = defaultdict(int)
    traced, untraced = [], []
    slice_ns = 0
    for _, ident, parent, name, start, end in spans:
        if name == UNTRACED:
            untraced.append(end - start)
            continue
        if name == TRACED:
            traced.append(end - start)
            if not any(by_id[k[2]][3] == SLICE for k in children[ident]):
                errors.append(f"traced round span {ident} holds no {SLICE}")
        elif name == SLICE and parent in by_id and by_id[parent][3] == TRACED:
            slice_ns += end - start
        layers[name.split(".", 1)[0]] += self_ns[ident]
    total = sum(traced)
    if not traced:
        errors.append("no traced rounds")
    elif slice_ns < MIN_SLICE_SHARE * total:
        errors.append(f"{SLICE} spans cover {100.0 * slice_ns / total:.1f}% "
                      f"of the traced rounds, below "
                      f"{100.0 * MIN_SLICE_SHARE:.0f}%")

    print(f"trace: {len(spans)} spans, {len(traced)} traced and "
          f"{len(untraced)} untraced rounds", file=out)
    for name, ns in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"trace: layer {name:<9} {ns / max(len(traced), 1) / 1e6:10.4f} "
              f"ms/round {100.0 * ns / max(total, 1):7.2f}%", file=out)
    if traced and untraced:
        t = statistics.median(traced) / 1e6
        u = statistics.median(untraced) / 1e6
        print(f"trace: overhead {t - u:+.4f} ms/round (traced p50 {t:.4f} ms,"
              f" untraced p50 {u:.4f} ms)", file=out)
    for error in errors[:20]:
        print(f"trace FAIL: {error}", file=out)
    return errors


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return 1 if check(argv[1]) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
