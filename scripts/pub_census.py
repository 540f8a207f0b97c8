#!/usr/bin/env python3
"""No unused public API: a census of the library crates' `pub` items.

1. Every `pub` item and `pub use` in the non-test code (the lines before a
   file's first `#[cfg(test)]`) of the seventeen library crates is narrowed
   to `pub(crate)`.
2. The roots are built: the workspace's bins and examples, and the
   benchmark package. Tests are not roots: an item only a test calls is
   dead code unless KEPT below says why a test needs it.
3. Every item a compile error names is made `pub` again, and step 2 repeats
   until the roots compile.
4. What is still `pub(crate)` has no caller outside its crate, so a
   `dead_code` warning from `cargo build --workspace --lib` names an item
   that no root reaches. The census prints each one that KEPT does not
   list, and each KEPT entry that is no longer dead, and fails if there is
   either.

The script rewrites the sources under the directory it is given, so run it on
a throwaway copy of the checkout:

    cp -r . /tmp/census && python3 scripts/pub_census.py /tmp/census
"""
import json
import re
import subprocess
import sys
from pathlib import Path

NOT_LIBRARIES = {"bench", "proptest"}

# Items no root reaches that stay, each with its class and why. The classes:
# a check (verifies invariants), a reference (what a test compares the
# shipped code against), a seam (lets a test substitute or watch a part),
# an observer (reads state production keeps for itself). A name covers
# every dead item of that name in the file.
KEPT = {
    ("crates/alloc/src/heap.rs", "depot_parked"): ("observer", "objects the shared depots hold; properties_alloc_global reconciles the books with it"),
    ("crates/alloc/src/magazine.rs", "parked"): ("observer", "objects in one depot's full magazines; depot_parked sums it"),
    ("crates/freelist/src/buddy.rs", "free_words"): ("observer", "words in the per-order free sets; the buddy tests check conservation with it"),
    ("crates/freelist/src/rice.rs", "frontier"): ("observer", "the placement frontier; the chain-model proptest compares it"),
    ("crates/machines/src/device.rs", "mapped"): ("check", "what Paged::check_invariants holds to the engine: every page the device maps sits in that frame"),
    ("crates/machines/src/driver.rs", "check_invariants"): ("check", "Backend's and Composed's: a paged machine's device agrees with its engine, a segmented one's store with itself"),
    ("crates/mapping/src/associative.rs", "check_invariants"): ("check", "AssocMemory's keys, index and age list agree; FrameAssociativeMap's registers and inverse index agree"),
    ("crates/mapping/src/associative.rs", "keys"): ("observer", "AssocMemory's resident keys; the deque-model proptest compares them"),
    ("crates/mapping/src/two_level.rs", "check_invariants"): ("check", "the TLB in front of the tables is consistent"),
    ("crates/metrics/src/spacetime.rs", "SpaceTimeMeter"): ("reference", "the integrating meter tests/common/stepper.rs checks the scheduler's space-time against"),
    ("crates/metrics/src/spacetime.rs", "new"): ("reference", "SpaceTimeMeter's, as above"),
    ("crates/metrics/src/spacetime.rs", "accumulate"): ("reference", "SpaceTimeMeter's, as above"),
    ("crates/metrics/src/spacetime.rs", "record"): ("reference", "SpaceTimeMeter's, as above"),
    ("crates/metrics/src/spacetime.rs", "finish"): ("reference", "SpaceTimeMeter's, as above"),
    ("crates/metrics/src/spacetime.rs", "report"): ("reference", "SpaceTimeMeter's, as above"),
    ("crates/probe/src/counting.rs", "KINDS"): ("reference", "the number of rows in the event table; tests enumerate every kind as 0..KINDS"),
    ("crates/probe/src/counting.rs", "fields"): ("observer", "every counter cell by name; a test finds dead cells with it, parity tests compare cell by cell"),
    ("crates/sched/src/event.rs", "with_full_memory"): ("seam", "run_logged in properties_sched logs every execution of a full-memory run"),
    ("crates/stackdist/src/success.rs", "distances"): ("observer", "the per-reference distances fault_times reads; tests compare them with the explicit stack"),
    ("crates/stackdist/src/success.rs", "saturation_frames"): ("observer", "the length of the fault table; admission's whole-curve reference walk reads it"),
    ("crates/storage/src/drum.rs", "position"): ("reference", "the sector under the heads from first principles; rotational_delay is checked against it"),
    ("crates/telemetry/src/flight.rs", "drain"): ("observer", "every ring's retained events, merged; the drain proptests check the merge with it"),
}
ITEMS = re.compile(r"`(\w+)`")
ITEM = re.compile(r"^(\s*)pub ((?:unsafe |const |async )*(?:fn|struct|enum|trait|type|const|static|union)\b)")
NAME = re.compile(r"\b(?:fn|struct|enum|trait|type|const|static|union)\s+(\w+)")
# These errors point at a use of the item, not at its definition.
BY_NAME = re.compile(r"`([^`]+)` is only public within|`([^`]+)` is private, and cannot|^type `([^`]+)` is private")


def narrow(path, narrowed):
    """Narrows one file; `pub use a::{B, C}` becomes one import per name."""
    lines, out, i = path.read_text().split("\n"), [], 0
    while i < len(lines):
        if "#[cfg(test)]" in lines[i]:
            out += lines[i:]
            break
        use = re.match(r"(\s*)pub use ", lines[i])
        if use:
            j = i
            while ";" not in lines[j]:
                j += 1
            body = " ".join(" ".join(lines[i : j + 1]).split())[len("pub use ") :].split(";")[0]
            group = re.match(r"(.*?)\{(.*)\}$", body)
            parts = [group[1] + p.strip() for p in group[2].split(",") if p.strip()] if group else [body]
            for part in parts:
                part = part.removesuffix("::self")
                narrowed[(path, len(out) + 1)] = part.split(" as ")[-1].split("::")[-1]
                out.append(f"{use[1]}pub(crate) use {part};")
            i = j + 1
            continue
        item = ITEM.match(lines[i])
        if item:
            name = NAME.search(lines[i])
            narrowed[(path, len(out) + 1)] = name[1] if name else None
            lines[i] = ITEM.sub(r"\1pub(crate) \2", lines[i])
        out.append(lines[i])
        i += 1
    path.write_text("\n".join(out))


def diagnostics(workspace, *args):
    """The compiler messages of one `cargo build --keep-going`, each with its workspace."""
    cmd = ["cargo", "build", "--offline", "--keep-going", "--message-format=json", *args]
    run = subprocess.run(cmd, cwd=workspace, stdout=subprocess.PIPE, text=True)
    for line in run.stdout.splitlines():
        msg = json.loads(line) if line.startswith("{") else {}
        if msg.get("reason") == "compiler-message":
            yield workspace, msg["message"]


def code(msg):
    return (msg.get("code") or {}).get("code")


def spans(msg):
    for span in msg["spans"]:
        while span:
            yield span
            span = (span.get("expansion") or {}).get("def_site_span")
    for child in msg["children"]:
        yield from spans(child)


def widen(narrowed, key):
    path, line = key
    lines = path.read_text().split("\n")
    lines[line - 1] = lines[line - 1].replace("pub(crate) ", "pub ", 1)
    path.write_text("\n".join(lines))
    del narrowed[key]


def wanted(narrowed, failed, fallback):
    """Items the errors name: by a span on their definition, or by name.

    The fallback reads the names in the code an error underlines. It is
    for a call that a narrowed inherent method no longer wins: rustc
    resolves it to a trait method of the same name, and then rejects the
    arguments or, where the trait method is the caller, warns that it
    recurses forever. That warning counts as an error here.
    """
    keys, names = set(), set()
    for ws, m in failed:
        for s in spans(m):
            keys.add(((ws / s["file_name"]).resolve(), s["line_start"]))
            if fallback:
                for t in s["text"]:
                    names.update(re.findall(r"\w+", t["text"][t["highlight_start"] - 1 : t["highlight_end"] - 1]))
        named = BY_NAME.search(m["message"])
        if named:
            names.update(re.findall(r"\w+", next(g for g in named.groups() if g)))
    return {key for key, name in narrowed.items() if key in keys or name in names}


def main(root):
    root = Path(root).resolve()
    narrowed = {}
    for src in sorted(root.glob("crates/*/src")):
        if src.parent.name not in NOT_LIBRARIES:
            for path in sorted(src.rglob("*.rs")):
                narrow(path, narrowed)
    total, rounds = len(narrowed), 0
    while True:
        rounds += 1
        failed = [*diagnostics(root, "--workspace", "--bins", "--examples"), *diagnostics(root / "benchmark", "--all-targets")]
        failed = [(ws, m) for ws, m in failed if m["level"] == "error" or code(m) == "unconditional_recursion"]
        print(f"census: build {rounds}, {len(failed)} errors", file=sys.stderr)
        if not failed:
            break
        widened = wanted(narrowed, failed, False) or wanted(narrowed, failed, True)
        if not widened:
            sys.exit("".join(m["rendered"] for _, m in failed) + "census: no error names a narrowed item")
        for key in widened:
            widen(narrowed, key)
    dead, seen = [], set()
    for _, m in diagnostics(root, "--workspace", "--lib"):
        if code(m) != "dead_code":
            continue
        span = next(s for s in m["spans"] if s["is_primary"])
        names = ITEMS.findall(m["message"])
        seen.update((span["file_name"], name) for name in names)
        unlisted = [name for name in names if (span["file_name"], name) not in KEPT]
        if unlisted:
            dead.append(f"{span['file_name']}:{span['line_start']}: {', '.join(unlisted)} reached by no root")
    stale = [f"{path}: KEPT lists {name}, which a root reaches or which is gone" for path, name in KEPT if (path, name) not in seen]
    for line in dead + stale:
        print(line)
    print(f"census: {total} items narrowed, {len(narrowed)} crate-only after {rounds} builds, {len(dead)} unlisted dead_code, {len(stale)} stale KEPT")
    sys.exit(1 if dead or stale else 0)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
