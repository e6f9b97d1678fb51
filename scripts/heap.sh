#!/usr/bin/env bash
# Live heap of one bench_ispn workload at its peak-RSS read, by call site.
#
# Usage: scripts/heap.sh WORKLOAD [--scale F]
#
#   WORKLOAD is a bench_ispn workload: fanin-cbr, parking-mix, chaos-cc or
#   sharded-fanin.
#
# Builds scripts/profile/heap.cc into an LD_PRELOAD library and brings
# bench_ispn under .bench_build/ up to date, then runs
# `bench_ispn WORKLOAD --seed 7 [--scale F]` with every operator new and
# delete recorded.  When bench_ispn opens /proc/self/status to read its
# peak resident set (after finish(), so every flow ever offered is still
# held by the runner), the library writes the bytes still allocated per
# call site; this script symbolizes the sites with addr2line and prints
# the total and the top 20.  A site is the function holding the return
# address of the operator new call; with debug info, addr2line also
# names the inlined function the call sits in ("outer <- inner").  Sizes
# are the bytes requested.

set -euo pipefail

usage() {
  echo "usage: scripts/heap.sh WORKLOAD [--scale F]" >&2
  echo "  WORKLOAD: fanin-cbr | parking-mix | chaos-cc | sharded-fanin" >&2
  exit 2
}

[ $# -ge 1 ] || usage
workload=$1
shift
run_args=()
case "$workload" in
  fanin-cbr | parking-mix | chaos-cc | sharded-fanin) ;;
  *) usage ;;
esac
while [ $# -gt 0 ]; do
  case "$1" in
    --scale)
      [ $# -ge 2 ] || usage
      run_args+=(--scale "$2")
      shift 2
      ;;
    *) usage ;;
  esac
done

cd "$(dirname "$0")/.."
root=$PWD
bench_dir="$root/.bench_build/bench_ispn"
bench="$bench_dir/bench_ispn"
# The same build bench_ispn/run.py makes, brought up to date.
if [ ! -f "$bench_dir/CMakeCache.txt" ]; then
  cmake -S bench_ispn -B "$bench_dir" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$bench_dir" -j "$(nproc)" >&2
lib="$root/.bench_build/profile/libheap.so"
mkdir -p "$(dirname "$lib")"
g++ -std=c++20 -O2 -Wall -Wextra -shared -fPIC -o "$lib" \
  scripts/profile/heap.cc -ldl

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
if ! (cd "$tmp" && env LD_PRELOAD="$lib" \
        "$bench" "$workload" --seed 7 "${run_args[@]}" >run.log 2>&1); then
  cat "$tmp/run.log" >&2
  echo "heap.sh: bench_ispn failed" >&2
  exit 1
fi
if [ ! -f "$tmp/heap.sites" ]; then
  echo "heap.sh: no census written (bench_ispn never read its RSS)" >&2
  exit 1
fi

python3 - "$tmp" "$workload ${run_args[*]}" <<'PY'
import bisect
import collections
import os
import subprocess
import sys

tmp, what = sys.argv[1], sys.argv[2].strip()
sites, untracked = [], None
for line in open(os.path.join(tmp, "heap.sites")):
    f = line.split()
    if f[0] == "#":
        untracked = (int(f[2]), int(f[3]))
        continue
    sites.append((int(f[0], 16), int(f[1]), int(f[2])))
if not sites:
    sys.exit("heap.sh: no live blocks recorded")

# Mapped files: (start, end, file offset, path).
maps = []
for line in open(os.path.join(tmp, "heap.maps")):
    f = line.split(maxsplit=5)
    if len(f) < 6 or "x" not in f[1]:
        continue
    start, end = (int(v, 16) for v in f[0].split("-"))
    maps.append((start, end, int(f[2], 16), f[5].strip()))
maps.sort()
starts = [m[0] for m in maps]

def segments(path):
    """LOAD segments (file offset, vaddr, file size) of an ELF file."""
    out = subprocess.run(["readelf", "-lW", path], capture_output=True,
                         text=True).stdout
    segs = []
    for line in out.splitlines():
        f = line.split()
        if f and f[0] == "LOAD":
            segs.append((int(f[1], 16), int(f[2], 16), int(f[4], 16)))
    return segs

# Group the return addresses by object, as object-relative addresses.
by_object = collections.defaultdict(list)
segs_cache = {}
for caller, _, _ in sites:
    i = bisect.bisect_right(starts, caller) - 1
    if i < 0 or caller >= maps[i][1] or not maps[i][3].startswith("/"):
        continue
    start, _, offset, path = maps[i]
    if path not in segs_cache:
        segs_cache[path] = segments(path)
    file_off = caller - start + offset
    for seg_off, seg_vaddr, seg_size in segs_cache[path]:
        if seg_off <= file_off < seg_off + seg_size:
            # The call instruction precedes the return address.
            by_object[path].append((caller, file_off - seg_off + seg_vaddr - 1))
            break

names = {}
for path, pairs in by_object.items():
    out = subprocess.run(
        ["addr2line", "-f", "-C", "-i", "-a", "-e", path]
        + [hex(vaddr) for _, vaddr in pairs],
        capture_output=True, text=True).stdout.splitlines()
    # -a prints each address, then (function, location) pairs: innermost
    # inlined frame first, the containing function last.
    chunks, frames = [], None
    for line in out:
        if frames is None or (line.startswith("0x") and len(frames) % 2 == 0):
            if frames is not None:
                chunks.append(frames)
            frames = []
            continue
        frames.append(line)
    if frames is not None:
        chunks.append(frames)
    obj = os.path.basename(path)
    for (caller, _), frames in zip(pairs, chunks):
        funcs = [frames[k] for k in range(0, len(frames), 2)]
        funcs = [f for f in funcs if f != "??"] or [f"[{obj}]"]
        inner, outer = funcs[0], funcs[-1]
        names[caller] = outer if inner == outer else f"{outer} <- {inner}"

total = sum(b for _, b, _ in sites)
blocks = sum(n for _, _, n in sites)
by_name = collections.defaultdict(lambda: [0, 0])
for caller, nbytes, nblocks in sites:
    entry = by_name[names.get(caller, f"[{caller:#x}]")]
    entry[0] += nbytes
    entry[1] += nblocks

print(f"heap: {what} --seed 7, {total / 1e6:.2f} MB live in {blocks} "
      f"blocks at the peak-RSS read")
if untracked:
    print(f"  (untracked: {untracked[0]} blocks past the table, "
          f"{untracked[1]} bytes past the site table)")
print(f"{'MB':>7} {'share':>6} {'blocks':>8}  site")
ranked = sorted(by_name.items(), key=lambda kv: -kv[1][0])
for name, (nbytes, nblocks) in ranked[:20]:
    short = name if len(name) <= 150 else name[:147] + "..."
    print(f"{nbytes / 1e6:7.3f} {100 * nbytes / total:5.1f}% {nblocks:8d}  "
          f"{short}")
PY
