#!/usr/bin/env bash
# Sampled self-time profile of one bench_ispn workload, by layer.
#
# Usage: scripts/profile.sh WORKLOAD [--scale F]
#
#   WORKLOAD is a bench_ispn workload: fanin-cbr, parking-mix, chaos-cc or
#   sharded-fanin.  sharded-fanin runs with --shards 1: its domain work
#   then runs on the calling thread alone, so the process-wide sampler
#   attributes every sample to the one thread doing the work.
#
# Builds scripts/profile/sampler.cc into an LD_PRELOAD library and brings
# bench_ispn under .bench_build/ up to date, then runs
# `bench_ispn WORKLOAD --seed 7 [--scale F]` pinned to one CPU with the
# sampler taking the interrupted program counter 10 000 times a second,
# then prints self-time shares by layer and the top 20 symbols.  A
# sample's layer is the first ispn::<namespace> in its demangled symbol,
# or else the mapped object it falls in (libc, libstdc++, bench_ispn).
# Inlined code counts toward the function it was inlined into.

set -euo pipefail

usage() {
  echo "usage: scripts/profile.sh WORKLOAD [--scale F]" >&2
  echo "  WORKLOAD: fanin-cbr | parking-mix | chaos-cc | sharded-fanin" >&2
  exit 2
}

[ $# -ge 1 ] || usage
workload=$1
shift
run_args=()
case "$workload" in
  fanin-cbr | parking-mix | chaos-cc) ;;
  sharded-fanin) run_args=(--shards 1) ;;
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
lib="$root/.bench_build/profile/libsampler.so"
mkdir -p "$(dirname "$lib")"
g++ -std=c++20 -O2 -Wall -Wextra -shared -fPIC -o "$lib" \
  scripts/profile/sampler.cc

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# The CPU bench_ispn/run.py pins single-threaded repeats to.
cpu=$(python3 -c 'import os; print(max(os.sched_getaffinity(0)))')
if ! (cd "$tmp" && taskset -c "$cpu" env LD_PRELOAD="$lib" \
        "$bench" "$workload" --seed 7 "${run_args[@]}" >run.log 2>&1); then
  cat "$tmp/run.log" >&2
  echo "profile.sh: bench_ispn failed" >&2
  exit 1
fi

python3 - "$tmp" "$workload ${run_args[*]}" <<'PY'
import bisect
import collections
import os
import re
import subprocess
import sys

tmp, what = sys.argv[1], sys.argv[2].strip()
pcs = [int(line, 16) for line in open(os.path.join(tmp, "sampler.pcs"))]
if not pcs:
    sys.exit("profile.sh: no samples taken")

# Executable mappings: (start, end, file offset, path).
maps = []
for line in open(os.path.join(tmp, "sampler.maps")):
    f = line.split(maxsplit=5)
    if len(f) < 6 or "x" not in f[1]:
        continue
    start, end = (int(v, 16) for v in f[0].split("-"))
    maps.append((start, end, int(f[2], 16), f[5].strip()))
maps.sort()
starts = [m[0] for m in maps]

segments_cache, symbols_cache = {}, {}

def segments(path):
    """LOAD segments (file offset, vaddr, file size) of an ELF file."""
    if path not in segments_cache:
        out = subprocess.run(["readelf", "-lW", path], capture_output=True,
                             text=True).stdout
        segs = []
        for line in out.splitlines():
            f = line.split()
            if f and f[0] == "LOAD":
                segs.append((int(f[1], 16), int(f[2], 16), int(f[4], 16)))
        segments_cache[path] = segs
    return segments_cache[path]

SYM = re.compile(r"^([0-9a-f]+) (?:([0-9a-f]+) )?([tTwWi]) (.*)$")

def symbols(path):
    """Sorted (address, size or None, demangled name) of defined code."""
    if path not in symbols_cache:
        syms = []
        for extra in ([], ["-D"]):  # the symbol table, else the dynamic one
            out = subprocess.run(["nm", "-n", "-S", "-C", "--defined-only"]
                                 + extra + [path], capture_output=True,
                                 text=True).stdout
            for line in out.splitlines():
                m = SYM.match(line)
                if m:
                    size = int(m.group(2), 16) if m.group(2) else None
                    syms.append((int(m.group(1), 16), size, m.group(4)))
            if syms:
                break
        syms.sort(key=lambda s: s[0])
        symbols_cache[path] = (syms, [s[0] for s in syms])
    return symbols_cache[path]

def object_name(path):
    base = os.path.basename(path)
    return re.sub(r"\.so(\.[0-9.]*)?$", "", base) or path

LAYER = re.compile(r"ispn::([A-Za-z_]\w*)::")

def resolve(pc):
    """(layer, symbol) of one program counter."""
    i = bisect.bisect_right(starts, pc) - 1
    if i < 0 or pc >= maps[i][1]:
        return "?", "?"
    start, _, offset, path = maps[i]
    obj = object_name(path)
    if not path.startswith("/"):
        return obj, obj  # [vdso] and other anonymous code
    file_off = pc - start + offset
    vaddr = None
    for seg_off, seg_vaddr, seg_size in segments(path):
        if seg_off <= file_off < seg_off + seg_size:
            vaddr = file_off - seg_off + seg_vaddr
            break
    syms, addrs = symbols(path)
    j = bisect.bisect_right(addrs, vaddr) - 1 if vaddr is not None else -1
    if j < 0 or (syms[j][1] is not None and vaddr >= syms[j][0] + syms[j][1]):
        return obj, f"[{obj}]"
    name = syms[j][2]
    m = LAYER.search(name)
    return (m.group(1) if m else obj), name

cache = {}
layers, syms = collections.Counter(), collections.Counter()
for pc in pcs:
    if pc not in cache:
        cache[pc] = resolve(pc)
    layer, name = cache[pc]
    layers[layer] += 1
    syms[(name, layer)] += 1

n = len(pcs)
print(f"profile: {what} --seed 7, {n} samples at 10 kHz")
print(f"{'layer':<16} {'share':>7} {'samples':>8}")
for layer, count in layers.most_common():
    print(f"{layer:<16} {100 * count / n:6.1f}% {count:8d}")
print()
print("top 20 symbols (self time):")
for (name, layer), count in syms.most_common(20):
    short = name if len(name) <= 110 else name[:107] + "..."
    print(f"{100 * count / n:6.1f}%  {short}  [{layer}]")
PY
