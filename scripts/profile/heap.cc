// Live-heap census by call site, loaded into a program with LD_PRELOAD
// (see scripts/heap.sh).
//
// It replaces every form of the global operator new and delete (plain,
// array, nothrow, sized and aligned).  Each new forwards to malloc (or
// aligned_alloc) and records the block's address, requested size and
// caller (the return address of the operator new call) in a preallocated
// open-addressing table; each delete erases the block before freeing it.
// Nothing here allocates: the table is mapped once, up front, and a spin
// lock covers sharded runs, which allocate from worker threads.
//
// The census is written when the program first opens /proc/self/status
// (bench_ispn does, to read its peak resident set after finish()), into
// the current directory: heap.sites (one "caller bytes blocks" line per
// call site, hexadecimal caller) and heap.maps (a copy of
// /proc/self/maps), which heap.sh symbolizes.  Blocks allocated through
// malloc directly (C code, libc internals) are not seen.
//
// Build: g++ -O2 -shared -fPIC -o libheap.so heap.cc -ldl

#include <dlfcn.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

namespace {

/// Live blocks the table can hold (linear probing; a run whose live set
/// outgrows it stops recording new blocks and says so in heap.sites).
constexpr std::size_t kSlots = std::size_t{1} << 22;
/// Distinct call sites the census can aggregate.
constexpr std::size_t kSites = std::size_t{1} << 16;

struct Block {
  std::uintptr_t ptr;  // 0: empty
  std::uintptr_t caller;
  std::size_t size;
};

struct Site {
  std::uintptr_t caller;  // 0: empty
  std::size_t bytes;
  std::size_t blocks;
};

Block* g_blocks = nullptr;
std::size_t g_dropped = 0;  // blocks not recorded: table full
std::atomic_flag g_lock = ATOMIC_FLAG_INIT;
bool g_dumped = false;

class Guard {
 public:
  Guard() {
    while (g_lock.test_and_set(std::memory_order_acquire)) {
    }
  }
  ~Guard() { g_lock.clear(std::memory_order_release); }
  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;
};

std::size_t home(std::uintptr_t ptr) {
  return static_cast<std::size_t>((ptr >> 4) * 0x9E3779B97F4A7C15ull) &
         (kSlots - 1);
}

bool ensure_table() {
  if (g_blocks != nullptr) return true;
  void* m = mmap(nullptr, kSlots * sizeof(Block), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (m == MAP_FAILED) return false;
  g_blocks = static_cast<Block*>(m);
  return true;
}

void record(void* p, std::size_t size, void* caller) {
  if (p == nullptr) return;
  const Guard guard;
  if (!ensure_table()) return;
  const auto ptr = reinterpret_cast<std::uintptr_t>(p);
  for (std::size_t i = home(ptr), n = 0; n < kSlots;
       i = (i + 1) & (kSlots - 1), ++n) {
    if (g_blocks[i].ptr == 0) {
      g_blocks[i] = {ptr, reinterpret_cast<std::uintptr_t>(caller), size};
      return;
    }
  }
  ++g_dropped;
}

void erase(void* p) {
  if (p == nullptr) return;
  const Guard guard;
  if (g_blocks == nullptr) return;
  const auto ptr = reinterpret_cast<std::uintptr_t>(p);
  std::size_t i = home(ptr);
  for (std::size_t n = 0; g_blocks[i].ptr != ptr; ++n) {
    if (g_blocks[i].ptr == 0 || n == kSlots) return;  // not recorded
    i = (i + 1) & (kSlots - 1);
  }
  // Backward-shift deletion keeps every probe chain gap-free.
  for (std::size_t j = (i + 1) & (kSlots - 1);; j = (j + 1) & (kSlots - 1)) {
    if (g_blocks[j].ptr == 0) break;
    const std::size_t h = home(g_blocks[j].ptr);
    // Move j back to i unless its home lies cyclically in (i, j].
    const bool stays = i <= j ? (i < h && h <= j) : (i < h || h <= j);
    if (!stays) {
      g_blocks[i] = g_blocks[j];
      i = j;
    }
  }
  g_blocks[i].ptr = 0;
}

void* alloc(std::size_t size, std::size_t align, void* caller) {
  if (size == 0) size = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  record(p, size, caller);
  return p;
}

void release(void* p) {
  erase(p);
  std::free(p);
}

void write_all(int fd, const char* buf, std::size_t n) {
  while (n > 0) {
    const ssize_t w = write(fd, buf, n);
    if (w <= 0) return;
    buf += w;
    n -= static_cast<std::size_t>(w);
  }
}

void copy_file(const char* from, const char* to) {
  const int in = open(from, O_RDONLY);
  const int out = open(to, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (in >= 0 && out >= 0) {
    char buf[1 << 16];
    ssize_t n;
    while ((n = read(in, buf, sizeof buf)) > 0) {
      write_all(out, buf, static_cast<std::size_t>(n));
    }
  }
  if (in >= 0) close(in);
  if (out >= 0) close(out);
}

/// Aggregates the live blocks by caller and writes heap.sites and
/// heap.maps.
void dump() {
  const Guard guard;
  if (g_dumped || g_blocks == nullptr) return;
  g_dumped = true;
  void* m = mmap(nullptr, kSites * sizeof(Site), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (m == MAP_FAILED) return;
  auto* sites = static_cast<Site*>(m);
  std::size_t unsited = 0;
  for (std::size_t i = 0; i < kSlots; ++i) {
    const Block& b = g_blocks[i];
    if (b.ptr == 0) continue;
    std::size_t j = home(b.caller) & (kSites - 1);
    std::size_t n = 0;
    while (sites[j].caller != 0 && sites[j].caller != b.caller && n < kSites) {
      j = (j + 1) & (kSites - 1);
      ++n;
    }
    if (n == kSites) {
      unsited += b.size;
      continue;
    }
    sites[j].caller = b.caller;
    sites[j].bytes += b.size;
    ++sites[j].blocks;
  }
  const int fd = open("heap.sites", O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    char line[96];
    for (std::size_t j = 0; j < kSites; ++j) {
      if (sites[j].caller == 0) continue;
      const int len = std::snprintf(line, sizeof line, "%lx %zu %zu\n",
                                    static_cast<unsigned long>(sites[j].caller),
                                    sites[j].bytes, sites[j].blocks);
      write_all(fd, line, static_cast<std::size_t>(len));
    }
    if (g_dropped > 0 || unsited > 0) {
      const int len = std::snprintf(line, sizeof line, "# untracked %zu %zu\n",
                                    g_dropped, unsited);
      write_all(fd, line, static_cast<std::size_t>(len));
    }
    close(fd);
  }
  copy_file("/proc/self/maps", "heap.maps");
  munmap(m, kSites * sizeof(Site));
}

bool is_status(const char* path) {
  return path != nullptr && std::strcmp(path, "/proc/self/status") == 0;
}

}  // namespace

#define ISPN_CALLER __builtin_return_address(0)

void* operator new(std::size_t n) {
  if (void* p = alloc(n, 0, ISPN_CALLER)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = alloc(n, 0, ISPN_CALLER)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return alloc(n, 0, ISPN_CALLER);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return alloc(n, 0, ISPN_CALLER);
}
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = alloc(n, static_cast<std::size_t>(a), ISPN_CALLER)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  if (void* p = alloc(n, static_cast<std::size_t>(a), ISPN_CALLER)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return alloc(n, static_cast<std::size_t>(a), ISPN_CALLER);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return alloc(n, static_cast<std::size_t>(a), ISPN_CALLER);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  release(p);
}

// The census point: the first open of /proc/self/status.
extern "C" std::FILE* fopen(const char* path, const char* mode) {
  using Fopen = std::FILE* (*)(const char*, const char*);
  static const auto real = reinterpret_cast<Fopen>(dlsym(RTLD_NEXT, "fopen"));
  if (is_status(path)) dump();
  return real(path, mode);
}

extern "C" std::FILE* fopen64(const char* path, const char* mode) {
  using Fopen = std::FILE* (*)(const char*, const char*);
  static const auto real =
      reinterpret_cast<Fopen>(dlsym(RTLD_NEXT, "fopen64"));
  if (is_status(path)) dump();
  return real(path, mode);
}
