// In-process PC sampler, loaded into a program with LD_PRELOAD (see
// scripts/profile.sh).
//
// On load it arms a CLOCK_MONOTONIC POSIX timer at 10 kHz that delivers
// SIGPROF; the handler records only the interrupted program counter into a
// preallocated buffer (no allocation, no locks, async-signal-safe).  At
// exit it disarms the timer and writes, into the current directory,
// sampler.pcs (one hexadecimal PC per line) and sampler.maps (a copy of
// /proc/self/maps), which profile.sh symbolizes.  It samples whichever
// thread the signal lands on, so it suits single-threaded runs.
//
// Build: g++ -O2 -shared -fPIC -o libsampler.so sampler.cc

#include <fcntl.h>
#include <signal.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <ctime>

namespace {

constexpr long kPeriodNs = 100'000;          // 10 kHz
constexpr std::size_t kMaxSamples = 1 << 22;  // 7 min at 10 kHz

std::uintptr_t* g_pcs = nullptr;
std::atomic<std::size_t> g_count{0};
timer_t g_timer{};
bool g_armed = false;

std::uintptr_t interrupted_pc(const void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "sampler: unsupported architecture"
#endif
}

void on_sigprof(int, siginfo_t*, void* context) {
  const std::size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) g_pcs[i] = interrupted_pc(context);
}

/// Copies /proc/self/maps to `path` with plain reads and writes.
void copy_maps(const char* path) {
  const int in = open("/proc/self/maps", O_RDONLY);
  const int out = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (in >= 0 && out >= 0) {
    char buf[1 << 16];
    ssize_t n;
    while ((n = read(in, buf, sizeof buf)) > 0) {
      if (write(out, buf, static_cast<std::size_t>(n)) != n) break;
    }
  }
  if (in >= 0) close(in);
  if (out >= 0) close(out);
}

__attribute__((constructor)) void sampler_start() {
  g_pcs = new std::uintptr_t[kMaxSamples];
  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) return;
  sigevent ev{};
  ev.sigev_notify = SIGEV_SIGNAL;
  ev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &ev, &g_timer) != 0) return;
  itimerspec period{};
  period.it_interval.tv_nsec = kPeriodNs;
  period.it_value.tv_nsec = kPeriodNs;
  g_armed = timer_settime(g_timer, 0, &period, nullptr) == 0;
}

__attribute__((destructor)) void sampler_stop() {
  if (!g_armed) return;
  timer_delete(g_timer);
  signal(SIGPROF, SIG_IGN);
  g_armed = false;
  std::size_t n = g_count.load(std::memory_order_relaxed);
  if (n > kMaxSamples) n = kMaxSamples;
  if (std::FILE* f = std::fopen("sampler.pcs", "w")) {
    for (std::size_t i = 0; i < n; ++i) {
      std::fprintf(f, "%lx\n", static_cast<unsigned long>(g_pcs[i]));
    }
    std::fclose(f);
  }
  copy_maps("sampler.maps");
}

}  // namespace
