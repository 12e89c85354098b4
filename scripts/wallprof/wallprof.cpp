// wallprof: a sampling profiler that needs no kernel support beyond
// setitimer (no perf_event, no ptrace). Preload it into any program:
//
//   LD_PRELOAD=build/scripts/libwallprof.so WALLPROF_OUT=prof.txt ./prog
//   python3 scripts/wallprof/resolve.py prof.txt
//
// ITIMER_PROF fires SIGPROF as the process uses CPU time (asked for every
// 100 us; the kernel delivers at most one per scheduler tick), and the
// handler records the interrupted program counter. For the single-
// threaded, CPU-bound simulator CPU time is wall time. Unlike
// gprof it sees every mapped object, libc's malloc/free included. At exit
// the samples are written to WALLPROF_OUT (default wallprof.<pid>.txt)
// followed by a copy of /proc/self/maps, which resolve.py needs to map
// each address back to an object and symbol. Programs that leave through
// _Exit/_exit (skipping atexit handlers) are covered by wrapping both.
#include <dlfcn.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace {

constexpr std::size_t kMaxSamples = 1u << 21;  // hours of CPU time
std::uintptr_t g_samples[kMaxSamples];
volatile std::size_t g_count = 0;
volatile std::size_t g_dropped = 0;
bool g_dumped = false;

std::uintptr_t InterruptedPc(void* uc_void) {
  auto* uc = static_cast<ucontext_t*>(uc_void);
#if defined(__x86_64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return 0;
#endif
}

void OnProf(int, siginfo_t*, void* uc) {
  const std::size_t i = g_count;
  if (i < kMaxSamples) {
    g_samples[i] = InterruptedPc(uc);
    g_count = i + 1;
  } else {
    g_dropped = g_dropped + 1;
  }
}

void WriteAll(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = write(fd, p, n);
    if (w <= 0) return;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

void Dump() {
  if (g_dumped) return;
  g_dumped = true;
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  char path[4096];
  const char* out = getenv("WALLPROF_OUT");
  if (out != nullptr && out[0] != '\0') {
    snprintf(path, sizeof path, "%s", out);
  } else {
    snprintf(path, sizeof path, "wallprof.%d.txt", static_cast<int>(getpid()));
  }
  const int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  char line[96];
  int n = snprintf(line, sizeof line, "wallprof 1 samples %zu dropped %zu\n",
                   static_cast<std::size_t>(g_count),
                   static_cast<std::size_t>(g_dropped));
  WriteAll(fd, line, static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < g_count; ++i) {
    n = snprintf(line, sizeof line, "%lx\n",
                 static_cast<unsigned long>(g_samples[i]));
    WriteAll(fd, line, static_cast<std::size_t>(n));
  }
  WriteAll(fd, "maps\n", 5);
  const int maps = open("/proc/self/maps", O_RDONLY);
  if (maps >= 0) {
    char buf[8192];
    ssize_t r;
    while ((r = read(maps, buf, sizeof buf)) > 0) {
      WriteAll(fd, buf, static_cast<std::size_t>(r));
    }
    close(maps);
  }
  close(fd);
}

__attribute__((constructor)) void Start() {
  struct sigaction sa{};
  sa.sa_sigaction = OnProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  itimerval tv{};
  tv.it_interval.tv_usec = 100;
  tv.it_value = tv.it_interval;
  setitimer(ITIMER_PROF, &tv, nullptr);
}

__attribute__((destructor)) void Stop() { Dump(); }

template <typename Fn>
Fn Next(const char* name) {
  return reinterpret_cast<Fn>(dlsym(RTLD_NEXT, name));
}

}  // namespace

extern "C" {

[[noreturn]] void _Exit(int status) {
  Dump();
  Next<void (*)(int)>("_Exit")(status);
  __builtin_unreachable();
}

[[noreturn]] void _exit(int status) {
  Dump();
  Next<void (*)(int)>("_exit")(status);
  __builtin_unreachable();
}

}  // extern "C"
