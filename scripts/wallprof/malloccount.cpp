// malloccount: counts the malloc-family calls of a whole program run.
//
//   LD_PRELOAD=build/scripts/libmalloccount.so ./prog
//
// prints `malloccount: calls N bytes B` on stderr at exit: every malloc,
// calloc, realloc, aligned_alloc, memalign and posix_memalign (operator
// new lands in malloc), and the bytes they asked for. The wrappers
// forward to glibc's __libc_* entry points, so no dlsym bootstrap is
// needed; _Exit/_exit are wrapped too, for programs that skip atexit.
#include <dlfcn.h>
#include <unistd.h>

#include <cstddef>
#include <cstdio>

extern "C" {
void* __libc_malloc(std::size_t);
void* __libc_calloc(std::size_t, std::size_t);
void* __libc_realloc(void*, std::size_t);
void* __libc_memalign(std::size_t, std::size_t);
}

namespace {

unsigned long long g_calls = 0;
unsigned long long g_bytes = 0;
bool g_reported = false;

void Report() {
  if (g_reported) return;
  g_reported = true;
  char line[96];
  const int n = snprintf(line, sizeof line, "malloccount: calls %llu bytes %llu\n",
                         g_calls, g_bytes);
  if (n > 0) (void)!write(2, line, static_cast<std::size_t>(n));
}

__attribute__((destructor)) void Stop() { Report(); }

void Count(std::size_t bytes) {
  ++g_calls;
  g_bytes += bytes;
}

}  // namespace

extern "C" {

void* malloc(std::size_t n) {
  Count(n);
  return __libc_malloc(n);
}
void* calloc(std::size_t k, std::size_t n) {
  Count(k * n);
  return __libc_calloc(k, n);
}
void* realloc(void* p, std::size_t n) {
  Count(n);
  return __libc_realloc(p, n);
}
void* memalign(std::size_t align, std::size_t n) {
  Count(n);
  return __libc_memalign(align, n);
}
void* aligned_alloc(std::size_t align, std::size_t n) {
  Count(n);
  return __libc_memalign(align, n);
}
int posix_memalign(void** out, std::size_t align, std::size_t n) {
  Count(n);
  void* p = __libc_memalign(align, n);
  if (p == nullptr) return 12;  // ENOMEM
  *out = p;
  return 0;
}

[[noreturn]] void _Exit(int status) {
  Report();
  reinterpret_cast<void (*)(int)>(dlsym(RTLD_NEXT, "_Exit"))(status);
  __builtin_unreachable();
}
[[noreturn]] void _exit(int status) {
  Report();
  reinterpret_cast<void (*)(int)>(dlsym(RTLD_NEXT, "_exit"))(status);
  __builtin_unreachable();
}

}  // extern "C"
