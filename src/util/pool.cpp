#include "vmmc/util/pool.h"

#include <new>

namespace vmmc::util {

void* Pool::HeapAllocate(std::size_t n) { return ::operator new(n); }

void Pool::HeapFree(void* p) noexcept { ::operator delete(p); }

}  // namespace vmmc::util
