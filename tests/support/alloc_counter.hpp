// Global allocation counter for the zero- and bounded-allocation contracts
// the tests check. Linking alloc_counter.cpp into a test binary replaces
// that binary's global operator new/delete; replacement is per-binary, so
// link it at most once per binary. Tests in the binary that never read the
// counter are unaffected: the replacement only counts, then calls malloc.
#pragma once

#include <cstdint>

namespace perq::test {

/// Number of global operator new calls (all forms) since the binary started.
std::uint64_t allocation_count();

}  // namespace perq::test
