#pragma once

#include <cstdint>

namespace rdmasem::sim {

// Logical lane of the event the current thread is dispatching: lane 0 is
// the driver/main context, lane m+1 is machine m. Returns 0 outside an
// engine dispatch. Layers below the engine that need the lane (the obs
// tracer stamps it into every span) use this instead of depending on the
// engine header.
std::uint32_t current_lane() noexcept;

}  // namespace rdmasem::sim
