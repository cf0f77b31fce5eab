#include "mr/exchange.hpp"

namespace gdiam::mr {

void record_exchange(RoundStats& stats, const ExchangeCounters& c) noexcept {
  stats.cross_messages += c.cross_messages;
  stats.cross_bytes += c.cross_bytes;
  stats.wire_messages += c.wire_messages;
  stats.wire_bytes += c.wire_bytes;
}

}  // namespace gdiam::mr
