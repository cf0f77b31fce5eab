#include "mr/stats.hpp"

#include <cstdio>

namespace gdiam::mr {

std::string to_string(const RoundStats& s) {
  char buf[320];
  int len = std::snprintf(buf, sizeof buf,
                          "rounds=%llu (relax=%llu aux=%llu) messages=%.3e "
                          "updates=%.3e work=%.3e",
                          static_cast<unsigned long long>(s.rounds()),
                          static_cast<unsigned long long>(s.relaxation_rounds),
                          static_cast<unsigned long long>(s.auxiliary_rounds),
                          static_cast<double>(s.messages),
                          static_cast<double>(s.node_updates),
                          static_cast<double>(s.work()));
  if (s.cross_messages != 0 || s.cross_bytes != 0) {
    len += std::snprintf(buf + len, sizeof buf - static_cast<std::size_t>(len),
                         " cross=%.3emsg/%.3eB",
                         static_cast<double>(s.cross_messages),
                         static_cast<double>(s.cross_bytes));
  }
  if (s.wire_messages != 0 || s.wire_bytes != 0) {
    len += std::snprintf(buf + len, sizeof buf - static_cast<std::size_t>(len),
                         " wire=%.3emsg/%.3eB",
                         static_cast<double>(s.wire_messages),
                         static_cast<double>(s.wire_bytes));
  }
  if (s.sparse_rounds != 0 || s.dense_rounds != 0) {
    std::snprintf(buf + len, sizeof buf - static_cast<std::size_t>(len),
                  " modes=%lluS/%lluD",
                  static_cast<unsigned long long>(s.sparse_rounds),
                  static_cast<unsigned long long>(s.dense_rounds));
  }
  return buf;
}

}  // namespace gdiam::mr
