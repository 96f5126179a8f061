#include "net/packet.hpp"

#include <atomic>

#include "net/packet_pool.hpp"

namespace clove::net {

void PacketDeleter::operator()(Packet* p) const noexcept {
  if (pool != nullptr) {
    pool->release(p);
  } else {
    delete p;
  }
}

PacketPtr make_packet() {
  static std::atomic<std::uint64_t> next_uid{1};
  auto* p = new Packet;
  p->uid = next_uid.fetch_add(1, std::memory_order_relaxed);
  return PacketPtr(p);
}

PacketPtr make_packet(sim::Simulator& sim) {
  return PacketPool::of(sim).acquire();
}

}  // namespace clove::net
