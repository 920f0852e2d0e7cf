// End-host model. A `Host` demultiplexes incoming packets to per-flow
// handlers and stamps outgoing packets (IP ID counter, ports). A `FlowTable`
// owns the transport objects of every flow created during a scenario and
// allocates flow ids.
//
// Both sit on the per-flow setup path, which under an open-loop web workload
// runs thousands of times per simulated second: the demux table is an
// open-addressing FlatMap64 (no node allocation per flow) and FlowTable
// carves transport objects out of a bump arena (one block allocation per
// ~hundred flows) instead of one make_unique per object and recycles the
// blocks of completed flows, so steady-state flow churn costs ~zero heap
// allocations per event and memory tracks the in-flight working set.
#ifndef SRC_TRANSPORT_ENDPOINT_H_
#define SRC_TRANSPORT_ENDPOINT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "src/net/node.h"
#include "src/sim/simulator.h"
#include "src/util/check.h"
#include "src/util/flat_map.h"

namespace bundler {

class Host : public PacketHandler {
 public:
  Host(Simulator* sim, Address addr, PacketHandler* egress);

  // Incoming packets from the network: demux on flow id. A data segment of a
  // finite flow whose receiver is gone gets a stateless TIME_WAIT reply: the
  // exact cumulative ACK (seq = flow_total_pkts) the completed receiver would
  // have sent, so receivers are freed the moment they complete and a sender
  // whose final ACKs were lost still converges. Anything else unclaimed is
  // dropped like a closed socket would.
  void HandlePacket(Packet pkt) override;

  // Outgoing path: stamps the IPv4 ID (per-host counter, so retransmissions
  // get fresh IDs) and hands the packet to the site network.
  void SendOut(Packet pkt);

  void Register(uint64_t flow_id, PacketHandler* handler);
  void Unregister(uint64_t flow_id);

  uint16_t AllocPort();

  Simulator* sim() { return sim_; }
  Address address() const { return addr_; }
  uint64_t unclaimed_packets() const { return unclaimed_; }
  void set_egress(PacketHandler* egress) { egress_ = egress; }

 private:
  Simulator* sim_;
  Address addr_;
  PacketHandler* egress_;
  FlatMap64<PacketHandler*> flows_;
  uint16_t next_port_ = 1024;
  uint16_t next_ip_id_ = 1;
  uint64_t unclaimed_ = 0;
};

// Owns the transport objects of every flow and allocates flow ids. Each
// object is carved from a bump arena behind a 16-byte header, rounded up to a
// 64-byte size class.
//
// Reclamation is unconditional and event-free. An object whose work is done
// (a completed sender or receiver, a request whose response flow started)
// unregisters from its host and calls Retire(this) as the very last thing it
// touches. The table destroys the retiree at the next Emplace or Retire and
// threads its block onto a per-class free list, so a churny open-loop
// workload recycles a working set of blocks instead of growing the arena by
// one dead sender+receiver+request per completed flow, and no simulator event
// is ever scheduled for a release. Destruction is deferred by one call
// because the retiree's own handler is still on the stack when it retires;
// Retire is that handler's tail call and none of its callers dereferences
// the object again, so by the next table call nothing touches it. Objects
// that never retire (backlogged flows, ping-pong apps) live until the table
// goes away.
//
// Thread-compatible, like every component of a Simulator: each table belongs
// to one Net in one Simulator, driven by the one worker running its trial.
class FlowTable {
 public:
  FlowTable() = default;
  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;
  ~FlowTable() {
    for (size_t i = owned_.size(); i > 0; --i) {
      owned_[i - 1].destroy(owned_[i - 1].obj);
    }
  }

  [[nodiscard]] uint64_t AllocFlowId() { return next_flow_id_++; }

  template <typename T, typename... Args>
  [[nodiscard]] T* Emplace(Args&&... args) {
    static_assert(sizeof(T) <= kBlockBytes, "flow object larger than an arena block");
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "arena blocks are new[]-aligned");
    DestroyRetired();
    void* mem = AllocateBlock(sizeof(T));
    T* obj = ::new (mem) T(std::forward<Args>(args)...);
    Header(obj)->owned_idx = static_cast<uint32_t>(owned_.size());
    owned_.push_back(Owned{obj, [](void* p) { static_cast<T*>(p)->~T(); }});
    return obj;
  }

  // Hands an Emplace()d object back. It must be the caller's last touch of
  // `obj`: no pending event or live pointer may reference it afterwards. The
  // object is destroyed, and its block recycled, by the next Emplace or
  // Retire.
  void Retire(void* obj) {
    BUNDLER_CHECK_MSG(Header(obj)->magic == kLiveMagic,
                      "Retire of a pointer this table does not own");
    BUNDLER_CHECK(obj != retired_);
    DestroyRetired();
    retired_ = obj;
    ++releases_;
  }

  // Objects constructed and not yet retired.
  size_t size() const { return owned_.size() - (retired_ != nullptr ? 1 : 0); }
  // Retire() calls so far.
  uint64_t releases() const { return releases_; }
  // Emplaces served from a free list rather than fresh arena space.
  uint64_t reuses() const { return reuses_; }
  size_t arena_blocks() const { return blocks_.size(); }

 private:
  struct Owned {
    void* obj;
    void (*destroy)(void*);
  };

  // Sits immediately before each object. 16 bytes keeps the payload at new[]
  // alignment; the magic doubles as a use-after-destroy trap and leaves the
  // first word free for the free-list link once dead.
  struct ObjectHeader {
    uint32_t owned_idx;
    uint32_t size_class;
    uint64_t magic;
  };
  static_assert(sizeof(ObjectHeader) == 16);
  static constexpr uint64_t kLiveMagic = 0x666c6f7774626c6bULL;  // "flowtblk"
  static constexpr size_t kGranule = 64;

  static ObjectHeader* Header(void* obj) {
    return reinterpret_cast<ObjectHeader*>(static_cast<unsigned char*>(obj) -
                                           sizeof(ObjectHeader));
  }

  // Destroys the pending retiree (if any), swap-removes it from owned_, and
  // pushes its block onto its size class's free list.
  void DestroyRetired() {
    if (retired_ == nullptr) {
      return;
    }
    void* obj = retired_;
    retired_ = nullptr;
    ObjectHeader* h = Header(obj);
    const size_t idx = h->owned_idx;
    BUNDLER_CHECK(idx < owned_.size() && owned_[idx].obj == obj);
    owned_[idx].destroy(obj);
    owned_[idx] = owned_.back();
    owned_.pop_back();
    if (idx < owned_.size()) {
      Header(owned_[idx].obj)->owned_idx = static_cast<uint32_t>(idx);
    }
    const size_t cls = h->size_class;
    h->magic = 0;
    // The dead block's first word becomes the free-list link.
    *reinterpret_cast<void**>(h) = free_lists_[cls];
    free_lists_[cls] = h;
  }

  // Returns the payload address of a header-prefixed block of `bytes`'s size
  // class, recycled from the free list when one is available.
  void* AllocateBlock(size_t bytes) {
    const size_t cls = (bytes + kGranule - 1) / kGranule;
    if (free_lists_.size() <= cls) {
      free_lists_.resize(cls + 1, nullptr);
    }
    void* block = free_lists_[cls];
    if (block != nullptr) {
      free_lists_[cls] = *static_cast<void**>(block);
      ++reuses_;
    } else {
      // Block aligned to new[] alignment so the payload (16 bytes in) still
      // satisfies the Emplace static_assert's alignment bound.
      block = AllocateArena(sizeof(ObjectHeader) + cls * kGranule,
                            __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    }
    auto* h = static_cast<ObjectHeader*>(block);
    h->size_class = static_cast<uint32_t>(cls);
    h->magic = kLiveMagic;
    return static_cast<unsigned char*>(block) + sizeof(ObjectHeader);
  }

  void* AllocateArena(size_t bytes, size_t align) {
    size_t at = (arena_used_ + align - 1) & ~(align - 1);
    if (blocks_.empty() || at + bytes > kBlockBytes) {
      // Amortized arena growth; steady state recycles via free lists.
      blocks_.push_back(std::make_unique<unsigned char[]>(kBlockBytes));  // lint:allow(datapath-heap-alloc)
      at = 0;
    }
    arena_used_ = at + bytes;
    return blocks_.back().get() + at;
  }

  // Large enough for ~100 flows (sender+receiver+glue) per block; a flow
  // object bigger than a block would be a bug worth hearing about loudly.
  static constexpr size_t kBlockBytes = 256 * 1024;

  uint64_t next_flow_id_ = 1;
  std::vector<std::unique_ptr<unsigned char[]>> blocks_;
  size_t arena_used_ = 0;
  std::vector<Owned> owned_;
  // Indexed by size class, intrusive links through the dead blocks.
  std::vector<void*> free_lists_;
  // Retired but not yet destroyed: at most one, since every Retire and
  // Emplace destroys the previous retiree first.
  void* retired_ = nullptr;
  uint64_t releases_ = 0;
  uint64_t reuses_ = 0;
};

}  // namespace bundler

#endif  // SRC_TRANSPORT_ENDPOINT_H_
