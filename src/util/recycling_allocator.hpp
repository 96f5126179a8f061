#pragma once

#include <cstddef>
#include <new>

namespace clove::util {

/// Thread-local free list of fixed-size raw blocks, shared by every
/// RecyclingAllocator on the thread. A freed block stores the link to the
/// next one in its own first bytes, so recycling never allocates. The list
/// keeps at most kMaxBlocks; blocks freed beyond that go back to the heap,
/// so a burst of frees does not pin memory the rest of the program could
/// reuse.
struct BlockFreeList {
  static constexpr std::size_t kBlockBytes = 512;
  static constexpr std::size_t kMaxBlocks = 64;

  void* head{nullptr};
  std::size_t count{0};

  constexpr BlockFreeList() = default;
  BlockFreeList(const BlockFreeList&) = delete;
  BlockFreeList& operator=(const BlockFreeList&) = delete;
  ~BlockFreeList() {
    while (head != nullptr) {
      void* next = *static_cast<void**>(head);
      ::operator delete(head);
      head = next;
    }
    count = 0;
  }

  void* get() {
    if (head == nullptr) return ::operator new(kBlockBytes);
    void* p = head;
    head = *static_cast<void**>(p);
    --count;
    return p;
  }
  void put(void* p) noexcept {
    if (count == kMaxBlocks) {
      ::operator delete(p);
      return;
    }
    *static_cast<void**>(p) = head;
    head = p;
    ++count;
  }
};

inline constinit thread_local BlockFreeList t_block_free_list;

/// Allocator for a std::deque used as a FIFO. Such a deque frees its front
/// block and allocates a new back block every few dozen elements; with this
/// allocator every request of up to BlockFreeList::kBlockBytes is served
/// from, and returned to, the thread's free list, so a steady FIFO stops
/// touching the heap. Blocks one container frees serve any other, and the
/// list is capped, so memory follows the containers' total occupancy, where
/// a per-container ring buffer would keep each container's own peak.
/// Larger requests go to the heap.
template <typename T>
class RecyclingAllocator {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

 public:
  using value_type = T;

  RecyclingAllocator() = default;
  template <typename U>
  RecyclingAllocator(const RecyclingAllocator<U>& /*other*/) noexcept {}

  T* allocate(std::size_t n) {
    if (n * sizeof(T) > BlockFreeList::kBlockBytes) {
      return static_cast<T*>(::operator new(n * sizeof(T)));
    }
    return static_cast<T*>(t_block_free_list.get());
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (n * sizeof(T) > BlockFreeList::kBlockBytes) {
      ::operator delete(p);
    } else {
      t_block_free_list.put(p);
    }
  }

  template <typename U>
  bool operator==(const RecyclingAllocator<U>& /*other*/) const noexcept {
    return true;
  }
};

}  // namespace clove::util
