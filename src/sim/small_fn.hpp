#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace clove::sim {

/// Move-only `void()` callable with a small-buffer optimization sized for the
/// datapath's capture-light lambdas. Unlike std::function it
///   * never heap-allocates for captures up to kInlineSize bytes, and
///   * accepts move-only captures (PacketPtr and friends) directly, removing
///     the shared_ptr-holder workaround std::function's copyability rule
///     forces on packet-carrying events.
/// Oversized or throwing-move captures fall back to the heap transparently.
class SmallFn {
 public:
  /// Covers every capture the simulator schedules today (this + a PacketPtr +
  /// a couple of words) with room to spare; measured, not guessed — see
  /// bench_micro_datapath's allocs-per-event counters.
  static constexpr std::size_t kInlineSize = 48;

  SmallFn() noexcept = default;
  SmallFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  SmallFn(SmallFn&& o) noexcept { move_from(o); }
  SmallFn& operator=(SmallFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { reset(); }

  /// Build `f` directly in this (empty) SmallFn — the event queue's
  /// construct-in-place path, which skips a temporary SmallFn and its move.
  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(!std::is_same_v<Fn, SmallFn>, "pass the callable itself");
    assert(ops_ == nullptr);
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
    } else {
      heap_ = new Fn(std::forward<F>(f));
      ops_ = &HeapOps<Fn>::ops;
    }
  }

  /// Destroy the target (releasing its captures) and leave this empty.
  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(target());
    ops_ = nullptr;
    heap_ = nullptr;
  }

  void operator()() { ops_->invoke(target()); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }
  /// True when the target lives in the inline buffer (no heap allocation).
  [[nodiscard]] bool is_inline() const noexcept {
    return ops_ != nullptr && heap_ == nullptr;
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct into `dst` and destroy `src` (inline targets only;
    /// heap targets relocate by pointer swap). nullptr means the target is
    /// trivially copyable and relocates as a raw buffer copy — the common
    /// case for the datapath's `[this]` lambdas, where it removes an
    /// unpredictable indirect call from every event move.
    void (*relocate)(void* dst, void* src);
    /// nullptr means trivially destructible: destruction is a no-op.
    void (*destroy)(void*);
  };

  template <typename Fn>
  struct InlineOps {
    static void invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void relocate(void* dst, void* src) {
      ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
      static_cast<Fn*>(src)->~Fn();
    }
    static void destroy(void* p) { static_cast<Fn*>(p)->~Fn(); }
    static constexpr Ops ops{
        &invoke, std::is_trivially_copyable_v<Fn> ? nullptr : &relocate,
        std::is_trivially_destructible_v<Fn> ? nullptr : &destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static void invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void destroy(void* p) { delete static_cast<Fn*>(p); }
    static constexpr Ops ops{&invoke, nullptr, &destroy};
  };

  void* target() noexcept { return heap_ != nullptr ? heap_ : buf_; }

  void move_from(SmallFn& o) noexcept {
    ops_ = o.ops_;
    heap_ = o.heap_;
    if (ops_ != nullptr && heap_ == nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(buf_, o.buf_);
      } else {
        // Trivially copyable target: a fixed-size copy beats an indirect
        // call (copying slack beyond sizeof(Fn) is harmless).
        std::memcpy(buf_, o.buf_, kInlineSize);
      }
    }
    o.ops_ = nullptr;
    o.heap_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  void* heap_{nullptr};
  const Ops* ops_{nullptr};
};

}  // namespace clove::sim
