// Small-buffer event closure for the pooled event engine.
//
// std::function<void()> heap-allocates any capture beyond two words, and the
// old event heap copied it once per pop; at one scheduled event per virtual
// instruction that allocation churn dominated the simulator. EventFn stores
// captures up to kInlineSize bytes in place (machine steps capture 8 bytes,
// timer fires 16), spilling larger closures to a single heap cell. It is
// move-only — the pooled queue moves it out of the slot exactly once, at
// fire time.
#pragma once

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace sent::sim {

class EventFn {
 public:
  /// Captures at or under this many bytes are stored inline. Sized to hold
  /// every closure on the simulator's hot paths (step continuations, timer
  /// fires, radio timeouts) and a by-value std::function for code that
  /// still passes one.
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kAlign = alignof(std::max_align_t);

  /// True when a closure of type F is stored in place rather than in a heap
  /// cell. Hot call sites static_assert it, so a capture that grows past
  /// kInlineSize fails to compile instead of allocating per event.
  template <typename F>
  static constexpr bool stores_inline =
      sizeof(F) <= kInlineSize && alignof(F) <= kAlign &&
      std::is_nothrow_move_constructible_v<F>;

  EventFn() = default;
  EventFn(std::nullptr_t) {}  // NOLINT: implicit like std::function

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT: implicit like std::function
    using Fn = std::decay_t<F>;
    if constexpr (std::is_same_v<Fn, std::function<void()>>) {
      if (!f) return;  // empty std::function => empty EventFn
    }
    if constexpr (stores_inline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      static constexpr VTable vt = {
          [](void* p) { (*static_cast<Fn*>(p))(); },
          [](void* dst, void* src) {
            Fn* from = static_cast<Fn*>(src);
            ::new (dst) Fn(std::move(*from));
            from->~Fn();
          },
          [](void* p) { static_cast<Fn*>(p)->~Fn(); }};
      vt_ = &vt;
    } else {
      // Heap spill: the storage holds a single owning pointer.
      ::new (static_cast<void*>(storage_))
          Fn*(new Fn(std::forward<F>(f)));
      static constexpr VTable vt = {
          [](void* p) { (**static_cast<Fn**>(p))(); },
          [](void* dst, void* src) {
            ::new (dst) Fn*(*static_cast<Fn**>(src));
          },
          [](void* p) { delete *static_cast<Fn**>(p); }};
      vt_ = &vt;
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void reset() {
    if (vt_ != nullptr) {
      vt_->destroy(storage_);
      vt_ = nullptr;
    }
  }

  explicit operator bool() const { return vt_ != nullptr; }

  void operator()() { vt_->invoke(storage_); }

 private:
  struct VTable {
    void (*invoke)(void*);
    /// Move-construct dst from src, then destroy src's object.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  void move_from(EventFn& other) noexcept {
    if (other.vt_ != nullptr) {
      other.vt_->relocate(storage_, other.storage_);
      vt_ = other.vt_;
      other.vt_ = nullptr;
    }
  }

  alignas(kAlign) unsigned char storage_[kInlineSize];
  const VTable* vt_ = nullptr;
};

}  // namespace sent::sim
