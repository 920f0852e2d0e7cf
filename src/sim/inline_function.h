// Type-erased R(Args...) callables with fixed inline storage and no heap
// allocation, ever: storing or moving one costs a bounded copy of its inline
// bytes, never an operator new. Oversized captures fail to compile
// (static_assert), which keeps the no-allocation guarantee honest at every
// call site: to bind more state than fits, park it in the owning object and
// capture a pointer.
//
// One template, two aliases:
//  - InlineCallback: void(), 32 bytes, move-only. The event queue's slot
//    callback; the capacity fits the largest capture any event in the tree
//    takes (four words). No event carries a Packet: a Link keeps its packets
//    in its own members and its events capture only `this`, so a slot stays
//    small enough that the pool and the heap it backs stay cache-friendly.
//    Move-only, so events may capture move-only state.
//  - InlineFunction<Sig>: 64 bytes (a handful of pointers), COPYABLE. Used
//    where a long-lived component stores a small callback (QdiscSampler's
//    rate provider, LambdaHandler's packet sink, monitor packet predicates):
//    std::function would heap-allocate any multi-pointer capture, and monitor
//    specs are copied out of a const NetBuilder during Build, so the callable
//    must be copy-constructible (static_assert at Emplace).
#ifndef SRC_SIM_INLINE_FUNCTION_H_
#define SRC_SIM_INLINE_FUNCTION_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace bundler {

template <typename Sig, size_t Capacity, bool Copyable>
class BasicInlineFunction;  // only the R(Args...) specialization exists

template <typename R, typename... Args, size_t Capacity, bool Copyable>
class BasicInlineFunction<R(Args...), Capacity, Copyable> {
 public:
  static constexpr size_t kCapacity = Capacity;

  BasicInlineFunction() = default;
  BasicInlineFunction(std::nullptr_t) {}  // NOLINT(runtime/explicit): like std::function

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, BasicInlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  BasicInlineFunction(F&& f) {  // NOLINT(runtime/explicit): lambda -> function
    Emplace(std::forward<F>(f));
  }

  // Constructs the callable directly in inline storage (the event queue's
  // Push hot path uses this to skip a temporary). Any previous callable must
  // be gone.
  template <typename F>
  void Emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kCapacity,
                  "capture exceeds the inline capacity; shrink the capture "
                  "(indirect through the owning object) rather than growing "
                  "every slot");
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    static_assert(!Copyable || std::is_copy_constructible_v<Fn>,
                  "InlineFunction is copyable, so the callable must be too; "
                  "park move-only state in the owning object");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    invoke_ = [](void* s, Args... args) -> R {
      return (*static_cast<Fn*>(s))(std::forward<Args>(args)...);
    };
    if constexpr (std::is_trivially_copyable_v<Fn> &&
                  std::is_trivially_destructible_v<Fn>) {
      // Trivial callables (the vast majority: lambdas over pointers, PODs,
      // and Packets) move and copy by plain memcpy and need no destructor —
      // the manager indirection is skipped entirely.
      manage_ = nullptr;
    } else {
      manage_ = [](Op op, void* self, void* other) {
        switch (op) {
          case Op::kDestroy:
            static_cast<Fn*>(self)->~Fn();
            break;
          case Op::kMoveFrom:  // move-construct *self from *other, then destroy
            ::new (self) Fn(std::move(*static_cast<Fn*>(other)));
            static_cast<Fn*>(other)->~Fn();
            break;
          case Op::kCopyFrom:
            if constexpr (Copyable) {
              ::new (self) Fn(*static_cast<const Fn*>(other));
            }
            break;
        }
      };
    }
  }

  BasicInlineFunction(BasicInlineFunction&& o) noexcept { MoveFrom(o); }
  BasicInlineFunction& operator=(BasicInlineFunction&& o) noexcept {
    if (this != &o) {
      Reset();
      MoveFrom(o);
    }
    return *this;
  }
  BasicInlineFunction(const BasicInlineFunction& o) requires Copyable {
    CopyFrom(o);
  }
  BasicInlineFunction& operator=(const BasicInlineFunction& o) requires Copyable {
    if (this != &o) {
      Reset();
      CopyFrom(o);
    }
    return *this;
  }
  ~BasicInlineFunction() { Reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  R operator()(Args... args) const {
    return invoke_(const_cast<unsigned char*>(storage_),
                   std::forward<Args>(args)...);
  }

  void Reset() {
    if (manage_ != nullptr) {
      manage_(Op::kDestroy, storage_, nullptr);
    }
    invoke_ = nullptr;
    manage_ = nullptr;
  }

 private:
  enum class Op { kDestroy, kMoveFrom, kCopyFrom };
  using InvokeFn = R (*)(void*, Args...);
  using ManageFn = void (*)(Op, void*, void*);

  void MoveFrom(BasicInlineFunction& o) {
    invoke_ = o.invoke_;
    manage_ = o.manage_;
    if (manage_ != nullptr) {
      manage_(Op::kMoveFrom, storage_, o.storage_);
    } else if (invoke_ != nullptr) {
      // Trivial payload: the fixed-size copy beats a sized one (the length
      // is a compile-time constant, so it vectorizes) and is always safe.
      std::memcpy(storage_, o.storage_, kCapacity);
    }
    o.invoke_ = nullptr;
    o.manage_ = nullptr;
  }

  void CopyFrom(const BasicInlineFunction& o) {
    invoke_ = o.invoke_;
    manage_ = o.manage_;
    if (manage_ != nullptr) {
      manage_(Op::kCopyFrom, storage_, const_cast<unsigned char*>(o.storage_));
    } else if (invoke_ != nullptr) {
      std::memcpy(storage_, o.storage_, kCapacity);
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kCapacity];
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
};

using InlineCallback = BasicInlineFunction<void(), 32, /*Copyable=*/false>;

template <typename Sig>
using InlineFunction = BasicInlineFunction<Sig, 64, /*Copyable=*/true>;

}  // namespace bundler

#endif  // SRC_SIM_INLINE_FUNCTION_H_
