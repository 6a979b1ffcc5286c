#ifndef AURORA_COMMON_INLINE_FUNCTION_H_
#define AURORA_COMMON_INLINE_FUNCTION_H_

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace aurora {

/// A move-only `std::function` replacement with small-buffer-optimized
/// storage, built for the simulator hot path: every event the EventLoop
/// dispatches, every Network handler invocation and every Disk completion
/// goes through one of these. Callables whose size fits `kInlineBytes`
/// (and that are nothrow-move-constructible) live inside the object — no
/// heap allocation per event/message/IO in steady state; larger or
/// throwing-move callables fall back to a heap allocation exactly like
/// `std::function`.
///
/// Differences from `std::function` that matter here:
///  - move-only: callables may hold move-only state (unique_ptrs, pending
///    Pages) instead of being forced into shared_ptr indirection;
///  - moving is O(kInlineBytes) (the buffer is memmoved via the callable's
///    move constructor), which is why containers of these should reserve.
template <typename Signature, size_t kInlineBytes = 64>
class InlineFunction;

template <typename R, typename... Args, size_t kInlineBytes>
class InlineFunction<R(Args...), kInlineBytes> {
 public:
  /// True when a callable of type F lives in the inline buffer rather than
  /// a heap cell; hot-path call sites static_assert it.
  template <typename F>
  static constexpr bool kStoresInline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT
    using Decayed = std::decay_t<F>;
    if constexpr (kStoresInline<Decayed>) {
      ::new (static_cast<void*>(storage_)) Decayed(std::forward<F>(f));
      ops_ = &InlineOps<Decayed>::kOps;
    } else {
      ::new (static_cast<void*>(storage_))
          Decayed*(new Decayed(std::forward<F>(f)));
      ops_ = &HeapOps<Decayed>::kOps;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(other.storage_, storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_ != nullptr) {
        other.ops_->relocate(other.storage_, storage_);
        ops_ = other.ops_;
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  // Const like std::function::operator(): lambdas captured by value in an
  // enclosing non-mutable lambda stay callable.
  R operator()(Args... args) const {
    return ops_->invoke(const_cast<char*>(storage_),
                        std::forward<Args>(args)...);
  }

  /// Destroys the held callable (releasing everything it captured).
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(char* storage, Args&&... args);
    // Move-constructs the callable into `dst` and destroys the source.
    void (*relocate)(char* src, char* dst);
    void (*destroy)(char* storage);
  };

  template <typename F>
  struct InlineOps {
    static R Invoke(char* storage, Args&&... args) {
      return (*std::launder(reinterpret_cast<F*>(storage)))(
          std::forward<Args>(args)...);
    }
    static void Relocate(char* src, char* dst) {
      F* from = std::launder(reinterpret_cast<F*>(src));
      ::new (static_cast<void*>(dst)) F(std::move(*from));
      from->~F();
    }
    static void Destroy(char* storage) {
      std::launder(reinterpret_cast<F*>(storage))->~F();
    }
    static constexpr Ops kOps = {&Invoke, &Relocate, &Destroy};
  };

  template <typename F>
  struct HeapOps {
    static F* ptr(char* storage) {
      return *std::launder(reinterpret_cast<F**>(storage));
    }
    static R Invoke(char* storage, Args&&... args) {
      return (*ptr(storage))(std::forward<Args>(args)...);
    }
    static void Relocate(char* src, char* dst) {
      ::new (static_cast<void*>(dst)) F*(ptr(src));
    }
    static void Destroy(char* storage) { delete ptr(storage); }
    static constexpr Ops kOps = {&Invoke, &Relocate, &Destroy};
  };

  static_assert(kInlineBytes >= sizeof(void*),
                "inline buffer must hold at least a pointer");

  alignas(std::max_align_t) char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace aurora

#endif  // AURORA_COMMON_INLINE_FUNCTION_H_
