// A std::vector whose resize() leaves new slots unwritten.
//
// std::vector::resize value-initialises every new element in one serial
// pass, so a parallel fill that overwrites every slot pays twice: once for
// the serial zeroing (and with it every first-touch page fault), once for
// the fill. NoInitVector's allocator turns the argument-free construct()
// into a no-op, so resize(n) only reserves; the slots are then written
// exactly once, by whichever task owns them, and the page faults happen
// where the writes do. Copies, assign() and push_back(value) construct
// normally.
//
// Only for trivially copyable, trivially destructible element types
// (implicit-lifetime aggregates such as BVH nodes): a slot that nobody
// writes after resize() holds indeterminate bytes, so every user must
// write each slot it sizes.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace rtnn {

template <typename T>
struct NoInitAllocator : std::allocator<T> {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                "NoInitAllocator leaves slots unwritten: trivial types only");

  template <typename U>
  struct rebind {
    using other = NoInitAllocator<U>;
  };

  NoInitAllocator() = default;
  template <typename U>
  NoInitAllocator(const NoInitAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename U>
  void construct(U*) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <typename T>
using NoInitVector = std::vector<T, NoInitAllocator<T>>;

}  // namespace rtnn
