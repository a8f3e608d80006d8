// VOD_LIFETIMEBOUND — portability macro for [[clang::lifetimebound]].
//
// The slot kernel's accessors hand out views (std::span, raw pointers)
// into storage owned by the receiver: SlotSchedule's slab rows, and the
// DhbScheduler and VodServer calls that pass them on. A view must not
// outlive its owner, and clang can prove the temporary-owner case at
// compile time when the owning parameter is annotated
// [[clang::lifetimebound]]:
//
//   auto row = SlotSchedule(9, 9).advance();   // error under -Wdangling:
//                                              // owner dies at the ';'
//
// Annotation policy (DESIGN.md §16):
//   * every member function returning a span, raw pointer, or reference
//     into receiver-owned storage carries VOD_LIFETIMEBOUND after its
//     cv-qualifiers, binding the implicit `this` parameter;
//   * value-returning APIs (LoadIndex, the MinLoad probes) need nothing —
//     there is no view to dangle;
//   * the annotation proves only the owner-outlives-view half. The other
//     half — the owner mutating the storage under a live view — is what
//     the vod-slab-span-escape clang-tidy check covers (tools/vod_tidy).
//     At run time ASan reports a view read after a slab re-layout (the
//     old vector is freed), but not one read after advance() recycled
//     its ring row, which is live storage with a new tenant.
//
// gcc reports __has_cpp_attribute(clang::lifetimebound) == 0 and compiles
// the same code with the macro empty; the clang CI build turns the
// resulting diagnostics into errors (-Werror=dangling, -Werror=dangling-gsl
// in the root CMakeLists).
#pragma once

#if defined(__has_cpp_attribute)
#if __has_cpp_attribute(clang::lifetimebound)
#define VOD_LIFETIMEBOUND [[clang::lifetimebound]]
#endif
#endif

#ifndef VOD_LIFETIMEBOUND
#define VOD_LIFETIMEBOUND
#endif
